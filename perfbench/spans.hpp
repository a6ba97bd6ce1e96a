// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around every call it makes into a library
// layer (graph, io, temporal, core, support, stream) and around its own
// phases (layer "bench"). Spans nest on the benchmark's one driving thread,
// so a span's children are disjoint sub-intervals of it and its self time is
// its duration minus theirs. Spans stay in memory until write_chrome_trace()
// dumps them at exit. A disabled recorder records nothing and costs one
// branch per span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns() noexcept;

struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 at the root
  std::uint64_t child_ns = 0;  // summed duration of the direct children

  double seconds() const noexcept { return (end_ns - start_ns) * 1e-9; }
  double self_seconds() const noexcept {
    return (end_ns - start_ns - child_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Returns a handle for close(), or -1 when disabled.
  std::int32_t open(const char* name, const char* layer);
  void close(std::int32_t handle);

  // Summed self time of the spans called `name`.
  double self_seconds(const std::string& name) const;

  // Chrome trace-event JSON (chrome://tracing, Perfetto); `metadata` is a
  // JSON object stored under "otherData".
  void write_chrome_trace(const std::string& path,
                          const std::string& metadata) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, const char* layer)
      : recorder_(recorder), handle_(recorder.open(name, layer)) {}
  ~ScopedSpan() { recorder_.close(handle_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t handle_;
};

}  // namespace perfbench
