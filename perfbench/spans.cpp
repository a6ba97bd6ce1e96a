#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int32_t SpanRecorder::open(const char* name, const char* layer) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = current_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanRecorder::close(std::int32_t handle) {
  if (handle < 0) {
    return;
  }
  Span& span = spans_[static_cast<std::size_t>(handle)];
  span.end_ns = now_ns();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
  current_ = span.parent;
}

double SpanRecorder::self_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.self_seconds();
    }
  }
  return total;
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file: " + path);
  }
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"otherData\":" << metadata << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << (span.start_ns - origin) / 1000.0
        << ",\"dur\":" << (span.end_ns - span.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"self_us\":" << span.self_seconds() * 1e6 << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
