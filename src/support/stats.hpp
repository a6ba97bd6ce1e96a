// Timing and work-metric instrumentation.
//
// The paper quantifies algorithmic work as the number of edges visited during
// execution (Section 8); WorkCounters mirrors that. Counters are plain
// members of per-thread state objects and are merged at the end of a run, so
// the hot loops never touch shared cache lines.
#pragma once

#include <chrono>
#include <cstdint>

namespace parcycle {

// Wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Work metrics accumulated by one enumeration run.
struct WorkCounters {
  std::uint64_t edges_visited = 0;    // paper's primary work metric
  std::uint64_t vertices_visited = 0; // recursive-call entries
  std::uint64_t cycles_found = 0;
  std::uint64_t tasks_spawned = 0;
  std::uint64_t state_copies = 0;     // copy-on-steal full copies
  std::uint64_t state_reuses = 0;     // same-thread in-place reuses
  std::uint64_t unblock_operations = 0;
  // Preprocessing work the DFS count above leaves out: edges the temporal
  // cycle-union prune scanned (reach probe plus slice passes).
  std::uint64_t prune_edges_scanned = 0;
  // Streaming ingest pressure (zero for the batch algorithms): arrivals the
  // reorder stage dropped because they lagged the slack watermark, and
  // sliding-graph compaction events (dead-prefix erasures in the per-vertex
  // adjacency lists and the arrival log).
  std::uint64_t late_edges_rejected = 0;
  std::uint64_t graph_compactions = 0;
  // Robustness accounting (zero unless overload protection engages):
  // searches the cooperative budget truncated (their cycle counts are lower
  // bounds) and arrivals the overload ladder shed before ingest.
  std::uint64_t searches_truncated = 0;
  std::uint64_t edges_shed = 0;
  // Degraded searches whose wall budget came from the live p99 hint (the
  // time-series sampler's k×p99) instead of the static degraded_budget floor.
  std::uint64_t adaptive_budget_applications = 0;

  WorkCounters& operator+=(const WorkCounters& other) {
    edges_visited += other.edges_visited;
    vertices_visited += other.vertices_visited;
    cycles_found += other.cycles_found;
    tasks_spawned += other.tasks_spawned;
    state_copies += other.state_copies;
    state_reuses += other.state_reuses;
    unblock_operations += other.unblock_operations;
    prune_edges_scanned += other.prune_edges_scanned;
    late_edges_rejected += other.late_edges_rejected;
    graph_compactions += other.graph_compactions;
    searches_truncated += other.searches_truncated;
    edges_shed += other.edges_shed;
    adaptive_budget_applications += other.adaptive_budget_applications;
    return *this;
  }
};

}  // namespace parcycle
