// Internal search core for temporal cycle enumeration in the Johnson family:
// time-respecting DFS with 2SCENT closing times and path bundles (paper
// Section 7). Shared by the serial driver, the coarse-grained driver and the
// 2SCENT baseline; the fine-grained driver reimplements the recursion with
// task spawning but reuses the same state and helpers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/options.hpp"
#include "graph/temporal_graph.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_state.hpp"

namespace parcycle::detail {

class TemporalJohnsonSearch {
 public:
  TemporalJohnsonSearch(const TemporalGraph& graph, Timestamp window,
                        const EnumOptions& options, CycleSink* sink)
      : graph_(graph), window_(window), options_(options), sink_(sink) {}

  // Runs the full search rooted at starting edge e0. Counters accumulate in
  // state.counters; returns the number of temporal cycle instances.
  std::uint64_t search_from(const TemporalEdge& e0, ClosingTimeState& state,
                            TemporalReachScratch* reach);

  // Shared helpers ------------------------------------------------------------

  // Adjacency prefilter, then the cycle-union prune when `reach` is given:
  // false if no temporal cycle through e0 ends by `hi`. Adds the prune's
  // scanned edges to `counters`.
  static bool root_passes(const TemporalGraph& graph, const TemporalEdge& e0,
                          Timestamp hi, TemporalReachScratch* reach,
                          WorkCounters& counters);

  // Pushes the root hops [tail, head] onto a reset state, the head's bundle
  // being {e0}.
  static void push_root(ClosingTimeState& state, const TemporalEdge& e0);

  // Expands and reports every instance of the current path closed by
  // `closing`, in lockstep with the DP count. Thread-safe given a
  // thread-safe sink (reads only the caller's state).
  static void report_instances(const ClosingTimeState& state, VertexId tail,
                               const BundleEdge& closing, CycleSink* sink);

 private:
  bool explore(ClosingTimeState& st, std::int32_t rem);

  const TemporalGraph& graph_;
  Timestamp window_;
  const EnumOptions& options_;
  CycleSink* sink_;
  VertexId tail_ = kInvalidVertex;
  Timestamp hi_ = 0;
  const TemporalReachScratch* reach_ = nullptr;
  std::uint64_t instances_found_ = 0;
};

// Number of path instances arriving strictly before `ts` (prefix sum over the
// hop's bundle edges, which are ascending by ts).
inline std::uint64_t instances_before(const ClosingTimeState::Hop& hop,
                                      Timestamp ts) {
  std::uint64_t total = 0;
  for (const auto& edge : hop.edges) {
    if (edge.ts >= ts) {
      break;
    }
    total += edge.instances;
  }
  return total;
}

}  // namespace parcycle::detail
