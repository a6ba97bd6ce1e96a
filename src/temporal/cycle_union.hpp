// Temporal cycle-union preprocessing (Section 7 of the paper).
//
// For a starting edge e0 = (tail -> head, t0) and window [t0, t0 + delta],
// the cycle-union is the set of vertices that can lie on a temporal cycle
// through e0: vertices v whose earliest strictly-time-increasing arrival from
// `head` (departing after t0) precedes the latest departure from v that still
// reaches `tail` by the end of the window.
//
// compute() works in two stages:
//
//  * A bounded reach probe: a FIFO label-correcting search over the head's
//    time-respecting out-adjacency that stops as soon as an edge reaches the
//    tail. When it exhausts the head's closure first, the tail is provably
//    unreachable and the start is rejected after touching only that closure.
//    Its edge budget is a fixed 1/128 of the window's slice, so a start that
//    does pass scans at most that many edges more than the slice passes.
//  * The two slice passes, run only when the probe hit the tail or ran out
//    of budget: single scans over the window's slice of the global
//    time-ordered edge array (ascending for earliest arrival, descending for
//    latest departure) — the linear-time, embarrassingly parallel
//    replacement for 2SCENT's sequential preprocessing that the paper
//    contributes.
//
// The probe explores exactly the relation the forward pass does, so the
// answer and every per-vertex value a passing start leaves behind are those
// of the two passes alone. Most starts of a sparse payment graph have a tiny
// closure and are rejected by the probe; a passing start costs
// O(edges in window).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/temporal_graph.hpp"
#include "graph/types.hpp"

namespace parcycle {

class TemporalReachScratch {
 public:
  // The probe may scan at most (slice edges >> kProbeBudgetShift) edges.
  // The budget protects graphs where most starts pass: on one 20k-edge
  // draw of the dense analog (window 19,000, 13,843 starts passing) the
  // serial prune ran at 0.64-0.75x the speed of the slice passes alone with
  // an unbounded probe, 0.79-0.80x at 1/8, 0.84-0.93x at 1/32 and
  // 0.91-0.97x at 1/128 (4-vCPU Xeon, GCC 12 -O2, three runs).
  static constexpr unsigned kProbeBudgetShift = 7;

  void init(VertexId n);

  // Computes the cycle-union for the given starting edge and window end
  // `hi` (inclusive). Returns false when no temporal cycle through e0 can
  // exist (tail unreachable in time).
  bool compute(const TemporalGraph& graph, const TemporalEdge& e0,
               Timestamp hi);

  // May vertex v lie on a temporal cycle of this start? (Valid after a
  // successful compute; tail and head are always allowed.)
  bool contains(VertexId v) const noexcept {
    return stamp_[v] == epoch_ && earliest_arrival_[v] < latest_departure_[v];
  }

  // Earliest strictly-increasing arrival at v from the head (valid when
  // stamped); used by tests.
  Timestamp earliest_arrival(VertexId v) const noexcept {
    return earliest_arrival_[v];
  }
  Timestamp latest_departure(VertexId v) const noexcept {
    return latest_departure_[v];
  }
  bool reached_forward(VertexId v) const noexcept {
    return stamp_[v] == epoch_ && fwd_seen_[v];
  }

  // Edges scanned (probe plus slice passes) since the last call; resets the
  // tally. The drivers fold it into WorkCounters::prune_edges_scanned.
  std::uint64_t take_edges_scanned() noexcept {
    const std::uint64_t scanned = edges_scanned_;
    edges_scanned_ = 0;
    return scanned;
  }

 private:
  void next_epoch();
  void touch(VertexId v);
  // True unless the head's time-respecting closure within [t0 + 1, hi] was
  // exhausted without reaching the tail in at most `budget` edges.
  bool probe(const TemporalGraph& graph, const TemporalEdge& e0, Timestamp hi,
             std::size_t budget);

  std::vector<std::uint32_t> stamp_;
  std::vector<Timestamp> earliest_arrival_;
  std::vector<Timestamp> latest_departure_;
  // Forward pass: reached from the head. Probe: currently queued.
  std::vector<char> fwd_seen_;
  std::vector<VertexId> queue_;
  std::uint32_t epoch_ = 0;
  std::uint64_t edges_scanned_ = 0;
};

}  // namespace parcycle
