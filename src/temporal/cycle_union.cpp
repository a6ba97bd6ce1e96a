#include "temporal/cycle_union.hpp"

#include <algorithm>
#include <limits>

namespace parcycle {

namespace {

constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();
constexpr Timestamp kNegInf = std::numeric_limits<Timestamp>::min();

// Index of the first edge with ts >= bound in the global time order.
std::size_t lower_bound_index(std::span<const TemporalEdge> edges,
                              Timestamp bound) {
  return static_cast<std::size_t>(
      std::lower_bound(edges.begin(), edges.end(), bound,
                       [](const TemporalEdge& e, Timestamp t) {
                         return e.ts < t;
                       }) -
      edges.begin());
}

}  // namespace

void TemporalReachScratch::init(VertexId n) {
  stamp_.assign(n, 0);
  earliest_arrival_.assign(n, kNever);
  latest_departure_.assign(n, kNegInf);
  fwd_seen_.assign(n, 0);
  epoch_ = 0;
}

void TemporalReachScratch::next_epoch() {
  epoch_ += 1;
  if (epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

void TemporalReachScratch::touch(VertexId v) {
  if (stamp_[v] != epoch_) {
    stamp_[v] = epoch_;
    earliest_arrival_[v] = kNever;
    latest_departure_[v] = kNegInf;
    fwd_seen_[v] = 0;
  }
}

bool TemporalReachScratch::probe(const TemporalGraph& graph,
                                 const TemporalEdge& e0, Timestamp hi,
                                 std::size_t budget) {
  const VertexId head = e0.dst;
  const VertexId tail = e0.src;
  if (head == tail) {
    return true;
  }
  next_epoch();
  // Label-correcting search: earliest_arrival_ holds the best arrival found
  // so far, fwd_seen_ marks queued vertices. A vertex whose arrival improves
  // is queued again and rescans its (now longer) window suffix.
  touch(head);
  earliest_arrival_[head] = e0.ts;
  fwd_seen_[head] = 1;
  queue_.clear();
  queue_.push_back(head);
  std::size_t scanned = 0;
  for (std::size_t next = 0; next < queue_.size(); ++next) {
    const VertexId v = queue_[next];
    fwd_seen_[v] = 0;
    for (const auto& e :
         graph.out_edges_in_window(v, earliest_arrival_[v] + 1, hi)) {
      if (scanned == budget) {
        edges_scanned_ += scanned;
        return true;
      }
      scanned += 1;
      if (e.dst == tail) {
        edges_scanned_ += scanned;
        return true;
      }
      touch(e.dst);
      if (e.ts < earliest_arrival_[e.dst]) {
        earliest_arrival_[e.dst] = e.ts;
        if (!fwd_seen_[e.dst]) {
          fwd_seen_[e.dst] = 1;
          queue_.push_back(e.dst);
        }
      }
    }
  }
  edges_scanned_ += scanned;
  return false;
}

bool TemporalReachScratch::compute(const TemporalGraph& graph,
                                   const TemporalEdge& e0, Timestamp hi) {
  const auto edges = graph.edges_by_time();
  // The searchable slice: strictly after t0 (time-increasing cycles), within
  // the window.
  const std::size_t begin = lower_bound_index(edges, e0.ts + 1);
  const std::size_t end = lower_bound_index(edges, hi + 1);
  if (!probe(graph, e0, hi, (end - begin) >> kProbeBudgetShift)) {
    return false;  // the head's closure misses the tail: no cycle
  }
  next_epoch();
  edges_scanned_ += end - begin;

  const VertexId head = e0.dst;
  const VertexId tail = e0.src;
  touch(head);
  touch(tail);
  // Arriving at the head via e0 at t0: the next hop must be > t0.
  earliest_arrival_[head] = e0.ts;
  fwd_seen_[head] = 1;

  // Forward pass (ascending time): earliest strictly-increasing arrival.
  for (std::size_t i = begin; i < end; ++i) {
    const TemporalEdge& e = edges[i];
    if (stamp_[e.src] == epoch_ && fwd_seen_[e.src] &&
        e.ts > earliest_arrival_[e.src]) {
      touch(e.dst);
      if (!fwd_seen_[e.dst]) {
        fwd_seen_[e.dst] = 1;
        earliest_arrival_[e.dst] = e.ts;  // first hit is earliest: ascending
      }
    }
  }
  if (!(stamp_[tail] == epoch_ && fwd_seen_[tail])) {
    return false;  // the tail is not temporally reachable: no cycle
  }

  // Backward pass (descending time): latest departure that still reaches the
  // tail. An edge u -> tail is itself a valid departure at its timestamp.
  edges_scanned_ += end - begin;
  latest_departure_[tail] = kNever;  // closing the cycle needs no further hop
  for (std::size_t i = end; i-- > begin;) {
    const TemporalEdge& e = edges[i];
    if (stamp_[e.dst] == epoch_ && latest_departure_[e.dst] > e.ts) {
      // Only vertices that the forward pass reached matter; still record the
      // departure so intermediate hops chain, but restrict via contains().
      touch(e.src);
      if (latest_departure_[e.src] < e.ts) {
        latest_departure_[e.src] = e.ts;  // first hit is latest: descending
      }
    }
  }
  // The head's own arrival is t0; contains(head) holds iff some departure
  // > t0 exists, which is exactly the condition for any cycle.
  return stamp_[head] == epoch_ && earliest_arrival_[head] < latest_departure_[head];
}

}  // namespace parcycle
