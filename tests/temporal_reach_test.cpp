// Temporal reachability / cycle-union preprocessing tests.
#include "temporal/cycle_union.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace parcycle {
namespace {

TemporalGraph chain_graph() {
  // 0 -> 1 -> 2 -> 3 -> 0 with ascending timestamps, plus a dead-end branch.
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 20);
  builder.add_edge(2, 3, 30);
  builder.add_edge(3, 0, 40);
  builder.add_edge(2, 4, 25);  // 4 never reaches 0
  builder.add_edge(5, 2, 22);  // 2 not temporally reachable from 1 via 5
  return builder.build_temporal();
}

TEST(TemporalReach, FindsCycleUnion) {
  const TemporalGraph g = chain_graph();
  const TemporalEdge e0 = g.edge(0);  // 0 -> 1 @ 10
  ASSERT_EQ(e0.src, 0u);
  ASSERT_EQ(e0.dst, 1u);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  ASSERT_TRUE(reach.compute(g, e0, /*hi=*/100));
  EXPECT_TRUE(reach.contains(1));
  EXPECT_TRUE(reach.contains(2));
  EXPECT_TRUE(reach.contains(3));
  EXPECT_FALSE(reach.contains(4));  // forward-reachable, never returns
  EXPECT_FALSE(reach.contains(5));  // not forward-reachable at all
}

TEST(TemporalReach, WindowCutsTheCycle) {
  const TemporalGraph g = chain_graph();
  const TemporalEdge e0 = g.edge(0);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  // Window ends before the closing edge (ts 40).
  EXPECT_FALSE(reach.compute(g, e0, /*hi=*/39));
}

TEST(TemporalReach, StrictIncreaseRespected) {
  // 0 -> 1 @ 10, 1 -> 0 @ 10: equal timestamps cannot chain.
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 0, 10);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(2);
  EXPECT_FALSE(reach.compute(g, g.edge(0), 100));
}

TEST(TemporalReach, TwoHopCycle) {
  GraphBuilder builder(2);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 0, 11);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(2);
  ASSERT_TRUE(reach.compute(g, g.edge(0), 100));
  EXPECT_TRUE(reach.contains(1));
}

TEST(TemporalReach, EarliestArrivalIsEarliest) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 20);
  builder.add_edge(1, 2, 30);  // later parallel edge
  builder.add_edge(2, 0, 40);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(3);
  ASSERT_TRUE(reach.compute(g, g.edge(0), 100));
  EXPECT_EQ(reach.earliest_arrival(2), 20);
}

TEST(TemporalReach, ScratchReusableAcrossStarts) {
  const TemporalGraph g = uniform_temporal(20, 100, 500, 5);
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  // Just exercise repeated computes; correctness is covered by the
  // equivalence tests (cycle-union on/off must agree).
  int successes = 0;
  for (const auto& e : g.edges_by_time()) {
    if (e.src != e.dst && reach.compute(g, e, e.ts + 200)) {
      successes += 1;
      EXPECT_TRUE(reach.contains(e.dst) || !reach.contains(e.dst));
    }
  }
  SUCCEED() << successes;
}

// The two slice passes alone, as compute() ran them before the reach probe
// existed: the reference the probe must never disagree with.
struct ReferenceReach {
  static constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();
  static constexpr Timestamp kNegInf = std::numeric_limits<Timestamp>::min();

  std::vector<char> touched;
  std::vector<char> seen;
  std::vector<Timestamp> arrival;
  std::vector<Timestamp> departure;
  std::size_t slice = 0;  // window slice of the last compute()

  bool contains(VertexId v) const {
    return touched[v] && arrival[v] < departure[v];
  }

  bool compute(const TemporalGraph& graph, const TemporalEdge& e0,
               Timestamp hi) {
    const VertexId n = graph.num_vertices();
    touched.assign(n, 0);
    seen.assign(n, 0);
    arrival.assign(n, kNever);
    departure.assign(n, kNegInf);
    const auto edges = graph.edges_by_time();
    const auto first_at = [&](Timestamp t) {
      return static_cast<std::size_t>(
          std::lower_bound(edges.begin(), edges.end(), t,
                           [](const TemporalEdge& e, Timestamp x) {
                             return e.ts < x;
                           }) -
          edges.begin());
    };
    const std::size_t begin = first_at(e0.ts + 1);
    const std::size_t end = first_at(hi + 1);
    slice = end - begin;
    touched[e0.dst] = touched[e0.src] = 1;
    arrival[e0.dst] = e0.ts;
    seen[e0.dst] = 1;
    for (std::size_t i = begin; i < end; ++i) {
      const TemporalEdge& e = edges[i];
      if (seen[e.src] && e.ts > arrival[e.src]) {
        touched[e.dst] = 1;
        if (!seen[e.dst]) {
          seen[e.dst] = 1;
          arrival[e.dst] = e.ts;
        }
      }
    }
    if (!seen[e0.src]) {
      return false;
    }
    departure[e0.src] = kNever;
    for (std::size_t i = end; i-- > begin;) {
      const TemporalEdge& e = edges[i];
      if (touched[e.dst] && departure[e.dst] > e.ts) {
        touched[e.src] = 1;
        departure[e.src] = std::max(departure[e.src], e.ts);
      }
    }
    return contains(e0.dst);
  }
};

// How many starts the probe rejected alone, and how many ran the slice
// passes.
struct ProbeTally {
  int rejected_by_probe = 0;
  int ran_slice_passes = 0;
};

// Runs compute() and the reference on every start. The scanned-edge tally
// tells where compute() stopped: it is probe + k * slice, where the probe's
// share is at most the probe budget, which is always below the slice, and k
// counts the slice passes that ran, so k and the probe's share are its
// quotient and remainder by the slice.
void expect_matches_reference(const TemporalGraph& g, Timestamp window,
                              ProbeTally& tally) {
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  ReferenceReach ref;
  for (const TemporalEdge& e0 : g.edges_by_time()) {
    if (e0.src == e0.dst) {
      continue;
    }
    const Timestamp hi = e0.ts + window;
    const bool expected = ref.compute(g, e0, hi);
    ASSERT_EQ(reach.compute(g, e0, hi), expected) << "start " << e0.id;
    const std::uint64_t scanned = reach.take_edges_scanned();
    if (ref.slice > 0) {
      const std::uint64_t passes = scanned / ref.slice;
      ASSERT_LE(scanned % ref.slice,
                ref.slice >> TemporalReachScratch::kProbeBudgetShift)
          << "start " << e0.id;
      ASSERT_LE(passes, 2u) << "start " << e0.id;
      if (expected) {
        ASSERT_EQ(passes, 2u) << "start " << e0.id;
      }
      if (passes == 0) {
        tally.rejected_by_probe += 1;
      } else {
        tally.ran_slice_passes += 1;
      }
    }
    if (!expected) {
      continue;
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(reach.contains(v), ref.contains(v))
          << "start " << e0.id << ", vertex " << v;
      ASSERT_EQ(reach.reached_forward(v), static_cast<bool>(ref.seen[v]))
          << "start " << e0.id << ", vertex " << v;
      if (ref.touched[v]) {
        ASSERT_EQ(reach.earliest_arrival(v), ref.arrival[v])
            << "start " << e0.id << ", vertex " << v;
        ASSERT_EQ(reach.latest_departure(v), ref.departure[v])
            << "start " << e0.id << ", vertex " << v;
      }
    }
  }
}

TEST(TemporalReach, MatchesTwoPassReferenceOnSparseGraphs) {
  // Payment-network-like: many accounts, few transfers each, so most
  // starts have a small time-respecting closure.
  for (const std::uint64_t seed : {1, 2, 3}) {
    ScaleFreeTemporalParams params;
    params.num_vertices = 2000;
    params.num_edges = 12000;
    params.time_span = 1000000;
    params.attachment = 0.75;
    params.burstiness = 0.6;
    params.seed = seed;
    const TemporalGraph g = scale_free_temporal(params);
    ProbeTally tally;
    expect_matches_reference(g, 60000, tally);
    EXPECT_GT(tally.rejected_by_probe, 0) << "seed " << seed;
  }
}

TEST(TemporalReach, MatchesTwoPassReferenceOnDenseGraphs) {
  for (const std::uint64_t seed : {1, 2}) {
    ScaleFreeTemporalParams params;
    params.num_vertices = 400;
    params.num_edges = 6000;
    params.time_span = 100000;
    params.attachment = 0.3;
    params.burstiness = 0.6;
    params.burst_width = 0.03;
    params.seed = seed;
    const TemporalGraph g = scale_free_temporal(params);
    ProbeTally tally;
    expect_matches_reference(g, 19000, tally);
    EXPECT_GT(tally.ran_slice_passes, 0) << "seed " << seed;
  }
}

// Start 0 -> 1 @ 10 plus 300 filler edges between vertices 3 and 4 inside
// the window, so the probe budget is (slice >> 7) = 2 edges.
GraphBuilder probe_case_builder() {
  GraphBuilder builder(8);
  builder.add_edge(0, 1, 10);
  for (Timestamp t = 0; t < 300; ++t) {
    builder.add_edge(3, 4, 100 + t);
  }
  return builder;
}

TEST(TemporalReach, ProbeExhaustsSmallClosure) {
  GraphBuilder builder = probe_case_builder();
  builder.add_edge(1, 2, 20);  // dead end
  builder.add_edge(4, 0, 50);  // the tail has an in-edge, unreachable
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  EXPECT_FALSE(reach.compute(g, g.edge(0), 1000));
  EXPECT_EQ(reach.take_edges_scanned(), 1u);  // no slice pass ran
}

TEST(TemporalReach, ProbeStopsAtTheTail) {
  GraphBuilder builder = probe_case_builder();
  builder.add_edge(1, 0, 20);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  EXPECT_TRUE(reach.compute(g, g.edge(0), 1000));
  EXPECT_TRUE(reach.contains(1));
  // One probe edge, below the budget of 2, then both slice passes.
  const std::uint64_t slice = g.num_edges() - 1;
  EXPECT_EQ(reach.take_edges_scanned(), 1 + 2 * slice);
}

TEST(TemporalReach, ProbeBudgetRunsOutIntoSlicePasses) {
  GraphBuilder builder = probe_case_builder();
  builder.add_edge(1, 2, 20);  // a chain longer than the budget that never
  builder.add_edge(2, 5, 30);  // returns to the tail
  builder.add_edge(5, 6, 40);
  builder.add_edge(6, 7, 50);
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  EXPECT_FALSE(reach.compute(g, g.edge(0), 1000));  // the passes decide
  // The whole budget, then the forward pass, which misses the tail.
  const std::uint64_t slice = g.num_edges() - 1;
  EXPECT_EQ(reach.take_edges_scanned(), (slice >> 7) + slice);
}

TEST(TemporalReach, ProbeRescansAVertexWhoseArrivalImproves) {
  // FIFO order reaches 2 first at 50, then at 20 via 3 and 4; only the
  // improved arrival can take 2 -> 0 @ 30 back to the tail.
  GraphBuilder builder(8);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 3, 15);
  builder.add_edge(1, 2, 50);
  builder.add_edge(3, 4, 16);
  builder.add_edge(4, 2, 20);
  builder.add_edge(2, 0, 30);
  for (Timestamp t = 0; t < 1000; ++t) {
    builder.add_edge(5, 6, 100 + t);  // budget (slice >> 7) = 7 edges
  }
  const TemporalGraph g = builder.build_temporal();
  TemporalReachScratch reach;
  reach.init(g.num_vertices());
  EXPECT_TRUE(reach.compute(g, g.edge(0), 2000));
  EXPECT_TRUE(reach.contains(2));
  // Five probe edges reach the tail, short of the budget of 7.
  const std::uint64_t slice = g.num_edges() - 1;
  EXPECT_EQ(reach.take_edges_scanned(), 5 + 2 * slice);
}

}  // namespace
}  // namespace parcycle
