// Parallel temporal enumeration: coarse and fine variants versus the serial
// algorithms, across thread counts, spawn policies and restore modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "support/prng.hpp"
#include "temporal/brute.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_read_tarjan.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph(std::uint64_t seed) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 30;
  params.num_edges = 250;
  params.time_span = 1000;
  params.attachment = 0.6;
  params.seed = seed;
  return scale_free_temporal(params);
}

class TemporalParallelTest
    : public ::testing::TestWithParam<std::tuple<unsigned, int, bool>> {
 protected:
  ParallelOptions parallel_options() const {
    const auto [threads, policy, naive] = GetParam();
    ParallelOptions popts;
    popts.spawn_policy =
        policy == 0 ? SpawnPolicy::kAlways : SpawnPolicy::kAdaptive;
    popts.naive_state_restore = naive;
    return popts;
  }
  unsigned threads() const { return std::get<0>(GetParam()); }
};

TEST_P(TemporalParallelTest, FineJohnsonMatchesBruteForce) {
  const TemporalGraph g = test_graph(101);
  const Timestamp window = 400;
  CollectingSink oracle_sink;
  const auto oracle = brute_temporal_cycles(g, window, {}, &oracle_sink);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_temporal_johnson_cycles(g, window, sched, {},
                                                 parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, oracle.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), oracle_sink.sorted_cycles());
}

TEST_P(TemporalParallelTest, FineReadTarjanMatchesBruteForce) {
  const TemporalGraph g = test_graph(103);
  const Timestamp window = 400;
  CollectingSink oracle_sink;
  const auto oracle = brute_temporal_cycles(g, window, {}, &oracle_sink);

  Scheduler sched(threads());
  CollectingSink sink;
  const auto fine = fine_temporal_read_tarjan_cycles(
      g, window, sched, {}, parallel_options(), &sink);
  EXPECT_EQ(fine.num_cycles, oracle.num_cycles);
  EXPECT_EQ(sink.sorted_cycles(), oracle_sink.sorted_cycles());
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, TemporalParallelTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(0, 1),
                       ::testing::Values(false, true)));

class TemporalCoarseTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TemporalCoarseTest, CoarseVariantsMatchSerial) {
  const unsigned threads = GetParam();
  const TemporalGraph g = test_graph(107);
  const Timestamp window = 350;
  const auto serial = temporal_johnson_cycles(g, window);

  Scheduler sched(threads);
  const auto cj = coarse_temporal_johnson_cycles(g, window, sched);
  const auto cr = coarse_temporal_read_tarjan_cycles(g, window, sched);
  EXPECT_EQ(cj.num_cycles, serial.num_cycles);
  EXPECT_EQ(cr.num_cycles, serial.num_cycles);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TemporalCoarseTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(TemporalParallel, StealStressAcrossSeeds) {
  SplitMix64 seeds(0x600d);
  for (int trial = 0; trial < 4; ++trial) {
    const TemporalGraph g = test_graph(seeds.next());
    const auto oracle = brute_temporal_cycles(g, 300);
    Scheduler sched(8);
    ParallelOptions popts;
    popts.spawn_policy = SpawnPolicy::kAlways;
    const auto fj = fine_temporal_johnson_cycles(g, 300, sched, {}, popts);
    const auto fr = fine_temporal_read_tarjan_cycles(g, 300, sched, {}, popts);
    ASSERT_EQ(fj.num_cycles, oracle.num_cycles) << "trial " << trial;
    ASSERT_EQ(fr.num_cycles, oracle.num_cycles) << "trial " << trial;
  }
}

TEST(TemporalParallel, BundlingOnOffAgreeInParallel) {
  const TemporalGraph g = test_graph(113);
  Scheduler sched(4);
  EnumOptions bundled;
  bundled.path_bundling = true;
  EnumOptions unbundled;
  unbundled.path_bundling = false;
  const auto a = fine_temporal_johnson_cycles(g, 300, sched, bundled);
  const auto b = fine_temporal_johnson_cycles(g, 300, sched, unbundled);
  EXPECT_EQ(a.num_cycles, b.num_cycles);
}

TEST(TemporalParallel, FineReadTarjanIsWorkEfficient) {
  const TemporalGraph g = test_graph(117);
  const auto serial = temporal_read_tarjan_cycles(g, 300);
  Scheduler sched(4);
  ParallelOptions popts;
  popts.spawn_policy = SpawnPolicy::kAlways;
  const auto fine = fine_temporal_read_tarjan_cycles(g, 300, sched, {}, popts);
  EXPECT_EQ(fine.num_cycles, serial.num_cycles);
  EXPECT_EQ(fine.work.edges_visited, serial.work.edges_visited);
}

TEST(TemporalParallel, WindowSweep) {
  const TemporalGraph g = test_graph(119);
  Scheduler sched(4);
  for (const Timestamp window : {0, 100, 250, 500}) {
    const auto serial = temporal_johnson_cycles(g, window);
    const auto fj = fine_temporal_johnson_cycles(g, window, sched);
    const auto fr = fine_temporal_read_tarjan_cycles(g, window, sched);
    EXPECT_EQ(fj.num_cycles, serial.num_cycles) << "window " << window;
    EXPECT_EQ(fr.num_cycles, serial.num_cycles) << "window " << window;
  }
}

// Every driver runs the cycle-union prune once per start that can hold a
// cycle longer than a self-loop, so its scanned edge count is the same
// serial, coarse and fine, at any thread count and length bound; and it is
// kept apart from the DFS work metric.
TEST(TemporalParallel, PruneEdgesScannedAgreeAcrossDrivers) {
  const TemporalGraph g = test_graph(131);
  const Timestamp window = 300;
  EnumOptions no_prune;
  no_prune.use_cycle_union = false;
  EXPECT_EQ(temporal_johnson_cycles(g, window, no_prune)
                .work.prune_edges_scanned,
            0u);
  for (const std::int32_t max_len : {0, 1, 4}) {
    EnumOptions options;
    options.max_cycle_length = max_len;
    const auto serial = temporal_johnson_cycles(g, window, options);
    const std::uint64_t scanned = serial.work.prune_edges_scanned;
    if (max_len == 1) {
      EXPECT_EQ(scanned, 0u);  // only self-loops: nothing to prune
    } else {
      ASSERT_GT(scanned, 0u) << "max length " << max_len;
    }
    EXPECT_EQ(temporal_read_tarjan_cycles(g, window, options)
                  .work.prune_edges_scanned,
              scanned)
        << "max length " << max_len;
    for (const unsigned threads : {1u, 4u}) {
      Scheduler sched(threads);
      EXPECT_EQ(fine_temporal_johnson_cycles(g, window, sched, options)
                    .work.prune_edges_scanned,
                scanned)
          << "max length " << max_len << ", " << threads << " threads";
      EXPECT_EQ(fine_temporal_read_tarjan_cycles(g, window, sched, options)
                    .work.prune_edges_scanned,
                scanned)
          << "max length " << max_len << ", " << threads << " threads";
      EXPECT_EQ(coarse_temporal_johnson_cycles(g, window, sched, options)
                    .work.prune_edges_scanned,
                scanned)
          << "max length " << max_len << ", " << threads << " threads";
      EXPECT_EQ(coarse_temporal_read_tarjan_cycles(g, window, sched, options)
                    .work.prune_edges_scanned,
                scanned)
          << "max length " << max_len << ", " << threads << " threads";
    }
  }
}

// Cycle count plus a sum of per-cycle hashes of the edge ids. Both sums are
// commutative, so the digest depends neither on the order cycles arrive in
// nor on the rotation a cycle is reported in; unlike collecting and sorting
// every cycle it allocates nothing per cycle.
class DigestSink final : public CycleSink {
 public:
  struct Digest {
    std::uint64_t cycles = 0;
    std::uint64_t checksum = 0;
    bool operator==(const Digest&) const = default;
  };

  void on_cycle(std::span<const VertexId>,
                std::span<const EdgeId> edges) override {
    std::uint64_t hash = edges.size();
    for (const EdgeId e : edges) {
      hash += SplitMix64(e).next();
    }
    cycles_.fetch_add(1, std::memory_order_relaxed);
    checksum_.fetch_add(SplitMix64(hash).next(), std::memory_order_relaxed);
  }

  // Call once the enumeration has returned.
  Digest digest() const {
    return {cycles_.load(std::memory_order_relaxed),
            checksum_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> checksum_{0};
};

// Dense graph, long window, no cycle-union prune: the closing-time protocol
// alone decides what the search skips. On this family the fine driver once
// raised a parent past departures the child's filter had dropped, and settled
// spawned branches only after a failure, which lost a few cycles per graph
// even at one thread and with nothing spawned.
// One seed per test, so each can run as its own ctest entry.
class FineJohnsonDenseLongWindow
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FineJohnsonDenseLongWindow, ExactAtEverySetting) {
  const std::uint64_t seed = GetParam();
  const Timestamp window = 20000;
  EnumOptions options;
  options.use_cycle_union = false;
  struct Config {
    unsigned threads;
    SpawnPolicy policy;
    bool naive;
    std::int64_t queue_threshold;
  };
  std::vector<Config> configs;
  for (const unsigned threads : {1u, 4u}) {
    for (const SpawnPolicy policy :
         {SpawnPolicy::kAlways, SpawnPolicy::kAdaptive}) {
      for (const bool naive : {false, true}) {
        configs.push_back({threads, policy, naive, 8});
      }
    }
    configs.push_back({threads, SpawnPolicy::kAdaptive, false, 0});
  }
  ScaleFreeTemporalParams params;
  params.num_vertices = 100;
  params.num_edges = 4000;
  params.time_span = 100000;
  params.attachment = 0.6;
  params.burstiness = 0.6;
  params.seed = seed;
  const TemporalGraph g = scale_free_temporal(params);
  DigestSink oracle_sink;
  const auto oracle = temporal_johnson_cycles(g, window, options, &oracle_sink);
  const DigestSink::Digest expected = oracle_sink.digest();
  ASSERT_EQ(expected.cycles, oracle.num_cycles);
  const auto rt = temporal_read_tarjan_cycles(g, window, options);
  ASSERT_EQ(rt.num_cycles, oracle.num_cycles);
  for (const Config& config : configs) {
    ParallelOptions popts;
    popts.spawn_policy = config.policy;
    popts.naive_state_restore = config.naive;
    popts.spawn_queue_threshold = config.queue_threshold;
    DigestSink sink;
    const auto fine = Scheduler::with_pool(config.threads, [&](Scheduler& s) {
      return fine_temporal_johnson_cycles(g, window, s, options, popts, &sink);
    });
    const std::string where =
        std::to_string(config.threads) + " threads, policy " +
        std::to_string(static_cast<int>(config.policy)) + ", naive " +
        std::to_string(config.naive) + ", threshold " +
        std::to_string(config.queue_threshold);
    EXPECT_EQ(fine.num_cycles, oracle.num_cycles) << where;
    EXPECT_TRUE(sink.digest() == expected) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FineJohnsonDenseLongWindow,
    ::testing::Values(std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{4},
                      std::uint64_t{6}, std::uint64_t{8}, std::uint64_t{10}),
    [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
      return "seed" + std::to_string(param_info.param);
    });

}  // namespace
}  // namespace parcycle
