// Parallel behaviour of the streaming subsystem: thread sweeps must leave
// cycle counts AND work counts untouched (the per-edge search carries no
// shared blocking state, so unlike the batch fine-grained algorithms its
// edge-visit totals are schedule-independent), escalated and serial per-edge
// searches must agree edge-for-edge, and repeated runs must be stable (the
// TSan CI job reruns this suite).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest_sink.hpp"
#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "stream/incremental.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/scheduler.hpp"
#include "temporal/temporal_johnson.hpp"

namespace parcycle {
namespace {

TemporalGraph test_graph() {
  ScaleFreeTemporalParams params;
  params.num_vertices = 80;
  params.num_edges = 600;
  params.time_span = 2500;
  params.attachment = 0.8;
  params.burstiness = 0.6;
  params.seed = 1234;
  return scale_free_temporal(params);
}

constexpr Timestamp kWindow = 170;

StreamStats replay(const TemporalGraph& graph, unsigned threads,
                   std::size_t hot_threshold, SpawnPolicy policy) {
  return Scheduler::with_pool(threads, [&](Scheduler& sched) {
    StreamOptions options;
    options.window = kWindow;
    options.batch_size = 64;
    options.hot_frontier_threshold = hot_threshold;
    options.spawn_policy = policy;
    StreamEngine engine(options, sched, nullptr);
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
    }
    engine.flush();
    return engine.stats();
  });
}

TEST(StreamParallel, ThreadSweepIsDeterministic) {
  const TemporalGraph graph = test_graph();
  const StreamStats reference = replay(graph, 1, 8, SpawnPolicy::kAdaptive);
  ASSERT_GT(reference.cycles_found, 0u);
  for (const unsigned threads : {2u, 4u}) {
    for (const SpawnPolicy policy :
         {SpawnPolicy::kAdaptive, SpawnPolicy::kAlways}) {
      SCOPED_TRACE(threads);
      const StreamStats run = replay(graph, threads, 8, policy);
      EXPECT_EQ(run.cycles_found, reference.cycles_found);
      EXPECT_EQ(run.work.cycles_found, reference.work.cycles_found);
      EXPECT_EQ(run.work.edges_visited, reference.work.edges_visited);
      EXPECT_EQ(run.work.vertices_visited, reference.work.vertices_visited);
      EXPECT_EQ(run.escalated_edges, reference.escalated_edges);
    }
  }
}

// The batch fan-out splits each batch lazily into ranges that idle workers
// steal; hot edges nest their fine searches inside those ranges. Neither the
// batch size, the worker count nor escalation may change which cycles are
// found or how much search work that takes.
TEST(StreamParallel, BatchFanOutSweepMatchesOneWorker) {
  ScaleFreeTemporalParams params;
  params.num_vertices = 150;
  params.num_edges = 5000;
  params.time_span = 20000;
  params.attachment = 0.8;
  params.burstiness = 0.6;
  params.seed = 77;
  const TemporalGraph graph = scale_free_temporal(params);
  // Long enough that some edges cross the default escalation threshold.
  constexpr Timestamp kSweepWindow = 3000;
  const auto run = [&](unsigned threads, std::size_t batch_size,
                       std::size_t hot_threshold, DigestSink& sink) {
    return Scheduler::with_pool(threads, [&](Scheduler& sched) {
      StreamOptions options;
      options.window = kSweepWindow;
      options.batch_size = batch_size;
      options.hot_frontier_threshold = hot_threshold;
      StreamEngine engine(options, sched, &sink);
      for (const auto& e : graph.edges_by_time()) {
        engine.push(e.src, e.dst, e.ts);
      }
      engine.flush();
      return engine.stats();
    });
  };
  const std::size_t default_hot = StreamOptions{}.hot_frontier_threshold;
  DigestSink reference_sink;
  const StreamStats reference = run(1, 1, default_hot, reference_sink);
  ASSERT_GT(reference.cycles_found, 0u);
  ASSERT_EQ(reference_sink.digest().cycles, reference.cycles_found);
  for (const std::size_t batch_size : {1u, 7u, 256u, 4096u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const std::size_t hot_threshold : {std::size_t{0}, default_hot}) {
        const std::string where =
            "batch " + std::to_string(batch_size) + ", " +
            std::to_string(threads) + " threads, hot threshold " +
            std::to_string(hot_threshold);
        DigestSink sink;
        const StreamStats stats = run(threads, batch_size, hot_threshold, sink);
        EXPECT_EQ(stats.search_errors, 0u) << where;
        EXPECT_EQ(stats.cycles_found, reference.cycles_found) << where;
        EXPECT_EQ(stats.work.edges_visited, reference.work.edges_visited)
            << where;
        EXPECT_TRUE(sink.digest() == reference_sink.digest()) << where;
        EXPECT_GT(stats.escalated_edges, 0u) << where;
      }
    }
  }
}

TEST(StreamParallel, EscalationThresholdOnlyMovesWork) {
  const TemporalGraph graph = test_graph();
  const StreamStats serial_only =
      replay(graph, 4, static_cast<std::size_t>(-1), SpawnPolicy::kAdaptive);
  const StreamStats all_fine = replay(graph, 4, 0, SpawnPolicy::kAlways);
  const StreamStats mixed = replay(graph, 4, 6, SpawnPolicy::kAdaptive);
  EXPECT_EQ(serial_only.escalated_edges, 0u);
  EXPECT_GT(all_fine.escalated_edges, 0u);
  EXPECT_EQ(serial_only.cycles_found, all_fine.cycles_found);
  EXPECT_EQ(serial_only.cycles_found, mixed.cycles_found);
  EXPECT_EQ(serial_only.work.edges_visited, all_fine.work.edges_visited);
  EXPECT_EQ(serial_only.work.edges_visited, mixed.work.edges_visited);
}

TEST(StreamParallel, FineSearchMatchesSerialPerEdge) {
  const TemporalGraph graph = test_graph();
  Scheduler::with_pool(4, [&](Scheduler& sched) {
    SlidingWindowGraph live(graph.num_vertices());
    StreamSearchScratch serial_scratch;
    StreamSearchScratch fine_scratch;
    for (const auto& e : graph.edges_by_time()) {
      live.ingest(e.src, e.dst, e.ts);
      WorkCounters serial_work;
      WorkCounters fine_work;
      const std::uint64_t serial = cycles_closed_by_edge(
          live, e, kWindow, {}, serial_scratch, serial_work);
      const std::uint64_t fine = fine_cycles_closed_by_edge(
          live, e, kWindow, sched, {}, {}, fine_scratch, fine_work);
      ASSERT_EQ(serial, fine) << "edge " << e.id;
      ASSERT_EQ(serial_work.cycles_found, fine_work.cycles_found);
      ASSERT_EQ(serial_work.edges_visited, fine_work.edges_visited);
    }
  });
}

TEST(StreamParallel, ReplayTotalsMatchBatchEnumerator) {
  const TemporalGraph graph = test_graph();
  const EnumResult batch = temporal_johnson_cycles(graph, kWindow);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    const StreamStats run = replay(graph, threads, 12, SpawnPolicy::kAdaptive);
    EXPECT_EQ(run.cycles_found, batch.num_cycles);
  }
}

TEST(StreamParallel, BackpressureBoundsPendingBuffer) {
  // The engine drains synchronously at batch_size: after any push, the
  // sliding graph has absorbed every edge except at most one partial batch.
  const TemporalGraph graph = test_graph();
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamOptions options;
    options.window = kWindow;
    options.batch_size = 32;
    StreamEngine engine(options, sched, nullptr);
    std::uint64_t pushed = 0;
    for (const auto& e : graph.edges_by_time()) {
      engine.push(e.src, e.dst, e.ts);
      pushed += 1;
      const std::uint64_t buffered = pushed - engine.graph().total_ingested();
      EXPECT_LT(buffered, options.batch_size);
    }
    engine.flush();
    EXPECT_EQ(engine.graph().total_ingested(), pushed);
  });
}

TEST(StreamParallel, EngineRejectsOutOfOrderPush) {
  Scheduler::with_pool(1, [](Scheduler& sched) {
    StreamOptions options;
    options.window = 10;
    StreamEngine engine(options, sched, nullptr);
    engine.push(0, 1, 100);
    EXPECT_THROW(engine.push(1, 0, 99), std::invalid_argument);
    EXPECT_NO_THROW(engine.push(1, 0, 100));
    engine.flush();
  });
}

}  // namespace
}  // namespace parcycle
