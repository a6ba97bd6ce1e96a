// Log2Histogram percentile math (the semantics StreamStats latency
// percentiles have always used — pinned here so a "cleanup" can't silently
// shift every latency baseline) and the MetricsRegistry surface: naming,
// set-semantics re-import, Prometheus rendering, and exact agreement with
// the source structs it imports.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/histogram.hpp"
#include "stream/engine.hpp"
#include "support/scheduler.hpp"

namespace parcycle {
namespace {

TEST(Log2Histogram, BucketIndexAndBoundsAreExact) {
  // Bucket b holds values needing exactly b bits: [2^(b-1), 2^b - 1].
  EXPECT_EQ(Log2Histogram::bucket_index(0), 0);
  EXPECT_EQ(Log2Histogram::bucket_index(1), 1);
  EXPECT_EQ(Log2Histogram::bucket_index(2), 2);
  EXPECT_EQ(Log2Histogram::bucket_index(3), 2);
  EXPECT_EQ(Log2Histogram::bucket_index(4), 3);
  EXPECT_EQ(Log2Histogram::bucket_index(7), 3);
  EXPECT_EQ(Log2Histogram::bucket_index(8), 4);
  EXPECT_EQ(Log2Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Log2Histogram::bucket_index(1024), 11);
  // The top bucket absorbs the >= 2^63 tail.
  EXPECT_EQ(Log2Histogram::bucket_index(std::numeric_limits<std::uint64_t>::max()),
            Log2Histogram::kBuckets - 1);

  EXPECT_EQ(Log2Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Log2Histogram::bucket_upper_bound(10), 1023u);
}

TEST(Log2Histogram, EmptyHistogramReportsZero) {
  const Log2Histogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile(0.0), 0u);
  EXPECT_EQ(hist.percentile(0.5), 0u);
  EXPECT_EQ(hist.percentile(0.99), 0u);
}

TEST(Log2Histogram, SingleSamplePercentiles) {
  Log2Histogram hist;
  hist.record(5);  // bucket 3, upper bound 7
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.sum, 5u);
  EXPECT_EQ(hist.max, 5u);
  // Any q < 1 crosses in the sample's bucket and reports its upper bound.
  EXPECT_EQ(hist.percentile(0.0), 7u);
  EXPECT_EQ(hist.percentile(0.5), 7u);
  EXPECT_EQ(hist.percentile(0.99), 7u);
  // q == 1.0: rank == count, never crossed — the saturated sentinel (the
  // pre-obs stream code had the same fallthrough; callers use max instead).
  EXPECT_EQ(hist.percentile(1.0), std::numeric_limits<std::uint64_t>::max());
}

TEST(Log2Histogram, PercentileCrossesAtExactBucketBoundaries) {
  Log2Histogram hist;
  // 10 samples: 4 in bucket 1 (value 1), 4 in bucket 2 (values 2..3), 2 in
  // bucket 4 (value 8).
  for (int i = 0; i < 4; ++i) hist.record(1);
  for (int i = 0; i < 2; ++i) hist.record(2);
  for (int i = 0; i < 2; ++i) hist.record(3);
  for (int i = 0; i < 2; ++i) hist.record(8);
  ASSERT_EQ(hist.count(), 10u);
  // rank = q*10; crossing is strict (seen > rank):
  //   q=0.3 -> rank 3, seen 4 after bucket 1 -> ub 1
  //   q=0.4 -> rank 4, bucket 1's 4 not enough; bucket 2 -> ub 3
  //   q=0.79 -> rank 7, seen 8 after bucket 2 -> ub 3
  //   q=0.8 -> rank 8, needs bucket 4 -> ub 15
  EXPECT_EQ(hist.percentile(0.3), 1u);
  EXPECT_EQ(hist.percentile(0.4), 3u);
  EXPECT_EQ(hist.percentile(0.79), 3u);
  EXPECT_EQ(hist.percentile(0.8), 15u);
  EXPECT_EQ(hist.max, 8u);
  EXPECT_EQ(hist.sum, 4u * 1 + 2 * 2 + 2 * 3 + 2 * 8);
}

TEST(Log2Histogram, MergeAddsCountsSumAndMax) {
  Log2Histogram a;
  Log2Histogram b;
  a.record(1);
  a.record(100);
  b.record(7);
  b.record(70000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum, 1u + 100 + 7 + 70000);
  EXPECT_EQ(a.max, 70000u);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.sum, 0u);
  EXPECT_EQ(a.max, 0u);
}

TEST(MetricsRegistry, RendersPrometheusTextWithHelpAndType) {
  MetricsRegistry reg;
  reg.set_counter("demo_total", "", 42, "A demo counter");
  reg.set_gauge_u64("demo_live", "kind=\"a\"", 7, "A live gauge");
  reg.set_gauge("demo_seconds", "", 1.5, "Elapsed");
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("# HELP demo_total A demo counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("demo_live{kind=\"a\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds 1.5\n"), std::string::npos);
}

TEST(MetricsRegistry, HistogramRendersCumulativeBucketsSumAndCount) {
  MetricsRegistry reg;
  Log2Histogram hist;
  hist.record(1);
  hist.record(3);
  hist.record(3);
  reg.set_histogram("lat_ns", "", hist, "Latency");
  const std::string text = reg.render_text();
  // Cumulative: bucket le="1" holds 1, le="3" holds 3, then +Inf.
  EXPECT_NE(text.find("lat_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 3\n"), std::string::npos);
}

TEST(MetricsRegistry, ValueLookupAndSetSemantics) {
  MetricsRegistry reg;
  reg.set_counter("x_total", "", 5);
  EXPECT_EQ(reg.value_u64("x_total").value_or(0), 5u);
  EXPECT_FALSE(reg.value_u64("missing_total").has_value());
  // Re-set replaces (snapshot semantics), never accumulates.
  reg.set_counter("x_total", "", 9);
  EXPECT_EQ(reg.value_u64("x_total").value_or(0), 9u);
  ASSERT_EQ(reg.families().size(), 1u);
  EXPECT_EQ(reg.families()[0].samples.size(), 1u);
  // Distinct labels are distinct samples of one family.
  reg.set_counter("x_total", "worker=\"1\"", 3);
  EXPECT_EQ(reg.families()[0].samples.size(), 2u);
  EXPECT_EQ(reg.value_u64("x_total", "worker=\"1\"").value_or(0), 3u);
  reg.clear();
  EXPECT_TRUE(reg.families().empty());
}

TEST(MetricsRegistry, WorkImportExportsPruneEdgesScanned) {
  MetricsRegistry reg;
  WorkCounters work;
  work.edges_visited = 7;
  work.prune_edges_scanned = 123456;
  reg.import_work("parcycle_batch_work", work);
  EXPECT_EQ(reg.value_u64("parcycle_batch_work_prune_edges_scanned_total")
                .value_or(0),
            123456u);
  EXPECT_EQ(reg.value_u64("parcycle_batch_work_edges_visited_total")
                .value_or(0),
            7u);
}

TEST(MetricsRegistry, SchedulerImportMatchesWorkerStats) {
  MetricsRegistry reg;
  Scheduler::with_pool(
      2, SchedulerOptions{.timing = TimingMode::kPerTask},
      [&](Scheduler& sched) {
        TaskGroup group(sched);
        std::atomic<int> counter{0};
        for (int i = 0; i < 300; ++i) {
          group.spawn([&counter] {
            counter.fetch_add(1, std::memory_order_relaxed);
          });
        }
        group.wait();
        reg.import_scheduler(sched);
        std::uint64_t from_registry = 0;
        std::uint64_t from_stats = 0;
        const auto stats = sched.worker_stats();
        for (std::size_t w = 0; w < stats.size(); ++w) {
          from_registry +=
              reg.value_u64("parcycle_worker_tasks_executed_total",
                            "worker=\"" + std::to_string(w) + "\"")
                  .value_or(0);
          from_stats += stats[w].tasks_executed;
        }
        EXPECT_EQ(from_registry, from_stats);
        EXPECT_EQ(from_registry, 300u);
      });
  // kPerTask populated the merged latency histogram family.
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("parcycle_task_latency_ns_count 300\n"),
            std::string::npos);
}

TEST(MetricsRegistry, StreamImportMatchesStreamStats) {
  MetricsRegistry reg;
  Scheduler::with_pool(2, [&](Scheduler& sched) {
    StreamOptions options;
    options.window = 50;
    options.num_vertices_hint = 16;
    StreamEngine engine(options, sched, nullptr);
    // A small triangle-rich feed: i -> i+1 plus periodic back edges.
    for (int t = 0; t < 400; ++t) {
      const auto src = static_cast<VertexId>(t % 8);
      const auto dst = static_cast<VertexId>((t + 1) % 8);
      engine.push(src, dst, t);
      if (t % 5 == 0) {
        engine.push(dst, src, t);
      }
    }
    engine.flush();
    const StreamStats stats = engine.stats();
    reg.import_stream(stats);
    EXPECT_EQ(reg.value_u64("parcycle_stream_edges_pushed_total").value_or(0),
              stats.edges_pushed);
    EXPECT_EQ(
        reg.value_u64("parcycle_stream_edges_ingested_total").value_or(0),
        stats.edges_ingested);
    EXPECT_EQ(reg.value_u64("parcycle_stream_cycles_found_total").value_or(0),
              stats.cycles_found);
    EXPECT_GT(stats.cycles_found, 0u);
    EXPECT_EQ(reg.value_u64("parcycle_stream_batches_total").value_or(0),
              stats.batches);
    EXPECT_EQ(
        reg.value_u64("parcycle_stream_work_edges_visited_total").value_or(0),
        stats.work.edges_visited);
    // Per-lane family carries the window label.
    EXPECT_EQ(reg.value_u64("parcycle_stream_lane_cycles_found_total",
                            "window=\"50\"")
                  .value_or(0),
              stats.per_window.at(0).cycles_found);
    // The rendered histogram count equals the recorded sample count.
    const std::string text = reg.render_text();
    std::ostringstream expect;
    expect << "parcycle_stream_search_latency_ns_count "
           << stats.latency.count() << "\n";
    EXPECT_NE(text.find(expect.str()), std::string::npos);
  });
}

// Process-level gauges read straight from /proc/self: any live process has
// resident memory, at least this one thread, and at least stdin/out/err
// open. cpu_seconds_total is a double counter (not readable via value_u64)
// so it is checked in the rendered text instead.
TEST(MetricsRegistry, ProcessImportReportsPlausibleLiveValues) {
  MetricsRegistry reg;
  reg.import_process();
  EXPECT_GT(
      reg.value_u64("parcycle_process_resident_memory_bytes").value_or(0),
      0u);
  EXPECT_GE(reg.value_u64("parcycle_process_virtual_memory_bytes").value_or(0),
            reg.value_u64("parcycle_process_resident_memory_bytes")
                .value_or(0));
  EXPECT_GE(reg.value_u64("parcycle_process_threads").value_or(0), 1u);
  // The fd counter excludes the /proc/self/fd traversal's own descriptor,
  // so stdin/stdout/stderr alone put the floor at 3.
  EXPECT_GE(reg.value_u64("parcycle_process_open_fds").value_or(0), 3u);
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("parcycle_process_cpu_seconds_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE parcycle_process_cpu_seconds_total counter"),
            std::string::npos);
  // Re-import is SET, not accumulate: values refresh rather than double.
  reg.import_process();
  EXPECT_GE(reg.value_u64("parcycle_process_threads").value_or(0), 1u);
}

}  // namespace
}  // namespace parcycle
