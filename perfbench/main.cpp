// perfbench: seeded end-to-end and per-layer benchmark of the parcycle
// library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--git-sha <sha>]
//
// One process, one Scheduler of `nproc` workers. Every run
//
//  1. sets up: generates the workload's graph from the seed, serialises it
//     to SNAP edge-list text and loads that text back through the io layer
//     (parse_temporal_edge_list_parallel, which also finalises the graph).
//     Set-up is repeated and its median reported as setup_s; the parsed
//     graph must equal the generated one;
//  2. times the workload's operation (one warm-up, then repeated for
//     --seconds; medians reported);
//  3. recomputes every cycle of the loaded graph with an oracle that
//     bypasses the layer under test, and compares each timed run's cycle
//     count and cycle-set checksum against it.
//
// With --trace 0 the final stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by a traced run that
// records spans around every call into a library layer (written to
// --trace-out as a Chrome trace at exit), adds serial profiling passes of
// the prune and of the stream pipeline, and sweeps the batch operation down
// to one thread. Metrics of a layer a workload does not run read 0.
// Protections stay at their defaults (no budgets, no overload ladder, no
// reorder slack), so every cycle count is exact. The exit code is 0 only
// when every output matched its oracle.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/cycle_types.hpp"
#include "core/fine_hc_dfs.hpp"
#include "core/hc_dfs.hpp"
#include "graph/generators.hpp"
#include "io/edge_list.hpp"
#include "stream/engine.hpp"
#include "stream/incremental.hpp"
#include "stream/sliding_window_graph.hpp"
#include "support/scheduler.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_johnson.hpp"
#include "temporal/temporal_read_tarjan.hpp"

#include "host_info.hpp"
#include "spans.hpp"

namespace {

using namespace parcycle;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// ---------------------------------------------------------------------------
// Workloads (why each one exists: perfbench/WORKLOADS.md)
// ---------------------------------------------------------------------------

enum class Kind { kFraudBatch, kDenseBatch, kScreenBatch, kFraudStream };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  ScaleFreeTemporalParams shard;  // one draw of the family; seeded per shard
  int shards;                     // independent draws laid end to end in time
  Timestamp window;
  int max_len;  // cycle-length (hop) bound; 0 = unbounded
  int setups;   // set-up repetitions per run; the median is reported
};

constexpr Timestamp kHour = 3600;
// Prune-pass / serial-scan pairs in a traced run.
constexpr int kProfileRounds = 3;

// One shard of the fraud_detection example's payment network: 10k accounts
// and 200k transfers over 30 days (its 20k accounts per 400k transfers),
// scanned for rings closing within 48 hours.
ScaleFreeTemporalParams payment_network() {
  ScaleFreeTemporalParams p;
  p.num_vertices = 10000;
  p.num_edges = 200000;
  p.time_span = 30 * 24 * kHour;
  p.attachment = 0.75;
  p.burstiness = 0.6;
  return p;
}

// One shard of the small, dense analog. Attachment 0.3 (not 0.6) keeps its
// hub shares, and with them its work, steady across seeds.
ScaleFreeTemporalParams dense_analog() {
  ScaleFreeTemporalParams p;
  p.num_vertices = 400;
  p.num_edges = 20000;
  p.time_span = 100000;
  p.attachment = 0.3;
  p.burstiness = 0.6;
  p.burst_width = 0.03;
  return p;
}

const WorkloadSpec kWorkloads[] = {
    {"fraud_batch", Kind::kFraudBatch, payment_network(), 3, 48 * kHour, 6, 5},
    {"dense_batch", Kind::kDenseBatch, dense_analog(), 3, 19000, 0, 15},
    {"screen_batch", Kind::kScreenBatch, dense_analog(), 2, 9000, 8, 21},
    {"fraud_stream", Kind::kFraudStream, payment_network(), 3, 48 * kHour, 6,
     5},
};

bool is_batch(Kind kind) { return kind != Kind::kFraudStream; }

// Layer whose search counters the workload's timed operation fills.
const char* search_layer(Kind kind) {
  return kind == Kind::kScreenBatch ? "core" : "temporal";
}

// ---------------------------------------------------------------------------
// Cycle-set digest
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t cycles = 0;
  std::uint64_t checksum = 0;
  bool operator==(const Digest&) const = default;
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Counts cycles and sums a hash of each cycle's edge-id set. Both the
// per-cycle hash (a sum over its edges) and the total (a sum over cycles)
// are commutative, so the digest depends neither on the order cycles arrive
// in nor on the rotation a cycle is reported in (the stream reports the
// closing hop last, batch enumerators start from the minimum edge). Each
// worker adds into its own cache line; other threads share a locked slot.
class DigestSink final : public CycleSink {
 public:
  explicit DigestSink(unsigned workers) : slots_(workers) {}

  void on_cycle(std::span<const VertexId>,
                std::span<const EdgeId> edges) override {
    std::uint64_t hash = 0;
    for (const EdgeId e : edges) {
      hash += mix64(e);
    }
    hash = mix64(hash ^ edges.size());
    const int worker = Scheduler::current_worker_id();
    if (worker >= 0 && static_cast<std::size_t>(worker) < slots_.size()) {
      Slot& slot = slots_[static_cast<std::size_t>(worker)];
      slot.cycles.store(slot.cycles.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
      slot.checksum.store(
          slot.checksum.load(std::memory_order_relaxed) + hash,
          std::memory_order_relaxed);
      return;
    }
    const std::lock_guard<std::mutex> guard(mutex_);
    other_.cycles += 1;
    other_.checksum += hash;
  }

  // Digest of everything reported since the last take(); resets the sink.
  // Call once the enumeration has returned.
  Digest take() {
    Digest total;
    for (Slot& slot : slots_) {
      total.cycles += slot.cycles.exchange(0, std::memory_order_relaxed);
      total.checksum += slot.checksum.exchange(0, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> guard(mutex_);
    total.cycles += other_.cycles;
    total.checksum += other_.checksum;
    other_ = {};
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> checksum{0};
  };
  std::vector<Slot> slots_;
  std::mutex mutex_;
  Digest other_;
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Index of the sample with the median value (the lower one on even counts).
std::size_t median_index(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  return order[(order.size() - 1) / 2];
}

// Metrics as one JSON line: the result must be the last line of stdout, so
// the library's pretty-printing JsonWriter does not fit.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }

  std::string metrics_json() const {
    std::ostringstream out;
    out << std::setprecision(15) << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
          << "\": {\"value\": " << entries_[i].value << ", \"unit\": \""
          << entries_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// Operations checked against an oracle: loads, timed runs, and for the
// stream every pushed transfer.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    attempted += 1;
    failed += ok ? 0 : 1;
  }
};

// ---------------------------------------------------------------------------
// Set-up: generate -> serialise -> parse + finalise
// ---------------------------------------------------------------------------

struct Load {
  TemporalGraph graph;
  double seconds = 0.0;           // the whole set-up
  double generate_seconds = 0.0;
  double parse_seconds = 0.0;     // parse + finalise
  LoadStats stats;
  bool matches = false;  // parsed graph == generated graph
};

// The workload's graph: `shards` independent draws of the family, each from
// its own seed, laid end to end in time with a gap longer than the window,
// so no cycle spans two draws. A single scale-free draw's hub shares, and
// with them its cycle count, swing widely from seed to seed; a sum of
// independent draws keeps a run's work steady.
TemporalGraph generate_graph(const WorkloadSpec& spec, std::uint64_t seed) {
  constexpr std::uint64_t kMaxShards = 64;
  std::vector<TemporalEdge> edges;
  edges.reserve(spec.shard.num_edges * static_cast<std::size_t>(spec.shards));
  const Timestamp stride = spec.shard.time_span + spec.window + 1;
  for (int i = 0; i < spec.shards; ++i) {
    ScaleFreeTemporalParams params = spec.shard;
    params.seed = mix64(seed * kMaxShards + static_cast<std::uint64_t>(i));
    const TemporalGraph shard = scale_free_temporal(params);
    for (const TemporalEdge& e : shard.edges_by_time()) {
      edges.push_back({e.src, e.dst, e.ts + i * stride, kInvalidEdge});
    }
  }
  return TemporalGraph(spec.shard.num_vertices, std::move(edges));
}

// Order-sensitive hash of an edge sequence: equal hashes mean the parsed
// graph reproduced the generated one edge for edge, ids included.
std::uint64_t edge_sequence_hash(std::span<const TemporalEdge> edges) {
  std::uint64_t hash = edges.size();
  for (const TemporalEdge& e : edges) {
    hash = mix64(hash ^ (static_cast<std::uint64_t>(e.src) << 32 | e.dst));
    hash = mix64(hash ^ static_cast<std::uint64_t>(e.ts));
    hash = mix64(hash ^ e.id);
  }
  return hash;
}

Load load_workload(const WorkloadSpec& spec, std::uint64_t seed,
                   Scheduler& sched, SpanRecorder& spans) {
  ScopedSpan setup_span(spans, "bench.setup", "bench");
  Load load;
  std::string text;
  std::uint64_t expected = 0;
  double serialise_seconds = 0.0;
  {
    const std::uint64_t start = now_ns();
    TemporalGraph generated;
    {
      ScopedSpan span(spans, "graph.generate", "graph");
      generated = generate_graph(spec, seed);
    }
    const std::uint64_t generated_at = now_ns();
    {
      ScopedSpan span(spans, "io.serialise", "io");
      std::ostringstream out;
      save_temporal_edge_list(generated, out);
      text = std::move(out).str();
    }
    load.generate_seconds = (generated_at - start) * 1e-9;
    serialise_seconds = (now_ns() - generated_at) * 1e-9;
    expected = edge_sequence_hash(generated.edges_by_time());
  }  // the generated graph is freed before the parse, as a loader would
  const std::uint64_t parse_start = now_ns();
  {
    ScopedSpan span(spans, "io.parse", "io");
    load.graph =
        parse_temporal_edge_list_parallel(text, sched, {}, &load.stats);
  }
  load.parse_seconds = (now_ns() - parse_start) * 1e-9;
  load.seconds =
      load.generate_seconds + serialise_seconds + load.parse_seconds;
  load.matches = edge_sequence_hash(load.graph.edges_by_time()) == expected;
  return load;
}

// ---------------------------------------------------------------------------
// Timed operations
// ---------------------------------------------------------------------------

struct Sample {
  double wall_s = 0.0;
  Digest digest;
  bool consistent = true;  // the returned count equals the sink's count
  WorkCounters work;
  std::vector<WorkerStats> workers;
  // Stream only.
  std::uint64_t transfers = 0;
  std::uint64_t lost_transfers = 0;  // shed, late or truncated
  double alert_p50_us = 0.0;
  double alert_p99_us = 0.0;
  StreamStats stream;
};

Sample run_batch(const WorkloadSpec& spec, const TemporalGraph& graph,
                 Scheduler& sched, DigestSink& sink, SpanRecorder& spans) {
  EnumOptions options;  // BC-DFS takes its hop bound as an argument
  options.max_cycle_length = spec.kind == Kind::kScreenBatch ? 0 : spec.max_len;
  sched.reset_stats();
  Sample sample;
  EnumResult result;
  const std::uint64_t start = now_ns();
  switch (spec.kind) {
    case Kind::kFraudBatch: {
      ScopedSpan span(spans, "temporal.fine_johnson", "temporal");
      result = fine_temporal_johnson_cycles(graph, spec.window, sched, options,
                                            {}, &sink);
      break;
    }
    case Kind::kDenseBatch: {
      ScopedSpan span(spans, "temporal.fine_read_tarjan", "temporal");
      result = fine_temporal_read_tarjan_cycles(graph, spec.window, sched,
                                                options, {}, &sink);
      break;
    }
    case Kind::kScreenBatch: {
      ScopedSpan span(spans, "core.fine_hc_windowed", "core");
      result = fine_hc_windowed_cycles(graph, spec.window, spec.max_len, sched,
                                       options, {}, &sink);
      break;
    }
    case Kind::kFraudStream:
      break;
  }
  sample.wall_s = (now_ns() - start) * 1e-9;
  {
    ScopedSpan span(spans, "support.worker_stats", "support");
    sample.workers = sched.worker_stats();
  }
  sample.digest = sink.take();
  sample.consistent = sample.digest.cycles == result.num_cycles;
  sample.work = result.work;
  return sample;
}

double percentile_us(std::vector<std::uint64_t>& ns, double q) {
  if (ns.empty()) {
    return 0.0;
  }
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]) * 1e-3;
}

// Closed loop: worker 0 pushes the feed in edges_by_time() order and the
// engine's backpressure blocks it while a batch is processed. A transfer's
// alert latency runs from its push() call to the return of the call that
// finished its batch (seen as the sliding graph's ingest count moving).
Sample run_stream(const WorkloadSpec& spec, const TemporalGraph& graph,
                  Scheduler& sched, DigestSink& sink, SpanRecorder& spans,
                  std::vector<std::uint64_t>& pushed_at,
                  std::vector<std::uint64_t>& latency_ns) {
  StreamOptions options;
  options.window = spec.window;
  options.max_cycle_length = spec.max_len;
  options.num_vertices_hint = graph.num_vertices();
  const auto edges = graph.edges_by_time();
  pushed_at.resize(edges.size());
  latency_ns.resize(edges.size());
  Sample sample;
  sample.transfers = edges.size();
  sched.reset_stats();
  StreamEngine engine(options, sched, &sink);
  std::uint64_t ingested = 0;
  std::size_t waiting_from = 0;  // first transfer whose batch is unfinished
  auto finish_waiting = [&](std::size_t end) {
    const std::uint64_t done = now_ns();
    for (std::size_t j = waiting_from; j < end; ++j) {
      latency_ns[j] = done - pushed_at[j];
    }
    waiting_from = end;
  };
  const std::uint64_t start = now_ns();
  {
    ScopedSpan span(spans, "stream.push_feed", "stream");
    for (std::size_t i = 0; i < edges.size(); ++i) {
      pushed_at[i] = now_ns();
      engine.push(edges[i].src, edges[i].dst, edges[i].ts);
      if (engine.graph().total_ingested() != ingested) {
        ingested = engine.graph().total_ingested();
        finish_waiting(i + 1);
      }
    }
  }
  {
    ScopedSpan span(spans, "stream.flush", "stream");
    engine.flush();
  }
  finish_waiting(edges.size());
  sample.wall_s = (now_ns() - start) * 1e-9;
  {
    ScopedSpan span(spans, "stream.stats", "stream");
    sample.stream = engine.stats();
  }
  sample.workers = sched.worker_stats();
  sample.alert_p50_us = percentile_us(latency_ns, 0.50);
  sample.alert_p99_us = percentile_us(latency_ns, 0.99);
  sample.digest = sink.take();
  sample.consistent = sample.digest.cycles == sample.stream.cycles_found &&
                      sample.stream.edges_ingested == edges.size();
  sample.lost_transfers = sample.stream.edges_shed +
                          sample.stream.late_edges_rejected +
                          sample.stream.work.searches_truncated;
  return sample;
}

Sample run_operation(const WorkloadSpec& spec, const TemporalGraph& graph,
                     Scheduler& sched, DigestSink& sink, SpanRecorder& spans,
                     std::vector<std::uint64_t>& pushed_at,
                     std::vector<std::uint64_t>& latency_ns) {
  return is_batch(spec.kind)
             ? run_batch(spec, graph, sched, sink, spans)
             : run_stream(spec, graph, sched, sink, spans, pushed_at,
                          latency_ns);
}

// ---------------------------------------------------------------------------
// Oracles: each bypasses the layer under test
// ---------------------------------------------------------------------------

// fraud_*: serial Johnson without the cycle-union prune; dense_batch:
// coarse-grained Johnson without the prune; screen_batch: serial BC-DFS.
// Returns nullopt when the oracle's own count disagrees with its sink.
std::optional<Digest> run_oracle(const WorkloadSpec& spec,
                                 const TemporalGraph& graph, Scheduler& sched,
                                 DigestSink& sink, SpanRecorder& spans) {
  ScopedSpan span(spans, "bench.oracle", "bench");
  EnumOptions options;
  options.use_cycle_union = false;
  EnumResult result;
  switch (spec.kind) {
    case Kind::kFraudBatch:
    case Kind::kFraudStream:
      options.max_cycle_length = spec.max_len;
      result = temporal_johnson_cycles(graph, spec.window, options, &sink);
      break;
    case Kind::kDenseBatch:
      result = coarse_temporal_johnson_cycles(graph, spec.window, sched,
                                              options, &sink);
      break;
    case Kind::kScreenBatch:
      result = hc_windowed_cycles(graph, spec.window, spec.max_len, options,
                                  &sink);
      break;
  }
  const Digest digest = sink.take();
  if (digest.cycles != result.num_cycles) {
    return std::nullopt;
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Traced-run profiling passes
// ---------------------------------------------------------------------------

struct PruneProfile {
  std::uint64_t calls = 0;
  std::uint64_t passes = 0;
  std::uint64_t slice_edges = 0;
  double seconds = 0.0;
};

// The batch enumerators' cycle-union prune in isolation: compute() for
// every start that passes their adjacency prefilter, serially.
PruneProfile profile_prune(const TemporalGraph& graph, Timestamp window,
                           SpanRecorder& spans) {
  PruneProfile profile;
  TemporalReachScratch reach;
  reach.init(graph.num_vertices());
  const auto edges = graph.edges_by_time();
  auto admissible = [&](const TemporalEdge& e0) {
    const Timestamp hi = e0.ts + window;
    return e0.src != e0.dst &&
           !graph.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() &&
           !graph.in_edges_in_window(e0.src, e0.ts + 1, hi).empty();
  };
  {
    ScopedSpan span(spans, "temporal.prune", "temporal");
    const std::uint64_t start = now_ns();
    for (const TemporalEdge& e0 : edges) {
      if (admissible(e0)) {
        profile.calls += 1;
        profile.passes += reach.compute(graph, e0, e0.ts + window) ? 1 : 0;
      }
    }
    profile.seconds = (now_ns() - start) * 1e-9;
  }
  // Edges each compute() scans: the edges_by_time() slice (t0, t0 + window].
  auto first_at_or_after = [&](Timestamp ts) {
    return static_cast<std::uint64_t>(
        std::lower_bound(edges.begin(), edges.end(), ts,
                         [](const TemporalEdge& e, Timestamp t) {
                           return e.ts < t;
                         }) -
        edges.begin());
  };
  for (const TemporalEdge& e0 : edges) {
    if (admissible(e0)) {
      profile.slice_edges += first_at_or_after(e0.ts + window + 1) -
                             first_at_or_after(e0.ts + 1);
    }
  }
  return profile;
}

// The serial scan of the batch operation's algorithm, prune included.
Sample serial_scan(const WorkloadSpec& spec, const TemporalGraph& graph,
                   DigestSink& sink, SpanRecorder& spans) {
  EnumOptions options;
  options.max_cycle_length = spec.max_len;
  Sample sample;
  EnumResult result;
  const std::uint64_t start = now_ns();
  if (spec.kind == Kind::kFraudBatch) {
    ScopedSpan span(spans, "temporal.serial_johnson", "temporal");
    result = temporal_johnson_cycles(graph, spec.window, options, &sink);
  } else {
    ScopedSpan span(spans, "temporal.serial_read_tarjan", "temporal");
    result = temporal_read_tarjan_cycles(graph, spec.window, options, &sink);
  }
  sample.wall_s = (now_ns() - start) * 1e-9;
  sample.digest = sink.take();
  sample.consistent = sample.digest.cycles == result.num_cycles;
  return sample;
}

struct ReplayProfile {
  Digest digest;
  std::uint64_t cycles = 0;
};

// The engine's pipeline stages driven serially, batch by batch, with the
// engine's own batch size, expiry cutoff and prune rule: expire, ingest,
// then the per-edge searches of the batch.
ReplayProfile replay_stream(const WorkloadSpec& spec,
                            const TemporalGraph& graph, DigestSink& sink,
                            SpanRecorder& spans) {
  const StreamOptions defaults;
  EnumOptions options;
  options.max_cycle_length = spec.max_len;
  SlidingWindowGraph live(graph.num_vertices());
  StreamSearchScratch scratch;
  WorkCounters work;
  ReplayProfile profile;
  const auto edges = graph.edges_by_time();
  std::vector<TemporalEdge> batch;
  ScopedSpan replay_span(spans, "bench.stream_replay", "bench");
  for (std::size_t begin = 0; begin < edges.size();
       begin += defaults.batch_size) {
    const std::size_t end =
        std::min(edges.size(), begin + defaults.batch_size);
    batch.assign(edges.begin() + static_cast<std::ptrdiff_t>(begin),
                 edges.begin() + static_cast<std::ptrdiff_t>(end));
    {
      ScopedSpan span(spans, "stream.expire", "stream");
      live.expire_before(batch.front().ts - spec.window);
    }
    {
      ScopedSpan span(spans, "stream.ingest", "stream");
      for (TemporalEdge& e : batch) {
        e.id = live.ingest(e.src, e.dst, e.ts);
      }
    }
    ScopedSpan span(spans, "stream.search", "stream");
    scratch.ensure(live.num_vertices());
    for (const TemporalEdge& e : batch) {
      const std::size_t frontier =
          e.src == e.dst
              ? 0
              : live.out_edges_in_window(e.dst, e.ts - spec.window, e.ts - 1)
                    .size();
      options.use_cycle_union =
          defaults.use_reach_prune &&
          frontier >= defaults.prune_frontier_threshold;
      profile.cycles += cycles_closed_by_edge(live, e, spec.window, options,
                                              scratch, work, &sink);
    }
  }
  profile.digest = sink.take();
  return profile;
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return spec;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

int run(const Args& args) {
  const WorkloadSpec& spec = find_workload(args.workload);
  const Kind kind = spec.kind;
  const unsigned workers = perfbench::online_cpus();
  const std::string fingerprint =
      perfbench::fingerprint_json(args.git_sha, workers);
  std::cout << "{\"fingerprint\": " << fingerprint << "}" << std::endl;

  SpanRecorder spans(args.trace);
  SpanRecorder untraced(false);
  DigestSink sink(workers);
  Tally tally;
  bool correct = true;

  std::vector<double> setup_seconds;
  std::vector<double> generate_seconds;
  std::vector<double> parse_seconds;     // without finalisation
  std::vector<double> finalise_seconds;
  std::uint64_t input_bytes = 0;
  std::vector<Sample> samples;
  std::vector<bool> sample_traced;
  double rss_mb = 0.0;
  Digest oracle;
  Sample warmup;
  std::optional<PruneProfile> prune;
  std::vector<double> prune_seconds;
  std::vector<Sample> scans;
  std::optional<ReplayProfile> replay;
  TemporalGraph graph;
  {
    std::optional<Scheduler> sched;
    {
      ScopedSpan span(spans, "support.start", "support");
      sched.emplace(workers);
    }

    // 1. Set-up, repeated; the last load is the graph under test.
    for (int i = 0; i < spec.setups; ++i) {
      Load load = load_workload(spec, args.seed, *sched, spans);
      setup_seconds.push_back(load.seconds);
      generate_seconds.push_back(load.generate_seconds);
      parse_seconds.push_back(load.parse_seconds -
                              load.stats.finalise_seconds);
      finalise_seconds.push_back(load.stats.finalise_seconds);
      input_bytes = load.stats.bytes;
      tally.record(load.matches);
      correct = correct && load.matches;
      graph = std::move(load.graph);
    }

    // 2. Timed phase: one warm-up, then --seconds of repetitions. The traced
    // run alternates traced and untraced repetitions so their medians give
    // the tracing overhead.
    std::vector<std::uint64_t> pushed_at;
    std::vector<std::uint64_t> latency_ns;
    warmup = run_operation(spec, graph, *sched, sink, untraced, pushed_at,
                           latency_ns);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
    do {
      const bool traced = args.trace && samples.size() % 2 == 0;
      ScopedSpan span(traced ? spans : untraced, "bench.timed", "bench");
      samples.push_back(run_operation(spec, graph, *sched, sink,
                                      traced ? spans : untraced, pushed_at,
                                      latency_ns));
      sample_traced.push_back(traced);
    } while (now_ns() < deadline || samples.size() < (args.trace ? 2u : 1u));
    rss_mb = perfbench::peak_rss_mb();

    // 3. Traced-only profiling passes. Prune passes and serial scans
    // alternate, so host noise hits both alike; medians are reported.
    const bool pruned = kind == Kind::kFraudBatch || kind == Kind::kDenseBatch;
    if (args.trace && pruned) {
      for (int round = 0; round < kProfileRounds; ++round) {
        prune = profile_prune(graph, spec.window, spans);
        prune_seconds.push_back(prune->seconds);
        scans.push_back(serial_scan(spec, graph, sink, spans));
      }
    }
    if (args.trace && kind == Kind::kFraudStream) {
      replay = replay_stream(spec, graph, sink, spans);
    }

    // 4. Oracle on the graph as loaded.
    const std::optional<Digest> reference =
        run_oracle(spec, graph, *sched, sink, spans);
    correct = correct && reference.has_value();
    oracle = reference.value_or(Digest{});
  }

  auto check = [&](const Sample& s) {
    const bool ok = s.consistent && s.digest == oracle;
    correct = correct && ok;
    return ok;
  };
  auto record = [&](const Sample& s) {
    if (is_batch(kind)) {
      tally.record(check(s));
      return;
    }
    // Lost transfers fail on their own; a wrong replay fails them all.
    tally.attempted += s.transfers;
    tally.failed += check(s) ? s.lost_transfers : s.transfers;
  };
  record(warmup);  // checked like the timed runs, never timed
  for (const Sample& s : samples) {
    record(s);
  }
  for (const Sample& s : scans) {
    tally.record(check(s));
  }
  if (replay) {
    const bool ok = replay->digest == oracle && replay->cycles == oracle.cycles;
    tally.record(ok);
    correct = correct && ok;
  }

  // Thread sweep (traced batch runs): the same operation at one worker.
  std::optional<Sample> single;
  if (args.trace && is_batch(kind)) {
    std::optional<Scheduler> one;
    {
      ScopedSpan span(spans, "support.start", "support");
      one.emplace(1);
    }
    std::vector<std::uint64_t> unused;
    ScopedSpan span(spans, "bench.one_thread", "bench");
    single = run_operation(spec, graph, *one, sink, spans, unused, unused);
    tally.record(check(*single));
  }

  // Untraced samples carry the end-to-end figures.
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<std::size_t> untraced_index;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (sample_traced[i]) {
      traced_walls.push_back(samples[i].wall_s);
    } else {
      walls.push_back(samples[i].wall_s);
      untraced_index.push_back(i);
    }
  }
  const double wall_s = median(walls);
  const Sample& typical = samples[untraced_index[median_index(walls)]];

  Report report;
  if (!args.trace) {
    std::vector<double> p50;
    std::vector<double> p99;
    for (const Sample& s : samples) {
      // A batch scan answers every transfer when it returns.
      p50.push_back(is_batch(kind) ? s.wall_s * 1e6 : s.alert_p50_us);
      p99.push_back(is_batch(kind) ? s.wall_s * 1e6 : s.alert_p99_us);
    }
    report.add("setup_s", median(setup_seconds), "s");
    report.add("wall_s", wall_s, "s");
    report.add("peak_rss_mb", rss_mb, "MiB");
    report.add("edges_per_s", ratio(graph.num_edges(), wall_s), "1/s");
    report.add("alert_p50_us", median(p50), "us");
    report.add("alert_p99_us", median(p99), "us");
  } else {
    // graph / io
    report.add("graph.generate_s", median(generate_seconds), "s");
    report.add("graph.edges", graph.num_edges(), "count");
    report.add("io.parse_s", median(parse_seconds), "s");
    report.add("io.finalise_s", median(finalise_seconds), "s");
    report.add("io.bytes", static_cast<double>(input_bytes), "bytes");

    // temporal prune
    std::vector<double> scan_seconds;
    for (const Sample& s : scans) {
      scan_seconds.push_back(s.wall_s);
    }
    const double scan_s = median(scan_seconds);
    const double prune_s = median(prune_seconds);
    report.add("temporal.prune_calls", prune ? prune->calls : 0, "count");
    report.add("temporal.prune_pass_ratio",
               prune ? ratio(prune->passes, prune->calls) : 0.0, "ratio");
    report.add("temporal.prune_slice_edges", prune ? prune->slice_edges : 0,
               "count");
    report.add("temporal.prune_s", prune_s, "s");
    report.add("temporal.prune_share", ratio(prune_s, scan_s), "ratio");
    report.add("temporal.search_s", std::max(0.0, scan_s - prune_s), "s");

    // search counters of the timed batch operation, under its layer
    for (const char* layer : {"temporal", "core"}) {
      const bool mine = is_batch(kind) && std::string_view(layer) ==
                                              search_layer(kind);
      const WorkCounters work = mine ? typical.work : WorkCounters{};
      const std::string prefix = std::string(layer) + ".";
      report.add(prefix + "edges_visited", work.edges_visited, "count");
      report.add(prefix + "tasks_spawned", work.tasks_spawned, "count");
      report.add(prefix + "state_copies", work.state_copies, "count");
      report.add(prefix + "copy_ratio",
                 ratio(work.state_copies,
                       work.state_copies + work.state_reuses),
                 "ratio");
      report.add(prefix + "work_inflation",
                 mine && single ? ratio(work.edges_visited,
                                        single->work.edges_visited)
                                : 0.0,
                 "ratio");
    }

    // support: the scheduler during the typical untraced repetition
    double executed = 0.0;
    double stolen = 0.0;
    double busy_s = 0.0;
    double heap = 0.0;
    for (const WorkerStats& w : typical.workers) {
      executed += static_cast<double>(w.tasks_executed);
      stolen += static_cast<double>(w.tasks_stolen);
      busy_s += static_cast<double>(w.busy_ns) * 1e-9;
      heap += static_cast<double>(w.tasks_heap_allocated);
    }
    const double capacity_s = typical.wall_s * workers;
    report.add("support.tasks_executed", executed, "count");
    report.add("support.tasks_stolen", stolen, "count");
    report.add("support.steal_ratio", ratio(stolen, executed), "ratio");
    report.add("support.utilisation", ratio(busy_s, capacity_s), "ratio");
    report.add("support.idle_s", std::max(0.0, capacity_s - busy_s), "s");
    report.add("support.heap_spawns", heap, "count");
    report.add("support.scaling_eff",
               single ? ratio(single->wall_s, workers * wall_s) : 0.0,
               "ratio");

    // stream
    const StreamStats& st = typical.stream;
    report.add("stream.expire_s", spans.self_seconds("stream.expire"), "s");
    report.add("stream.ingest_s", spans.self_seconds("stream.ingest"), "s");
    report.add("stream.search_s", spans.self_seconds("stream.search"), "s");
    report.add("stream.busy_s", st.busy_seconds, "s");
    report.add("stream.batches", st.batches, "count");
    report.add("stream.escalated_edges", st.escalated_edges, "count");
    report.add("stream.edges_visited", st.work.edges_visited, "count");
    report.add("stream.compactions", st.work.graph_compactions, "count");
    report.add("stream.search_p99_ns", st.latency_p99_ns, "ns");

    report.add("trace.overhead_frac",
               ratio(median(traced_walls), wall_s) - 1.0, "ratio");

    if (!args.trace_out.empty()) {
      spans.write_chrome_trace(
          args.trace_out, "{\"workload\": \"" + std::string(spec.name) +
                              "\", \"seed\": " + std::to_string(args.seed) +
                              ", \"fingerprint\": " + fingerprint + "}");
    }
  }

  std::cerr << "perfbench: " << spec.name << " seed " << args.seed << ": "
            << oracle.cycles << " cycles (oracle), " << samples.size()
            << " timed runs, median " << wall_s << " s; walls:";
  for (const Sample& s : samples) {
    std::cerr << " " << s.wall_s;
  }
  std::cerr << "\n";
  correct = correct && tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << report.metrics_json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
