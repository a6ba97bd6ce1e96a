#include "stream/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/trace.hpp"

namespace parcycle {

namespace {

// Canonical stream order — the order a batch TemporalGraph sorts its edges
// into — so the reorder stage's releases keep streamed edge ids identical to
// batch ids even when arrivals were shuffled within the slack.
bool edge_rank_less(const TemporalEdge& a, const TemporalEdge& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.src != b.src) return a.src < b.src;
  return a.dst < b.dst;
}

// std::push_heap/pop_heap build a max-heap; invert to pop the canonical
// minimum first.
bool heap_order(const TemporalEdge& a, const TemporalEdge& b) {
  return edge_rank_less(b, a);
}

// max_seen - slack without signed underflow near the Timestamp minimum.
Timestamp saturating_floor(Timestamp max_seen, Timestamp slack) {
  const Timestamp lowest = std::numeric_limits<Timestamp>::min();
  return max_seen < lowest + slack ? lowest : max_seen - slack;
}

}  // namespace

const char* overload_level_name(OverloadLevel level) noexcept {
  switch (level) {
    case OverloadLevel::kNormal:
      return "normal";
    case OverloadLevel::kForcePrune:
      return "force_prune";
    case OverloadLevel::kForceSerial:
      return "force_serial";
    case OverloadLevel::kTightenBudgets:
      return "tighten_budgets";
    case OverloadLevel::kShed:
      return "shed";
  }
  return "?";
}

StreamEngine::StreamEngine(const StreamOptions& options, Scheduler& sched,
                           CycleSink* sink)
    : StreamEngine(options, sched, std::vector<CycleSink*>{sink}) {}

StreamEngine::StreamEngine(const StreamOptions& options, Scheduler& sched,
                           std::vector<CycleSink*> lane_sinks)
    : options_(options),
      sched_(sched),
      lane_sinks_(std::move(lane_sinks)),
      deltas_(options.windows.empty()
                  ? std::vector<Timestamp>{options.window}
                  : options.windows),
      graph_(options.num_vertices_hint),
      scratch_pool_(sched, [] { return std::make_unique<StreamSearchScratch>(); }),
      reorder_max_seen_(std::numeric_limits<Timestamp>::min()),
      reorder_floor_(std::numeric_limits<Timestamp>::min()),
      last_pushed_ts_(std::numeric_limits<Timestamp>::min()) {
  for (const Timestamp delta : deltas_) {
    if (delta <= 0) {
      throw std::invalid_argument(
          "StreamOptions: every window must be positive");
    }
    retention_ = std::max(retention_, delta);
  }
  if (options_.reorder_slack < 0) {
    throw std::invalid_argument(
        "StreamOptions::reorder_slack must be non-negative");
  }
  if (options_.batch_size == 0) {
    options_.batch_size = 1;
  }
  lane_sinks_.resize(deltas_.size(), nullptr);
  sink_guards_.resize(deltas_.size());
  effective_sinks_ = lane_sinks_;
  if (options_.guard_sinks) {
    for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
      if (lane_sinks_[lane] != nullptr) {
        sink_guards_[lane] = std::make_unique<GuardedSink>(
            lane_sinks_[lane], options_.sink_guard);
        effective_sinks_[lane] = sink_guards_[lane].get();
      }
    }
  }
  if (options_.overload_high_watermark != SIZE_MAX &&
      options_.overload_low_watermark == 0) {
    options_.overload_low_watermark = options_.overload_high_watermark / 2;
  }
  sinks_.reserve(sched_.num_workers());
  for (unsigned i = 0; i < sched_.num_workers(); ++i) {
    sinks_.push_back(std::make_unique<WorkerSink>());
    sinks_.back()->lanes.resize(deltas_.size());
  }
  pending_.reserve(options_.batch_size);
}

std::unique_lock<std::mutex> StreamEngine::observer_lock() const {
  std::unique_lock<std::mutex> lock(stats_mutex_, std::defer_lock);
  if (concurrent_stats_) {
    lock.lock();
  }
  return lock;
}

void StreamEngine::set_overload_level(OverloadLevel level) {
  if (level == overload_level_.load(std::memory_order_relaxed)) {
    return;
  }
  overload_level_.store(level, std::memory_order_relaxed);
  overload_shifts_ += 1;
  if (TraceRecorder* const tr = sched_.tracer()) {
    const auto worker =
        static_cast<unsigned>(std::max(0, Scheduler::current_worker_id()));
    tr->record_instant(worker, TraceName::kOverloadShift, trace_now_ns(),
                       static_cast<std::uint64_t>(level));
  }
}

// Called at the START of a batch: one level per multiple of the high
// watermark, so a flood engages the heavier degradations without waiting a
// batch per rung. Pure function of buffered occupancy — deterministic for a
// given push sequence.
void StreamEngine::overload_step_up() {
  const std::size_t high = options_.overload_high_watermark;
  const std::size_t occupancy = pending_.size() + reorder_heap_.size();
  if (high == SIZE_MAX || high == 0 || occupancy < high) {
    return;
  }
  calm_batches_ = 0;
  const auto steps = static_cast<int>(std::min<std::size_t>(
      occupancy / high, static_cast<std::size_t>(kOverloadLevels - 1)));
  const int target = std::min(
      kOverloadLevels - 1,
      static_cast<int>(overload_level_.load(std::memory_order_relaxed)) +
          steps);
  set_overload_level(static_cast<OverloadLevel>(target));
}

// Called at the END of a batch: hysteretic single-step recovery after
// overload_recover_batches consecutive calm batches.
void StreamEngine::overload_step_down() {
  const OverloadLevel level = overload_level_.load(std::memory_order_relaxed);
  if (level == OverloadLevel::kNormal) {
    return;
  }
  const std::size_t occupancy = pending_.size() + reorder_heap_.size();
  if (occupancy > options_.overload_low_watermark) {
    calm_batches_ = 0;
    return;
  }
  calm_batches_ += 1;
  if (calm_batches_ >= options_.overload_recover_batches) {
    calm_batches_ = 0;
    set_overload_level(
        static_cast<OverloadLevel>(static_cast<int>(level) - 1));
  }
}

void StreamEngine::enqueue(const TemporalEdge& edge) {
  last_pushed_ts_ = edge.ts;
  pending_.push_back(edge);
  if (pending_.size() >= options_.batch_size) {
    process_batch();  // structural backpressure: drain before accepting more
  }
}

void StreamEngine::release_ready() {
  // Everything below the floor is releasable: no future accepted arrival can
  // precede it (accepted arrivals have ts >= floor, and the floor never
  // moves backwards), so popping the heap yields the canonical order.
  while (!reorder_heap_.empty() && reorder_heap_.front().ts < reorder_floor_) {
    std::pop_heap(reorder_heap_.begin(), reorder_heap_.end(), heap_order);
    const TemporalEdge edge = reorder_heap_.back();
    reorder_heap_.pop_back();
    enqueue(edge);
  }
}

void StreamEngine::push(VertexId src, VertexId dst, Timestamp ts) {
  const std::unique_lock<std::mutex> lock = observer_lock();
  edges_pushed_ += 1;
  if (overload_level_.load(std::memory_order_relaxed) ==
      OverloadLevel::kShed) {
    // Last rung of the ladder: drop the arrival before it can grow any
    // buffer. edges_pushed_ still advanced — shedding must not desync the
    // stream cursor a restore resumes from.
    edges_shed_ += 1;
    return;
  }
  if (options_.reorder_slack == 0) {
    // Strict legacy contract: the producer guarantees sorted input.
    if (!pending_.empty() || graph_.total_ingested() > 0) {
      if (ts < last_pushed_ts_) {
        throw std::invalid_argument(
            "StreamEngine::push: timestamps must be non-decreasing "
            "(configure reorder_slack for out-of-order streams)");
      }
    }
    enqueue(TemporalEdge{src, dst, ts, kInvalidEdge});
    return;
  }
  if (ts < reorder_floor_) {
    late_rejected_ += 1;
    return;
  }
  reorder_heap_.push_back(TemporalEdge{src, dst, ts, kInvalidEdge});
  std::push_heap(reorder_heap_.begin(), reorder_heap_.end(), heap_order);
  reorder_peak_buffered_ =
      std::max<std::uint64_t>(reorder_peak_buffered_, reorder_heap_.size());
  if (ts > reorder_max_seen_) {
    reorder_max_seen_ = ts;
    reorder_floor_ = std::max(
        reorder_floor_, saturating_floor(ts, options_.reorder_slack));
  }
  release_ready();
}

void StreamEngine::flush() {
  const std::unique_lock<std::mutex> lock = observer_lock();
  if (!reorder_heap_.empty()) {
    std::sort(reorder_heap_.begin(), reorder_heap_.end(), edge_rank_less);
    for (const TemporalEdge& edge : reorder_heap_) {
      enqueue(edge);
    }
    reorder_heap_.clear();
    // Harden the watermark: everything up to max_seen is now ingested, so an
    // in-slack straggler older than this flush point would reach the graph
    // out of order — count it as late instead.
    reorder_floor_ = std::max(reorder_floor_, reorder_max_seen_);
  }
  process_batch();
}

namespace {

struct EdgeSearchTask {
  StreamEngine* engine;
  TemporalEdge edge;
  void operator()();
};

}  // namespace

// Grants the file-local task access to the private batch internals without
// widening the public surface.
struct StreamEngineBatchAccess {
  static void search(StreamEngine& engine, const TemporalEdge& edge) {
    engine.search_edge(edge);
  }
};

namespace {

void EdgeSearchTask::operator()() {
  StreamEngineBatchAccess::search(*engine, edge);
}

// Per-edge batch tasks must ride the zero-allocation slab spawn path.
static_assert(spawn_uses_slab_v<EdgeSearchTask>,
              "EdgeSearchTask outgrew the scheduler's task-slab block");

}  // namespace

void StreamEngine::process_batch() {
  if (pending_.empty()) {
    // An empty flush is still a batch boundary for the ladder. A shedding
    // engine drops arrivals before they can refill pending, so without this
    // the top rung could never observe a calm batch and climb back down.
    overload_step_down();
    return;
  }
  // process_batch runs on the scheduler-owning thread (worker 0); the trace
  // rings are owner-written, so that is the track batch phases land on.
  TraceRecorder* const tr = sched_.tracer();
  const auto worker =
      static_cast<unsigned>(std::max(0, Scheduler::current_worker_id()));
  const std::uint64_t batch_edges = pending_.size();
  const std::uint64_t expired_before = tr ? graph_.total_expired() : 0;
  // Ladder decision on the buffered occupancy this batch starts with; the
  // level is then stable for the whole search phase.
  overload_step_up();
  // One clock read at each phase boundary replaces the old WallTimer pair;
  // without a tracer the extra boundaries are skipped entirely.
  const std::uint64_t t_start = trace_now_ns();
  // Every search of this batch only needs edges with
  // ts >= closing.ts - retention >= batch_min_ts - retention.
  graph_.expire_before(pending_.front().ts - retention_);
  const std::uint64_t t_expired = tr ? trace_now_ns() : 0;
  for (TemporalEdge& e : pending_) {
    e.id = graph_.ingest(e.src, e.dst, e.ts);
  }
  const std::uint64_t t_ingested = tr ? trace_now_ns() : 0;
  {
    TaskGroup group(sched_);
    try {
      for (const TemporalEdge& e : pending_) {
        group.spawn(EdgeSearchTask{this, e});
      }
      group.wait();
    } catch (...) {
      // A search task (or the spawn itself, e.g. injected slab alloc
      // failure) threw. The edges are already ingested, so the window stays
      // correct; only this batch's searches are (partially) lost. Count it
      // and keep the engine live — group.wait() drained the remaining tasks
      // before rethrowing, and the TaskGroup destructor drains any the
      // spawn loop left behind.
      search_errors_ += 1;
    }
  }
  pending_.clear();
  batches_ += 1;
  // The final wait() ordered every task's sink writes before this read.
  std::uint64_t cycles = 0;
  for (const auto& sink : sinks_) {
    for (const LaneCounters& lane : sink->lanes) {
      cycles += lane.cycles;
    }
  }
  cycles_found_ = cycles;
  // Bound the wait on guarded sinks by consumer progress: a healthy sink
  // finishes its backlog, a stuck one forfeits it (engine stays live).
  for (const auto& guard : sink_guards_) {
    if (guard != nullptr) {
      guard->drain();
    }
  }
  overload_step_down();
  const std::uint64_t t_end = trace_now_ns();
  busy_seconds_ += static_cast<double>(t_end - t_start) * 1e-9;
  if (tr != nullptr) {
    tr->record_span(worker, TraceName::kExpire, t_start, t_expired,
                    graph_.total_expired() - expired_before);
    tr->record_span(worker, TraceName::kIngest, t_expired, t_ingested,
                    batch_edges);
    tr->record_span(worker, TraceName::kBatch, t_start, t_end, batch_edges);
    tr->record_counter(worker, TraceName::kReorderBuffered, t_end,
                       reorder_heap_.size());
    tr->record_counter(worker, TraceName::kLiveEdges, t_end,
                       graph_.live_edges());
  }
}

void StreamEngine::search_edge(const TemporalEdge& edge) {
  const int worker = Scheduler::current_worker_id();
  assert(worker >= 0 &&
         static_cast<std::size_t>(worker) < sinks_.size() &&
         "search_edge must run on a worker of the engine's scheduler");
  WorkerSink& sink = *sinks_[static_cast<std::size_t>(worker)];

  ParallelOptions popts;
  popts.spawn_policy = options_.spawn_policy;
  popts.spawn_queue_threshold = options_.spawn_queue_threshold;

  TraceRecorder* const tr = sched_.tracer();
  const auto wid = static_cast<unsigned>(worker);
  auto scratch = scratch_pool_.acquire();
  // Ladder effects, fixed for the whole batch (the level only changes at
  // batch boundaries on worker 0, ordered before the task spawns).
  const OverloadLevel level = overload_level_.load(std::memory_order_relaxed);
  const bool force_prune = level >= OverloadLevel::kForcePrune;
  const bool force_serial = level >= OverloadLevel::kForceSerial;
  const bool degraded = level >= OverloadLevel::kTightenBudgets;
  SearchBudget budget_cfg =
      degraded ? options_.degraded_budget : options_.search_budget;
  bool adaptive_applied = false;
  if (degraded) {
    // Adaptive degraded-budget seed: the sampler's k×rolling-p99 hint widens
    // the wall budget when live search latencies need more headroom than the
    // static configuration; the static value stays the floor, so the hint
    // can only relax the degradation, never sharpen it below what the
    // operator configured. Without a sampler the hint is 0 and this branch
    // never fires.
    const std::uint64_t hint =
        degraded_wall_hint_ns_.load(std::memory_order_relaxed);
    if (hint > budget_cfg.wall_ns && budget_cfg.wall_ns != 0) {
      budget_cfg.wall_ns = hint;
      adaptive_applied = true;
    }
  }
  std::uint64_t t_lane = trace_now_ns();
  const std::uint64_t edge_start = t_lane;  // for the whole-edge span
  for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
    const Timestamp delta = deltas_[lane];
    LaneCounters& counters = sink.lanes[lane];
    const std::size_t frontier =
        edge.src == edge.dst
            ? 0
            : graph_
                  .out_edges_in_window(edge.dst, edge.ts - delta, edge.ts - 1)
                  .size();
    const bool hot = !force_serial && edge.src != edge.dst &&
                     frontier >= options_.hot_frontier_threshold;

    EnumOptions eopts;
    eopts.max_cycle_length = options_.max_cycle_length;
    // Both thresholds read only the graph, so the serial/fine split and the
    // prune decision — hence cycle counts and edge visits — are
    // deterministic across schedules and thread counts, per lane. The
    // overload overrides are batch-stable, so determinism survives them for
    // a fixed push sequence.
    eopts.use_cycle_union =
        force_prune || (options_.use_reach_prune &&
                        frontier >= options_.prune_frontier_threshold);
    if (tr != nullptr) {
      // Decision instants reuse the lane's start timestamp: tracing the
      // escalate/prune verdicts costs no clock reads.
      if (hot) {
        tr->record_instant(wid, TraceName::kEscalated, t_lane, edge.id);
      }
      if (eopts.use_cycle_union) {
        tr->record_instant(wid, TraceName::kPruned, t_lane, edge.id);
      }
    }
    // A fresh budget per lane search: the deadline is per-search, and the
    // disabled case stays a null pointer all the way down the DFS.
    std::optional<SearchBudgetState> budget_state;
    SearchBudgetState* budget = nullptr;
    if (budget_cfg.enabled()) {
      budget_state.emplace(budget_cfg);
      budget = &*budget_state;
      if (adaptive_applied) {
        counters.work.adaptive_budget_applications += 1;
      }
    }
    std::uint64_t found = 0;
    const std::uint64_t truncated_before = counters.work.searches_truncated;
    if (hot) {
      counters.escalated += 1;
      found = fine_cycles_closed_by_edge(graph_, edge, delta, sched_, eopts,
                                         popts, *scratch, counters.work,
                                         effective_sinks_[lane], budget);
    } else {
      found = cycles_closed_by_edge(graph_, edge, delta, eopts, *scratch,
                                    counters.work, effective_sinks_[lane],
                                    budget);
    }
    counters.cycles += found;
    const std::uint64_t t_done = trace_now_ns();
    if (tr != nullptr &&
        counters.work.searches_truncated != truncated_before) {
      tr->record_instant(wid, TraceName::kSearchTruncated, t_done, edge.id);
    }
    counters.latency.record(t_done - t_lane);
    t_lane = t_done;  // next lane starts where this one ended: no extra read
  }
  if (tr != nullptr && t_lane - edge_start >= options_.trace_search_threshold_ns) {
    tr->record_span(wid, TraceName::kEdgeSearch, edge_start, t_lane, edge.id);
  }
  scratch_pool_.release(std::move(scratch));
}

StreamStats StreamEngine::stats() const {
  const std::unique_lock<std::mutex> lock = observer_lock();
  StreamStats stats;
  stats.edges_ingested = graph_.total_ingested();
  stats.edges_pushed = edges_pushed_;
  stats.late_edges_rejected = late_rejected_;
  stats.reorder_buffered = reorder_heap_.size();
  stats.reorder_peak_buffered = reorder_peak_buffered_;
  stats.reorder_max_seen = reorder_max_seen_;
  stats.reorder_floor = reorder_floor_;
  stats.batches = batches_;
  stats.expired_edges = graph_.total_expired();
  stats.live_edges = graph_.live_edges();
  stats.busy_seconds = busy_seconds_;

  stats.overload_level = overload_level_.load(std::memory_order_relaxed);
  stats.overload_shifts = overload_shifts_;
  stats.edges_shed = edges_shed_;
  stats.search_errors = search_errors_;

  stats.per_window.resize(deltas_.size());
  for (std::size_t lane = 0; lane < deltas_.size(); ++lane) {
    StreamWindowStats& ws = stats.per_window[lane];
    ws.window = deltas_[lane];
    for (const auto& sink : sinks_) {
      const LaneCounters& counters = sink->lanes[lane];
      ws.cycles_found += counters.cycles;
      ws.escalated_edges += counters.escalated;
      ws.work += counters.work;
      ws.latency.merge(counters.latency);
    }
    ws.latency_p50_ns = ws.latency.percentile(0.50);
    ws.latency_p99_ns = ws.latency.percentile(0.99);
    ws.latency_max_ns = ws.latency.max;
    if (sink_guards_[lane] != nullptr) {
      ws.sink = sink_guards_[lane]->stats();
    }

    stats.cycles_found += ws.cycles_found;
    stats.escalated_edges += ws.escalated_edges;
    stats.work += ws.work;
    stats.latency.merge(ws.latency);
    stats.sink_delivered += ws.sink.delivered;
    stats.sink_errors += ws.sink.errors;
    stats.sink_dropped += ws.sink.dropped;
    stats.sink_quarantined += ws.sink.quarantined ? 1 : 0;
  }
  stats.latency_p50_ns = stats.latency.percentile(0.50);
  stats.latency_p99_ns = stats.latency.percentile(0.99);
  stats.latency_max_ns = stats.latency.max;
  // Ingest-side pressure counters ride the aggregate WorkCounters so every
  // consumer of `work` (bench columns, CLI) sees them without new plumbing.
  stats.work.late_edges_rejected += late_rejected_;
  stats.work.graph_compactions += graph_.compactions();
  stats.work.edges_shed += edges_shed_;
  return stats;
}

}  // namespace parcycle
