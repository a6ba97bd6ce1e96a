#include "temporal/temporal_read_tarjan.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/johnson_impl.hpp"   // kUnboundedRem / child_rem
#include "core/johnson_state.hpp"  // ScratchPool
#include "support/counter_sink.hpp"
#include "support/spinlock.hpp"
#include "temporal/cycle_union.hpp"
#include "temporal/temporal_rt_state.hpp"

namespace parcycle {

namespace {

// One hop of a temporal path extension.
struct TExtStep {
  VertexId dst;
  EdgeId edge;
  Timestamp ts;
};

using TExtPath = std::vector<TExtStep>;

struct TRTChild {
  std::size_t path_len;
  std::size_t log_len;
  TExtPath ext;
  std::vector<EdgeId> excluded;  // first-hop exclusions at the entry frontier
};

using TChildFn = std::function<void(TRTChild&&)>;

// ---------------------------------------------------------------------------
// Search core shared by all drivers.
// ---------------------------------------------------------------------------
class TemporalRTCore {
 public:
  TemporalRTCore(const TemporalGraph& graph, const EnumOptions& options,
                 CycleSink* sink)
      : graph_(graph),
        options_(options),
        sink_(sink),
        bounded_(options.max_cycle_length > 0) {}

  void bind(TemporalRTState& state, VertexId tail, Timestamp hi,
            const TemporalReachScratch* reach) {
    state_ = &state;
    tail_ = tail;
    hi_ = hi;
    reach_ = reach;
  }

  bool find_root_extension(TExtPath& out) {
    static const std::vector<EdgeId> kNone;
    return find_alternate(kNone, out);
  }

  // One Read-Tarjan call: report path+ext, walk it, emit children.
  std::uint64_t walk(const TExtPath& ext,
                     const std::vector<EdgeId>& excluded_first,
                     const TChildFn& on_child) {
    TemporalRTState& st = *state_;
    report(ext);
    std::vector<EdgeId> excluded;
    TExtPath alt;
    for (std::size_t i = 0; i < ext.size(); ++i) {
      excluded.clear();
      if (i == 0) {
        excluded = excluded_first;
      }
      excluded.push_back(ext[i].edge);
      if (find_alternate(excluded, alt)) {
        TRTChild child;
        child.path_len = st.path_length();
        child.log_len = st.log_length();
        child.ext = std::move(alt);
        child.excluded = excluded;
        alt.clear();
        on_child(std::move(child));
      }
      if (i + 1 < ext.size()) {
        st.push(ext[i].dst, ext[i].edge, ext[i].ts);
      }
    }
    return 1;
  }

  bool find_alternate(const std::vector<EdgeId>& excluded, TExtPath& out) {
    TemporalRTState& st = *state_;
    const VertexId frontier = st.frontier();
    const Timestamp arrival = st.frontier_arrival();
    if (bounded_ &&
        remaining_budget() < 1) {
      return false;
    }
    out.clear();
    const auto is_excluded = [&excluded](EdgeId id) {
      return std::find(excluded.begin(), excluded.end(), id) != excluded.end();
    };
    for (const auto& e :
         graph_.out_edges_in_window(frontier, arrival + 1, hi_)) {
      if (is_excluded(e.id)) {
        continue;
      }
      st.counters.edges_visited += 1;
      if (e.dst == tail_) {
        out.push_back(TExtStep{e.dst, e.id, e.ts});
        return true;
      }
      if (!admissible(e.dst, e.ts)) {
        continue;
      }
      const std::size_t candidate_log = st.log_length();
      st.logged_set(e.dst, e.ts);
      if (dfs_to_tail(e.dst, e.ts,
                      bounded_ ? remaining_budget() - 1 : detail::kUnboundedRem,
                      out)) {
        // Drop the successful candidate's marks: its side branches failed
        // against tentatively-blocked stack vertices.
        st.truncate_log(candidate_log);
        out.push_back(TExtStep{e.dst, e.id, e.ts});
        std::reverse(out.begin(), out.end());
        return true;
      }
      if (bounded_) {
        // Budget-dependent failures are not reusable facts; keep the log
        // clean so marks only ever describe the live DFS stack.
        st.truncate_log(candidate_log);
      }
    }
    return false;
  }

 private:
  bool admissible(VertexId w, Timestamp ts) const {
    if (reach_ != nullptr && !reach_->contains(w)) {
      return false;
    }
    // In bounded mode the fail marks only ever describe the live DFS stack
    // (they are rewound on every failure), so this doubles as the
    // extension-simplicity check in both modes.
    return state_->can_visit(w, ts);
  }

  std::int32_t remaining_budget() const {
    // Edges used so far = path_length() - 1; an extension needs at least one
    // more edge.
    return options_.max_cycle_length -
           static_cast<std::int32_t>(state_->path_length() - 1);
  }

  bool dfs_to_tail(VertexId u, Timestamp arrival, std::int32_t budget,
                   TExtPath& out) {
    TemporalRTState& st = *state_;
    st.counters.vertices_visited += 1;
    for (const auto& e : graph_.out_edges_in_window(u, arrival + 1, hi_)) {
      st.counters.edges_visited += 1;
      if (e.dst == tail_) {
        if (budget >= 1) {
          out.push_back(TExtStep{e.dst, e.id, e.ts});
          return true;
        }
        continue;
      }
      const std::int32_t next = detail::child_rem(budget, bounded_);
      if (next < 1 || !admissible(e.dst, e.ts)) {
        continue;
      }
      // Tentative arrival mark: keeps the extension vertex-simple. In the
      // unbounded mode it is kept on full failure (a sound dead-end record)
      // and rolled back by find_alternate on success; in the bounded mode it
      // is rolled back on failure too (budget-dependent failures are not
      // reusable facts).
      const std::size_t mark = st.log_length();
      st.logged_set(e.dst, e.ts);
      if (dfs_to_tail(e.dst, e.ts, next, out)) {
        out.push_back(TExtStep{e.dst, e.id, e.ts});
        return true;
      }
      if (bounded_) {
        st.truncate_log(mark);
      }
    }
    return false;
  }

  void report(const TExtPath& ext) {
    TemporalRTState& st = *state_;
    st.counters.cycles_found += 1;
    if (sink_ == nullptr) {
      return;
    }
    vertex_scratch_.clear();
    edge_scratch_.clear();
    for (std::size_t i = 0; i < st.path_length(); ++i) {
      vertex_scratch_.push_back(st.path_vertex(i));
      if (i > 0) {
        edge_scratch_.push_back(st.path_edge(i));
      }
    }
    for (std::size_t i = 0; i + 1 < ext.size(); ++i) {
      vertex_scratch_.push_back(ext[i].dst);
    }
    for (const auto& step : ext) {
      edge_scratch_.push_back(step.edge);
    }
    sink_->on_cycle({vertex_scratch_.data(), vertex_scratch_.size()},
                    {edge_scratch_.data(), edge_scratch_.size()});
  }

  const TemporalGraph& graph_;
  const EnumOptions& options_;
  CycleSink* sink_;
  bool bounded_;
  TemporalRTState* state_ = nullptr;
  VertexId tail_ = kInvalidVertex;
  Timestamp hi_ = 0;
  const TemporalReachScratch* reach_ = nullptr;
  std::vector<VertexId> vertex_scratch_;
  std::vector<EdgeId> edge_scratch_;
};

// Adjacency prefilter, then (with use_cycle_union) the cycle-union prune:
// false when the start can be skipped. Adds the prune's scanned edges to
// `counters`.
bool start_passes(const TemporalGraph& graph, const TemporalEdge& e0,
                  Timestamp hi, const EnumOptions& options,
                  TemporalReachScratch& reach, WorkCounters& counters) {
  if (options.max_cycle_length == 1) {
    return false;  // only self-loops, handled by the drivers
  }
  if (graph.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() ||
      graph.in_edges_in_window(e0.src, e0.ts + 1, hi).empty()) {
    return false;
  }
  if (!options.use_cycle_union) {
    return true;
  }
  const bool passed = reach.compute(graph, e0, hi);
  counters.prune_edges_scanned += reach.take_edges_scanned();
  return passed;
}

// Binds `core` and pushes the root [tail, head] onto a reset state.
void push_start(const TemporalEdge& e0, Timestamp hi,
                const EnumOptions& options, const TemporalReachScratch& reach,
                TemporalRTState& state, TemporalRTCore& core) {
  core.bind(state, e0.src, hi, options.use_cycle_union ? &reach : nullptr);
  state.push(e0.src, kInvalidEdge, e0.ts);  // tail pinned; arrival unused
  state.push(e0.dst, e0.id, e0.ts);
}

// Depth-first drain used by the serial and coarse drivers.
std::uint64_t drain(TemporalRTCore& core, TemporalRTState& state,
                    std::vector<TRTChild>& pending) {
  std::uint64_t cycles = 0;
  const TChildFn collect = [&pending](TRTChild&& child) {
    pending.push_back(std::move(child));
  };
  while (!pending.empty()) {
    TRTChild child = std::move(pending.back());
    pending.pop_back();
    state.truncate_path(child.path_len);
    state.truncate_log(child.log_len);
    cycles += core.walk(child.ext, child.excluded, collect);
  }
  return cycles;
}

struct TRTScratch {
  explicit TRTScratch(VertexId n) : state(n) { reach.init(n); }
  TemporalRTState state;
  TemporalReachScratch reach;
  std::vector<TRTChild> pending;
};

struct SharedResult {
  Spinlock lock;
  EnumResult result;
  void merge(std::uint64_t cycles, const WorkCounters& counters) {
    LockGuard<Spinlock> guard(lock);
    result.num_cycles += cycles;
    result.work += counters;
  }
};

std::uint64_t run_start(const TemporalGraph& graph, const TemporalEdge& e0,
                        Timestamp window, const EnumOptions& options,
                        CycleSink* sink, TRTScratch& scratch) {
  scratch.state.reset();
  const Timestamp hi = e0.ts + window;
  if (!start_passes(graph, e0, hi, options, scratch.reach,
                    scratch.state.counters)) {
    return 0;
  }
  TemporalRTCore core(graph, options, sink);
  push_start(e0, hi, options, scratch.reach, scratch.state, core);
  TExtPath root_ext;
  if (!core.find_root_extension(root_ext)) {
    return 0;
  }
  scratch.pending.push_back(TRTChild{scratch.state.path_length(),
                                     scratch.state.log_length(),
                                     std::move(root_ext),
                                     {}});
  return drain(core, scratch.state, scratch.pending);
}

}  // namespace

// ---------------------------------------------------------------------------
// Serial driver
// ---------------------------------------------------------------------------

EnumResult temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                       Timestamp window,
                                       const EnumOptions& options,
                                       CycleSink* sink) {
  EnumResult result;
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return result;
  }
  TRTScratch scratch(n);
  for (const auto& e0 : graph.edges_by_time()) {
    if (e0.src == e0.dst) {
      result.num_cycles += 1;
      result.work.cycles_found += 1;
      if (sink != nullptr) {
        sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
      }
      continue;
    }
    result.num_cycles += run_start(graph, e0, window, options, sink, scratch);
    result.work += scratch.state.counters;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Coarse-grained driver
// ---------------------------------------------------------------------------

EnumResult coarse_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                              Timestamp window,
                                              Scheduler& sched,
                                              const EnumOptions& options,
                                              CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return {};
  }
  SharedResult shared;
  ScratchPool<TRTScratch> pool(
      sched, [n] { return std::make_unique<TRTScratch>(n); });
  const auto edges = graph.edges_by_time();
  parallel_for_each_index(sched, 0, edges.size(), [&](std::size_t i) {
    const TemporalEdge& e0 = edges[i];
    if (e0.src == e0.dst) {
      if (sink != nullptr) {
        sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
      }
      WorkCounters counters;
      counters.cycles_found = 1;
      shared.merge(1, counters);
      return;
    }
    auto scratch = pool.acquire();
    const std::uint64_t cycles =
        run_start(graph, e0, window, options, sink, *scratch);
    shared.merge(cycles, scratch->state.counters);
    pool.release(std::move(scratch));
  });
  return shared.result;
}

// ---------------------------------------------------------------------------
// Fine-grained driver: mirrors core/fine_read_tarjan.cpp.
// ---------------------------------------------------------------------------

namespace {

struct FineTRTRun {
  FineTRTRun(const TemporalGraph& graph_, Timestamp window_,
             Scheduler& sched_, const EnumOptions& options_,
             const ParallelOptions& popts_, CycleSink* sink_)
      : graph(graph_),
        window(window_),
        sched(sched_),
        options(options_),
        popts(popts_),
        sink(sink_),
        state_pool(sched_, [n = graph_.num_vertices()] {
          return std::make_unique<TemporalRTState>(n);
        }),
        reach_pool(sched_, [n = graph_.num_vertices()] {
          auto scratch = std::make_unique<TemporalReachScratch>();
          scratch->init(n);
          return scratch;
        }),
        counter_sinks(sched_) {}

  const TemporalGraph& graph;
  Timestamp window;
  Scheduler& sched;
  EnumOptions options;
  ParallelOptions popts;
  CycleSink* sink;

  ScratchPool<TemporalRTState> state_pool;
  ScratchPool<TemporalReachScratch> reach_pool;

  // Per-worker sinks, summed once after the run's final wait.
  PerWorkerCounters counter_sinks;

  void merge_counters(const WorkCounters& counters) {
    counter_sinks.merge(counters);
  }

  bool should_spawn() const {
    switch (popts.spawn_policy) {
      case SpawnPolicy::kAlways:
        return true;
      case SpawnPolicy::kAdaptive:
        return sched.local_queue_size() < popts.spawn_queue_threshold;
    }
    return true;
  }
};

struct FineTRTContext {
  FineTRTRun& run;
  VertexId tail = kInvalidVertex;
  Timestamp hi = 0;
  const TemporalReachScratch* reach = nullptr;
};

void trt_exec_call(FineTRTContext& search, TemporalRTState& st,
                   TRTChild&& child);

struct TRTTask {
  FineTRTContext* search;
  TemporalRTState* creator_state;
  std::uint32_t creator_worker;
  TRTChild child;

  void operator()() {
    FineTRTRun& run = search->run;
    const bool same_worker =
        Scheduler::current_worker_id() == static_cast<int>(creator_worker);
    if (same_worker && child.path_len >= creator_state->floor()) {
      creator_state->counters.state_reuses += 1;
      trt_exec_call(*search, *creator_state, std::move(child));
      return;
    }
    auto owned = run.state_pool.acquire();
    owned->reset();
    owned->copy_prefix_from(*creator_state, child.path_len, child.log_len);
    trt_exec_call(*search, *owned, std::move(child));
    run.merge_counters(owned->counters);
    run.state_pool.release(std::move(owned));
  }
};

// Spawning a TRTTask must stay on the zero-allocation slab path.
static_assert(spawn_uses_slab_v<TRTTask>,
              "TRTTask outgrew the scheduler's task-slab block");

void trt_exec_call(FineTRTContext& search, TemporalRTState& st,
                   TRTChild&& child) {
  FineTRTRun& run = search.run;
  st.truncate_path(child.path_len);
  st.truncate_log(child.log_len);
  const std::size_t saved_floor = st.floor();
  st.set_floor(child.path_len);

  TemporalRTCore core(run.graph, run.options, run.sink);
  core.bind(st, search.tail, search.hi, search.reach);

  std::vector<TRTChild> collected;
  core.walk(child.ext, child.excluded, [&collected](TRTChild&& c) {
    collected.push_back(std::move(c));
  });

  TaskGroup group(run.sched);
  bool spawned = false;
  std::size_t first_inline = 0;
  while (first_inline < collected.size() && run.should_spawn()) {
    spawned = true;
    st.counters.tasks_spawned += 1;
    group.spawn(TRTTask{
        &search, &st,
        static_cast<std::uint32_t>(Scheduler::current_worker_id()),
        std::move(collected[first_inline])});
    first_inline += 1;
  }
  for (std::size_t i = collected.size(); i-- > first_inline;) {
    trt_exec_call(search, st, std::move(collected[i]));
  }
  if (spawned) {
    group.wait();
  }
  st.set_floor(saved_floor);
}

void trt_search_root(FineTRTRun& run, const TemporalEdge& e0) {
  if (e0.src == e0.dst) {
    if (run.sink != nullptr) {
      run.sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
    }
    WorkCounters counters;
    counters.cycles_found = 1;
    run.merge_counters(counters);
    return;
  }
  // The prune rejects most starts, so the search state is taken only once
  // it has passed.
  const Timestamp hi = e0.ts + run.window;
  auto reach = run.reach_pool.acquire();
  WorkCounters prune;
  if (!start_passes(run.graph, e0, hi, run.options, *reach, prune)) {
    if (prune.prune_edges_scanned != 0) {
      run.merge_counters(prune);
    }
    run.reach_pool.release(std::move(reach));
    return;
  }
  auto state = run.state_pool.acquire();
  state->reset();
  state->counters.prune_edges_scanned = prune.prune_edges_scanned;
  TemporalRTCore core(run.graph, run.options, run.sink);
  push_start(e0, hi, run.options, *reach, *state, core);
  FineTRTContext search{
      run, e0.src, hi, run.options.use_cycle_union ? reach.get() : nullptr};
  TExtPath root_ext;
  if (core.find_root_extension(root_ext)) {
    trt_exec_call(search, *state,
                  TRTChild{state->path_length(),
                           state->log_length(),
                           std::move(root_ext),
                           {}});
  }
  run.merge_counters(state->counters);
  run.state_pool.release(std::move(state));
  run.reach_pool.release(std::move(reach));
}

}  // namespace

EnumResult fine_temporal_read_tarjan_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options,
                                            const ParallelOptions& popts,
                                            CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  FineTRTRun run(graph, window, sched, options, popts, sink);
  const auto edges = graph.edges_by_time();
  const std::size_t num_chunks =
      std::max<std::size_t>(std::size_t{32} * sched.num_workers(), 1);
  parallel_for_chunked(sched, 0, edges.size(), num_chunks,
                       [&](std::size_t i) { trt_search_root(run, edges[i]); });
  EnumResult result;
  result.work = run.counter_sinks.total();
  result.num_cycles = result.work.cycles_found;
  return result;
}

}  // namespace parcycle
