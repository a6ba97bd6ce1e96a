#include "core/fine_hc_dfs.hpp"

#include <atomic>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "core/hc_dfs.hpp"
#include "core/hc_state.hpp"
#include "core/johnson_state.hpp"  // ScratchPool
#include "obs/trace.hpp"
#include "support/counter_sink.hpp"
#include "support/spinlock.hpp"

namespace parcycle {

namespace {

struct HcSearchContext;

// Whole-run shared state.
struct FineHcRun {
  FineHcRun(const TemporalGraph& graph_, Timestamp window_, int max_hops_,
            Scheduler& sched_, const EnumOptions& options_,
            const ParallelOptions& popts_, CycleSink* sink_)
      : graph(graph_),
        window(window_),
        max_hops(max_hops_),
        sched(sched_),
        options(options_),
        popts(popts_),
        sink(sink_),
        state_pool(sched_, [n = graph_.num_vertices()] {
          return std::make_unique<HcState>(n);
        }),
        dist_pool(sched_, [n = graph_.num_vertices()] {
          auto scratch = std::make_unique<HcDistScratch>();
          scratch->init(n);
          return scratch;
        }),
        counter_sinks(sched_) {}

  const TemporalGraph& graph;
  Timestamp window;
  int max_hops;
  Scheduler& sched;
  EnumOptions options;
  ParallelOptions popts;
  CycleSink* sink;

  ScratchPool<HcState> state_pool;
  ScratchPool<HcDistScratch> dist_pool;

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

// Shared, immutable-after-setup context of one starting-edge search. Lives on
// the root task's stack; every nested TaskGroup waits before the root
// returns, so raw references from tasks are safe.
struct HcSearchContext {
  FineHcRun& run;
  StartContext ctx;
  const HcDistScratch* dist;
};

bool fine_circuit(HcSearchContext& search, HcState& st, VertexId v,
                  EdgeId via_edge, std::int32_t rem);

// Task body: resolve which state to run on (the copy-on-steal decision),
// then execute the recursive call for vertex `w`.
struct HcChildTask {
  HcSearchContext* search;
  HcState* creator_state;
  std::size_t prefix_len;
  std::size_t trail_mark;  // creator's trail size at spawn time
  VertexId w;
  EdgeId via_edge;
  std::int32_t rem;
  std::uint32_t creator_worker;
  std::atomic<bool>* found_flag;

  void operator()() const {
    FineHcRun& run = search->run;
    HcState* st = creator_state;
    std::unique_ptr<HcState> owned;

    const bool same_worker =
        Scheduler::current_worker_id() == static_cast<int>(creator_worker);
    // Same-thread LIFO execution leaves the creator's state exactly at the
    // spawn-time path prefix (the trail may have grown with still-valid
    // sibling barriers); anything else requires a private copy.
    const bool reuse = same_worker && st->path_length() == prefix_len;
    if (!reuse) {
      owned = run.state_pool.acquire();
      owned->reset();
      {
        LockGuard<Spinlock> guard(creator_state->lock());
        owned->copy_from(*creator_state);
      }
      if (run.popts.naive_state_restore) {
        owned->naive_restore_to_prefix(prefix_len);
      } else {
        owned->repair_to_prefix(prefix_len, trail_mark);
      }
      st = owned.get();
    } else {
      st->counters.state_reuses += 1;
    }
    assert(st->path_length() == prefix_len);

    bool found = false;
    // Re-check the barrier at execution time: the state evolved since the
    // spawn (the serial search checks each neighbor at its turn in the loop).
    if (st->can_visit(w, rem)) {
      found = fine_circuit(*search, *st, w, via_edge, rem);
    }
    if (found) {
      found_flag->store(true, std::memory_order_release);
    }
    if (owned != nullptr) {
      run.merge_counters(owned->counters);
      run.state_pool.release(std::move(owned));
    }
  }
};

// Spawning an HcChildTask must stay on the zero-allocation slab path.
static_assert(spawn_uses_slab_v<HcChildTask>,
              "HcChildTask outgrew the scheduler's task-slab block");

bool fine_circuit(HcSearchContext& search, HcState& st, VertexId v,
                  EdgeId via_edge, std::int32_t rem) {
  FineHcRun& run = search.run;
  const StartContext& ctx = search.ctx;
  {
    // Entry critical section: the path mutation must not interleave with a
    // thief copying this state.
    LockGuard<Spinlock> guard(st.lock());
    st.push(v, via_edge);
  }
  st.counters.vertices_visited += 1;

  TaskGroup group(run.sched);
  std::atomic<bool> stolen_found{false};
  bool found = false;
  bool spawned = false;
  std::vector<EdgeId> edge_scratch;

  for (const auto& e : run.graph.out_edges_in_window(v, ctx.t0, ctx.hi)) {
    if (e.id <= ctx.e0) {
      continue;
    }
    st.counters.edges_visited += 1;
    if (e.dst == ctx.tail) {
      if (rem >= 1) {
        st.counters.cycles_found += 1;
        detail::HcWindowedSearch::report_cycle(st, e.id, run.sink,
                                               edge_scratch);
        found = true;
      }
      continue;
    }
    const std::int32_t next = rem - 1;
    // The hop-distance map is immutable, so its pruning is decided here;
    // only the barrier check is deferred to execution time.
    if (next < 1 || next < search.dist->dist_to_target(e.dst)) {
      continue;
    }
    if (run.should_spawn()) {
      // Spawning an already-barred child is allowed: its barrier may have
      // been rolled back by the time it runs, exactly as in the serial loop.
      spawned = true;
      st.counters.tasks_spawned += 1;
      group.spawn(HcChildTask{&search, &st, st.path_length(), st.trail_size(),
                              e.dst, e.id, next,
                              static_cast<std::uint32_t>(
                                  Scheduler::current_worker_id()),
                              &stolen_found});
    } else if (st.can_visit(e.dst, next)) {
      found |= fine_circuit(search, st, e.dst, e.id, next);
    }
  }
  if (spawned) {
    group.wait();
    found |= stolen_found.load(std::memory_order_acquire);
  }

  {
    // Exit critical section: unlike fine-Johnson's recursive unblocking this
    // is a bounded LIFO trail rollback (success) or a single barrier raise
    // (failure) — the short-critical-section property that motivates BC-DFS.
    LockGuard<Spinlock> guard(st.lock());
    if (found) {
      st.exit_success(v);
    } else {
      st.exit_failure(v, rem);
    }
    st.pop();
  }
  return found;
}

// Runs the complete search for one starting edge.
void search_root(FineHcRun& run, const TemporalEdge& e0) {
  TraceSpan trace(run.sched.tracer(),
                  static_cast<unsigned>(Scheduler::current_worker_id()),
                  TraceName::kSearchRoot, e0.id);
  if (e0.src == e0.dst) {
    if (run.max_hops >= 1) {
      if (run.sink != nullptr) {
        run.sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
      }
      WorkCounters counters;
      counters.cycles_found = 1;
      run.merge_counters(counters);
    }
    return;
  }
  auto dist = run.dist_pool.acquire();
  HcSearchContext search{run, {}, dist.get()};
  if (!detail::HcWindowedSearch::prepare_start(run.graph, e0, run.window,
                                               run.max_hops, *dist,
                                               search.ctx)) {
    run.dist_pool.release(std::move(dist));
    return;
  }
  auto state = run.state_pool.acquire();
  state->reset();
  {
    LockGuard<Spinlock> guard(state->lock());
    state->push(search.ctx.tail, kInvalidEdge);
  }
  // fine_circuit waits for every nested task before returning, so the
  // stack-allocated HcSearchContext and the pooled scratch stay valid for
  // the lifetime of the whole subtree.
  fine_circuit(search, *state, search.ctx.head, e0.id, run.max_hops - 1);
  run.merge_counters(state->counters);
  run.state_pool.release(std::move(state));
  run.dist_pool.release(std::move(dist));
}

}  // namespace

EnumResult fine_hc_windowed_cycles(const TemporalGraph& graph,
                                   Timestamp window, int max_hops,
                                   Scheduler& sched,
                                   const EnumOptions& options,
                                   const ParallelOptions& popts,
                                   CycleSink* sink) {
  if (graph.num_vertices() == 0 || max_hops < 1) {
    return {};
  }
  FineHcRun run(graph, window, max_hops, sched, options, popts, sink);
  const auto edges = graph.edges_by_time();
  // Starting edges are processed in chunks (mirroring the paper's
  // timestamp-ordered distribution of starting edges); load balance within a
  // chunk comes from the fine-grained tasks themselves.
  const std::size_t num_chunks =
      std::max<std::size_t>(std::size_t{32} * sched.num_workers(), 1);
  parallel_for_chunked(sched, 0, edges.size(), num_chunks,
                       [&](std::size_t i) { search_root(run, edges[i]); });
  EnumResult result;
  result.work = run.counter_sinks.total();
  result.num_cycles = result.work.cycles_found;
  return result;
}

}  // namespace parcycle
