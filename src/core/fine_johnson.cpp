#include "core/fine_johnson.hpp"

#include <atomic>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "core/johnson_impl.hpp"
#include "obs/trace.hpp"
#include "support/counter_sink.hpp"
#include "support/spinlock.hpp"

namespace parcycle {

namespace {

using detail::child_rem;
using detail::kUnboundedRem;

// Shared, immutable-after-setup context of one starting-edge search. Lives on
// the root task's stack; every nested TaskGroup waits before the root
// returns, so raw references from tasks are safe.
struct SearchContext;

// Whole-run shared state.
struct FineJohnsonRun {
  FineJohnsonRun(const TemporalGraph& graph_, Timestamp window_,
                 Scheduler& sched_, const EnumOptions& options_,
                 const ParallelOptions& popts_, CycleSink* sink_)
      : graph(graph_),
        window(window_),
        sched(sched_),
        options(options_),
        popts(popts_),
        sink(sink_),
        bounded(options_.max_cycle_length > 0),
        state_pool(sched_, [n = graph_.num_vertices()] {
          return std::make_unique<JohnsonState>(n);
        }),
        union_pool(sched_, [n = graph_.num_vertices()] {
          auto scratch = std::make_unique<CycleUnionScratch>();
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
  bool bounded;

  ScratchPool<JohnsonState> state_pool;
  ScratchPool<CycleUnionScratch> union_pool;

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

struct SearchContext {
  FineJohnsonRun& run;
  StartContext ctx;
};

// Recursive call on an already-resolved state. Returns true when the subtree
// found at least one cycle (Johnson's f flag).
bool fine_circuit(SearchContext& search, JohnsonState& st, VertexId v,
                  EdgeId via_edge, std::int32_t rem);

// Task body: resolve which state to run on (the copy-on-steal decision),
// then execute the recursive call for vertex `w`.
struct ChildTask {
  SearchContext* search;
  JohnsonState* creator_state;
  std::size_t prefix_len;
  VertexId w;
  EdgeId via_edge;
  std::int32_t rem;
  std::uint32_t creator_worker;
  std::atomic<bool>* found_flag;

  void operator()() const {
    FineJohnsonRun& run = search->run;
    JohnsonState* st = creator_state;
    std::unique_ptr<JohnsonState> owned;

    const bool same_worker =
        Scheduler::current_worker_id() == static_cast<int>(creator_worker);
    // Same-thread LIFO execution leaves the creator's state exactly at the
    // spawn-time prefix; anything else (a steal, or a sibling executed out of
    // its natural nesting while this worker helped another search) requires a
    // private copy.
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
        owned->repair_to_prefix(prefix_len);
      }
      st = owned.get();
    } else {
      st->counters.state_reuses += 1;
    }
    assert(st->path_length() == prefix_len);

    bool found = false;
    // Re-check visitability at execution time: the state evolved since the
    // spawn (serial Johnson checks each neighbor at its turn in the loop).
    if (search->ctx.vertex_allowed(w) && st->can_visit(w, rem)) {
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

// Spawning a ChildTask must stay on the zero-allocation slab path.
static_assert(spawn_uses_slab_v<ChildTask>,
              "ChildTask outgrew the scheduler's task-slab block");

bool fine_circuit(SearchContext& search, JohnsonState& st, VertexId v,
                  EdgeId via_edge, std::int32_t rem) {
  FineJohnsonRun& run = search.run;
  const StartContext& ctx = search.ctx;
  {
    // Entry critical section: the path/blocked mutation must not interleave
    // with a thief copying this state.
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
        detail::WindowedJohnsonSearch::report_cycle(st, e.id, run.sink,
                                                    edge_scratch);
        found = true;
      }
      continue;
    }
    const std::int32_t next = child_rem(rem, run.bounded);
    if (next < 1 || !ctx.vertex_allowed(e.dst)) {
      continue;
    }
    if (run.should_spawn()) {
      // Defer the blocked-check to execution time (see ChildTask). Spawning
      // an already-blocked child is allowed: it may have been unblocked by
      // the time it runs, exactly as in the serial neighbor loop.
      spawned = true;
      st.counters.tasks_spawned += 1;
      group.spawn(ChildTask{&search, &st, st.path_length(), e.dst, e.id, next,
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
    // Exit critical section: decide the blocked status of v. This is where
    // the recursive unblocking runs — the long critical section the paper
    // blames for Johnson's synchronisation overhead on low cycle-to-vertex
    // ratio graphs.
    LockGuard<Spinlock> guard(st.lock());
    if (found) {
      st.exit_success(v);
    } else {
      st.exit_failure(v, rem);
      for (const auto& e : run.graph.out_edges_in_window(v, ctx.t0, ctx.hi)) {
        if (e.id > ctx.e0 && e.dst != ctx.tail && ctx.vertex_allowed(e.dst)) {
          st.blist_add(e.dst, v);
        }
      }
    }
    st.pop();
  }
  return found;
}

// Runs the complete search for one starting edge.
void search_root(FineJohnsonRun& run, const TemporalEdge& e0) {
  TraceSpan trace(run.sched.tracer(),
                  static_cast<unsigned>(Scheduler::current_worker_id()),
                  TraceName::kSearchRoot, e0.id);
  if (e0.src == e0.dst) {
    if (run.sink != nullptr) {
      run.sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
    }
    WorkCounters counters;
    counters.cycles_found = 1;
    run.merge_counters(counters);
    return;
  }
  auto cycle_union = run.union_pool.acquire();
  SearchContext search{run, {}};
  if (!detail::WindowedJohnsonSearch::prepare_start(
          run.graph, e0, run.window, run.options.use_cycle_union,
          cycle_union.get(), search.ctx)) {
    run.union_pool.release(std::move(cycle_union));
    return;
  }
  auto state = run.state_pool.acquire();
  state->reset();
  {
    LockGuard<Spinlock> guard(state->lock());
    state->push(search.ctx.tail, kInvalidEdge);
  }
  const std::int32_t rem0 =
      run.bounded ? run.options.max_cycle_length - 1 : kUnboundedRem;
  if (rem0 >= 1) {
    // fine_circuit waits for every nested task before returning, so the
    // stack-allocated SearchContext and the pooled scratch stay valid for
    // the lifetime of the whole subtree.
    fine_circuit(search, *state, search.ctx.head, e0.id, rem0);
  }
  run.merge_counters(state->counters);
  run.state_pool.release(std::move(state));
  run.union_pool.release(std::move(cycle_union));
}

}  // namespace

EnumResult fine_johnson_windowed_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options,
                                        const ParallelOptions& popts,
                                        CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  FineJohnsonRun run(graph, window, sched, options, popts, sink);
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
