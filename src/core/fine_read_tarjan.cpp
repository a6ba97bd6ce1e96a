#include "core/fine_read_tarjan.hpp"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "core/johnson_impl.hpp"  // prepare_start
#include "core/read_tarjan_impl.hpp"
#include "obs/trace.hpp"
#include "support/counter_sink.hpp"

namespace parcycle {

namespace {

struct FineRTRun {
  FineRTRun(const TemporalGraph& graph_, Timestamp window_, Scheduler& sched_,
            const EnumOptions& options_, const ParallelOptions& popts_,
            CycleSink* sink_)
      : graph(graph_),
        window(window_),
        sched(sched_),
        options(options_),
        popts(popts_),
        sink(sink_),
        state_pool(sched_, [n = graph_.num_vertices()] {
          return std::make_unique<ReadTarjanState>(n);
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

  ScratchPool<ReadTarjanState> state_pool;
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
  FineRTRun& run;
  StartContext ctx;
};

void exec_call(SearchContext& search, ReadTarjanState& st,
               detail::RTChild&& child);

// Task body for a deferred Read-Tarjan call.
struct RTTask {
  SearchContext* search;
  ReadTarjanState* creator_state;
  std::uint32_t creator_worker;
  detail::RTChild child;

  void operator()() {
    FineRTRun& run = search->run;
    const bool same_worker =
        Scheduler::current_worker_id() == static_cast<int>(creator_worker);
    // In-place reuse is only legal when rewinding to the child's prefix
    // cannot clobber a live inline frame of the creator state (see the floor
    // comment in rt_state.hpp). Otherwise fall back to the steal path even on
    // the same worker.
    if (same_worker && child.path_len >= creator_state->floor()) {
      creator_state->counters.state_reuses += 1;
      exec_call(*search, *creator_state, std::move(child));
      return;
    }
    // Steal path: replay the spawn-time prefix into a private state. Entries
    // below the prefix are immutable while this task is alive (the spawning
    // call's TaskGroup::wait pins them), so the copy needs no lock.
    auto owned = run.state_pool.acquire();
    owned->reset();
    owned->copy_prefix_from(*creator_state, child.path_len, child.log_len);
    exec_call(*search, *owned, std::move(child));
    run.merge_counters(owned->counters);
    run.state_pool.release(std::move(owned));
  }
};

// Spawning an RTTask must stay on the zero-allocation slab path.
static_assert(spawn_uses_slab_v<RTTask>,
              "RTTask outgrew the scheduler's task-slab block");

// Executes one Read-Tarjan call: rewinds the state to the child's prefix,
// walks its extension (reporting the cycle and collecting alternates), then
// runs the collected children — a shallowest-prefix block as stealable tasks,
// the rest inline depth-first. Waits for all spawned descendants before
// returning, keeping every live task's prefix stable.
void exec_call(SearchContext& search, ReadTarjanState& st,
               detail::RTChild&& child) {
  FineRTRun& run = search.run;
  st.truncate_path(child.path_len);
  st.truncate_log(child.log_len);
  const std::size_t saved_floor = st.floor();
  st.set_floor(child.path_len);

  detail::WindowedRTCore core(run.graph, run.options, run.sink);
  core.bind(st, search.ctx);

  std::vector<detail::RTChild> collected;
  core.walk(child.ext, child.excluded_edges,
            [&collected](detail::RTChild&& c) {
              collected.push_back(std::move(c));
            });

  TaskGroup group(run.sched);
  bool spawned = false;
  // Children arrive ordered by increasing path prefix. Spawn a shallow block
  // (big subtrees, best to steal) while the policy wants more stealable
  // work; inline tasks never rewind below a spawned sibling's prefix because
  // spawned prefixes are the shallowest of the batch.
  std::size_t first_inline = 0;
  while (first_inline < collected.size() && run.should_spawn()) {
    spawned = true;
    st.counters.tasks_spawned += 1;
    group.spawn(RTTask{
        &search, &st,
        static_cast<std::uint32_t>(Scheduler::current_worker_id()),
        std::move(collected[first_inline])});
    first_inline += 1;
  }
  // Inline children run deepest-first so rewinds are monotone.
  for (std::size_t i = collected.size(); i-- > first_inline;) {
    exec_call(search, st, std::move(collected[i]));
  }
  if (spawned) {
    group.wait();
  }
  st.set_floor(saved_floor);
}

void search_root(FineRTRun& run, const TemporalEdge& e0) {
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
  if (run.options.max_cycle_length == 1) {
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
  state->push(search.ctx.tail, kInvalidEdge);
  state->push(search.ctx.head, e0.id);

  detail::WindowedRTCore core(run.graph, run.options, run.sink);
  core.bind(*state, search.ctx);
  detail::ExtPath root_ext;
  if (core.find_root_extension(root_ext)) {
    // exec_call waits for every nested task before returning, so the
    // stack-allocated SearchContext and pooled scratch outlive the subtree.
    exec_call(search, *state,
              detail::RTChild{state->path_length(),
                              state->log_length(),
                              std::move(root_ext),
                              {},
                              {}});
  }
  run.merge_counters(state->counters);
  run.state_pool.release(std::move(state));
  run.union_pool.release(std::move(cycle_union));
}

}  // namespace

EnumResult fine_read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                            Timestamp window, Scheduler& sched,
                                            const EnumOptions& options,
                                            const ParallelOptions& popts,
                                            CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  FineRTRun run(graph, window, sched, options, popts, sink);
  const auto edges = graph.edges_by_time();
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
