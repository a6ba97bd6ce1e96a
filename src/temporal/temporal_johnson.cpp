#include "temporal/temporal_johnson.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/johnson_impl.hpp"  // kUnboundedRem / child_rem
#include "core/johnson_state.hpp"  // ScratchPool
#include "support/counter_sink.hpp"
#include "support/spinlock.hpp"
#include "temporal/temporal_johnson_impl.hpp"

namespace parcycle {

namespace detail {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

bool TemporalJohnsonSearch::root_passes(const TemporalGraph& graph,
                                        const TemporalEdge& e0, Timestamp hi,
                                        TemporalReachScratch* reach,
                                        WorkCounters& counters) {
  // The head must have a strictly-later out-edge and the tail a later
  // in-edge, or no temporal cycle through e0 exists.
  if (graph.out_edges_in_window(e0.dst, e0.ts + 1, hi).empty() ||
      graph.in_edges_in_window(e0.src, e0.ts + 1, hi).empty()) {
    return false;
  }
  if (reach == nullptr) {
    return true;
  }
  const bool passed = reach->compute(graph, e0, hi);
  counters.prune_edges_scanned += reach->take_edges_scanned();
  return passed;
}

void TemporalJohnsonSearch::push_root(ClosingTimeState& state,
                                      const TemporalEdge& e0) {
  state.push(e0.src);  // tail; empty bundle, only pins the vertex
  ClosingTimeState::Hop& head = state.push(e0.dst);
  head.edges.push_back(BundleEdge{e0.ts, e0.id, 1});
}

void TemporalJohnsonSearch::report_instances(const ClosingTimeState& state,
                                             VertexId tail,
                                             const BundleEdge& closing,
                                             CycleSink* sink) {
  if (sink == nullptr) {
    return;
  }
  const std::size_t len = state.path_length();
  std::vector<VertexId> vertices(len);
  for (std::size_t i = 0; i < len; ++i) {
    vertices[i] = state.hop(i).vertex;
  }
  assert(vertices[0] == tail);
  (void)tail;
  std::vector<EdgeId> edges(len);
  edges[len - 1] = closing.id;

  // Depth-first expansion of every strictly-increasing edge selection. Hop h
  // (h >= 1) selects the inbound edge of vertices[h], stored at edges[h-1];
  // every selected timestamp must precede the closing edge's.
  const std::function<void(std::size_t, Timestamp)> expand =
      [&](std::size_t hop, Timestamp prev_ts) {
        if (hop == len) {
          sink->on_cycle({vertices.data(), len}, {edges.data(), len});
          return;
        }
        for (const BundleEdge& edge : state.hop(hop).edges) {
          if (edge.ts <= prev_ts) {
            continue;
          }
          if (edge.ts >= closing.ts) {
            break;  // edges ascend by ts: nothing later can fit
          }
          edges[hop - 1] = edge.id;
          expand(hop + 1, edge.ts);
        }
      };
  expand(1, std::numeric_limits<Timestamp>::min());
}

// ---------------------------------------------------------------------------
// Serial search
// ---------------------------------------------------------------------------

std::uint64_t TemporalJohnsonSearch::search_from(const TemporalEdge& e0,
                                                 ClosingTimeState& state,
                                                 TemporalReachScratch* reach) {
  state.reset();
  const bool bounded = options_.max_cycle_length > 0;
  const std::int32_t rem0 = bounded ? options_.max_cycle_length - 1
                                    : detail::kUnboundedRem;
  if (rem0 < 1) {
    return 0;  // only self-loops, handled by the drivers
  }
  const Timestamp hi = e0.ts + window_;
  if (!options_.use_cycle_union) {
    reach = nullptr;
  }
  if (!root_passes(graph_, e0, hi, reach, state.counters)) {
    return 0;
  }
  push_root(state, e0);
  tail_ = e0.src;
  hi_ = hi;
  reach_ = reach;
  instances_found_ = 0;
  explore(state, rem0);
  return instances_found_;
}

bool TemporalJohnsonSearch::explore(ClosingTimeState& st, std::int32_t rem) {
  const bool bounded = options_.max_cycle_length > 0;
  const std::size_t hop_index = st.path_length() - 1;
  const VertexId v = st.hop(hop_index).vertex;
  const Timestamp min_arrival = st.hop(hop_index).edges.front().ts;
  st.counters.vertices_visited += 1;

  // Entry: provisionally close v for arrivals >= the current one (2SCENT's
  // discipline). If the subtree finds a cycle the exit raise revises this;
  // if it fails, the claim stands and is backed by the per-edge unblock
  // registrations made below the moment each branch fails.
  if (!bounded) {
    st.lower_closing_time(v, min_arrival);
  }

  // Collect admissible continuations, grouped by destination (bundling) or
  // one edge per group (ablation).
  std::vector<TemporalGraph::OutEdge> scratch;
  for (const auto& e : graph_.out_edges_in_window(v, min_arrival + 1, hi_)) {
    scratch.push_back(e);
  }
  if (options_.path_bundling) {
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const auto& a, const auto& b) { return a.dst < b.dst; });
  }

  bool found = false;
  Timestamp success_max = std::numeric_limits<Timestamp>::min();
  // Registers a non-closing edge as failed-for-now; fires later if ct(w)
  // rises above it. Must happen immediately (not at exit): a raise cascading
  // out of a later sibling's success would otherwise pass the entry by.
  const auto register_failed = [&](VertexId w, std::size_t first,
                                   std::size_t last) {
    if (bounded) {
      return;
    }
    for (std::size_t k = first; k < last; ++k) {
      st.register_unblock(w, v, scratch[k].ts);
    }
  };

  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i + 1;
    if (options_.path_bundling) {
      while (j < scratch.size() && scratch[j].dst == scratch[i].dst) {
        j += 1;
      }
    }
    const VertexId w = scratch[i].dst;
    st.counters.edges_visited += j - i;

    if (w == tail_) {
      // Closing edges: every admissible one closes all instances arriving
      // strictly before it.
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count =
            instances_before(st.hop(hop_index), scratch[k].ts);
        if (count > 0 && (!bounded || rem >= 1)) {
          instances_found_ += count;
          st.counters.cycles_found += count;
          found = true;
          success_max = std::max(success_max, scratch[k].ts);
          report_instances(st, tail_,
                           BundleEdge{scratch[k].ts, scratch[k].id, count},
                           sink_);
        }
      }
      i = j;
      continue;
    }

    if (reach_ != nullptr && !reach_->contains(w)) {
      i = j;  // never on any cycle of this start: nothing to register
      continue;
    }
    const std::int32_t next = detail::child_rem(rem, bounded);
    if (next < 1 || st.on_path(w)) {
      register_failed(w, i, j);
      i = j;
      continue;
    }
    // Usable edges: closing-time pruning applies per edge (skipped when
    // length-bounded: the blocking lemma does not carry over to budgets).
    // Pruned edges are registered right away so a later ct(w) raise
    // re-enables them even if the rest of this branch succeeds.
    ClosingTimeState::Hop& hop = st.push(w);
    for (std::size_t k = i; k < j; ++k) {
      if (!bounded && !st.arrival_open(w, scratch[k].ts)) {
        st.register_unblock(w, v, scratch[k].ts);
        continue;
      }
      const std::uint64_t count =
          instances_before(st.hop(hop_index), scratch[k].ts);
      if (count > 0) {
        hop.edges.push_back(BundleEdge{scratch[k].ts, scratch[k].id, count});
      }
    }
    if (hop.edges.empty()) {
      st.pop();
      i = j;
      continue;
    }
    const Timestamp branch_max = hop.edges.back().ts;
    if (explore(st, next)) {
      found = true;
      success_max = std::max(success_max, branch_max);
    } else {
      register_failed(w, i, j);
    }
    st.pop();
    i = j;
  }

  if (!bounded && found) {
    // Arrivals before the last successful departure may still close a cycle;
    // later ones provably fail (every later edge failed and is registered).
    st.raise_closing_time(v, success_max);
  }
  return found;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Serial driver
// ---------------------------------------------------------------------------

EnumResult temporal_johnson_cycles(const TemporalGraph& graph,
                                   Timestamp window,
                                   const EnumOptions& options,
                                   CycleSink* sink) {
  EnumResult result;
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return result;
  }
  detail::TemporalJohnsonSearch search(graph, window, options, sink);
  ClosingTimeState state(n);
  TemporalReachScratch reach;
  reach.init(n);
  for (const auto& e0 : graph.edges_by_time()) {
    if (e0.src == e0.dst) {
      result.num_cycles += 1;
      result.work.cycles_found += 1;
      if (sink != nullptr) {
        sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
      }
      continue;
    }
    result.num_cycles += search.search_from(e0, state, &reach);
    result.work += state.counters;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Coarse-grained driver
// ---------------------------------------------------------------------------

namespace {

struct TemporalScratch {
  explicit TemporalScratch(VertexId n) : state(n) { reach.init(n); }
  ClosingTimeState state;
  TemporalReachScratch reach;
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

}  // namespace

EnumResult coarse_temporal_johnson_cycles(const TemporalGraph& graph,
                                          Timestamp window, Scheduler& sched,
                                          const EnumOptions& options,
                                          CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return {};
  }
  SharedResult shared;
  ScratchPool<TemporalScratch> pool(
      sched, [n] { return std::make_unique<TemporalScratch>(n); });
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
    detail::TemporalJohnsonSearch search(graph, window, options, sink);
    const std::uint64_t cycles =
        search.search_from(e0, scratch->state, &scratch->reach);
    shared.merge(cycles, scratch->state.counters);
    pool.release(std::move(scratch));
  });
  return shared.result;
}

// ---------------------------------------------------------------------------
// Fine-grained driver (Sections 5 + 7): every bundle exploration is a task.
// ---------------------------------------------------------------------------

namespace {

struct FineTemporalRun {
  FineTemporalRun(const TemporalGraph& graph_, Timestamp window_,
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
          return std::make_unique<ClosingTimeState>(n);
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
  bool bounded;

  ScratchPool<ClosingTimeState> state_pool;
  ScratchPool<TemporalReachScratch> reach_pool;

  // Per-worker sinks, summed once after the run's final wait.
  PerWorkerCounters counter_sinks;
  std::atomic<std::uint64_t> instances{0};

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

struct TemporalSearchContext {
  FineTemporalRun& run;
  VertexId tail = kInvalidVertex;
  Timestamp hi = 0;
  const TemporalReachScratch* reach = nullptr;
};

bool fine_explore(TemporalSearchContext& search, ClosingTimeState& st,
                  std::int32_t rem);

constexpr Timestamp kNoSuccess = std::numeric_limits<Timestamp>::min();

// Child-to-parent result channel: the largest arrival at the child's vertex
// that led to a cycle, kNoSuccess while none has.
void note_success(std::atomic<Timestamp>& success_max, Timestamp ts) {
  Timestamp seen = success_max.load(std::memory_order_relaxed);
  while (seen < ts && !success_max.compare_exchange_weak(
                          seen, ts, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

// Task: enter vertex `w` with the given bundle on the creator's state (if
// still in LIFO position) or on a repaired copy.
struct TemporalChildTask {
  TemporalSearchContext* search;
  ClosingTimeState* creator_state;
  std::size_t prefix_len;
  VertexId w;
  std::vector<BundleEdge> bundle;
  std::int32_t rem;
  std::uint32_t creator_worker;
  std::atomic<Timestamp>* success_max;

  void operator()() {
    FineTemporalRun& run = search->run;
    ClosingTimeState* st = creator_state;
    std::unique_ptr<ClosingTimeState> owned;
    const bool same_worker =
        Scheduler::current_worker_id() == static_cast<int>(creator_worker);
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

    if (!st->on_path(w)) {
      // Re-filter the bundle against the (possibly evolved) closing times.
      std::vector<BundleEdge> usable;
      usable.reserve(bundle.size());
      for (const auto& edge : bundle) {
        if (run.bounded || st->arrival_open(w, edge.ts)) {
          usable.push_back(edge);
        }
      }
      if (!usable.empty()) {
        const Timestamp usable_max = usable.back().ts;
        {
          LockGuard<Spinlock> guard(st->lock());
          ClosingTimeState::Hop& hop = st->push(w);
          hop.edges = std::move(usable);
        }
        const bool found = fine_explore(*search, *st, rem);
        {
          LockGuard<Spinlock> guard(st->lock());
          st->pop();
        }
        if (found) {
          note_success(*success_max, usable_max);
        }
      }
    }
    if (owned != nullptr) {
      run.merge_counters(owned->counters);
      run.state_pool.release(std::move(owned));
    }
  }
};

// Spawning a TemporalChildTask must stay on the zero-allocation slab path.
static_assert(spawn_uses_slab_v<TemporalChildTask>,
              "TemporalChildTask outgrew the scheduler's task-slab block");

bool fine_explore(TemporalSearchContext& search, ClosingTimeState& st,
                  std::int32_t rem) {
  FineTemporalRun& run = search.run;
  const bool bounded = run.bounded;
  const std::size_t hop_index = st.path_length() - 1;
  const VertexId v = st.hop(hop_index).vertex;
  const Timestamp min_arrival = st.hop(hop_index).edges.front().ts;
  st.counters.vertices_visited += 1;

  // Entry discipline: see TemporalJohnsonSearch::explore. All state
  // mutations happen under the state lock so thieves copy a stable snapshot.
  if (!bounded) {
    LockGuard<Spinlock> guard(st.lock());
    st.lower_closing_time(v, min_arrival);
  }

  std::vector<TemporalGraph::OutEdge> scratch;
  for (const auto& e :
       run.graph.out_edges_in_window(v, min_arrival + 1, search.hi)) {
    scratch.push_back(e);
  }
  if (run.options.path_bundling) {
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const auto& a, const auto& b) { return a.dst < b.dst; });
  }

  TaskGroup group(run.sched);
  std::atomic<Timestamp> spawned_success{kNoSuccess};
  bool found = false;
  bool spawned = false;
  // Largest arrival at a child that led to a cycle, taken after the child's
  // closing-time filter: the exit raise may claim no more than a success
  // showed (see the comment at the raise below).
  Timestamp success_max = kNoSuccess;
  // Scratch ranges of spawned branches, settled after the wait (a stolen
  // child registers its failures only on its own copy of the state).
  std::vector<std::pair<std::size_t, std::size_t>> spawned_ranges;

  const auto register_failed = [&](VertexId w, std::size_t first,
                                   std::size_t last) {
    if (bounded) {
      return;
    }
    LockGuard<Spinlock> guard(st.lock());
    for (std::size_t k = first; k < last; ++k) {
      st.register_unblock(w, v, scratch[k].ts);
    }
  };

  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i + 1;
    if (run.options.path_bundling) {
      while (j < scratch.size() && scratch[j].dst == scratch[i].dst) {
        j += 1;
      }
    }
    const VertexId w = scratch[i].dst;
    st.counters.edges_visited += j - i;

    if (w == search.tail) {
      for (std::size_t k = i; k < j; ++k) {
        const std::uint64_t count =
            detail::instances_before(st.hop(hop_index), scratch[k].ts);
        if (count > 0 && (!bounded || rem >= 1)) {
          run.instances.fetch_add(count, std::memory_order_relaxed);
          st.counters.cycles_found += count;
          found = true;
          success_max = std::max(success_max, scratch[k].ts);
          detail::TemporalJohnsonSearch::report_instances(
              st, search.tail,
              BundleEdge{scratch[k].ts, scratch[k].id, count}, run.sink);
        }
      }
      i = j;
      continue;
    }

    if (search.reach != nullptr && !search.reach->contains(w)) {
      i = j;
      continue;
    }
    const std::int32_t next = detail::child_rem(rem, bounded);
    if (next < 1) {
      i = j;
      continue;
    }
    std::vector<BundleEdge> bundle;
    for (std::size_t k = i; k < j; ++k) {
      const std::uint64_t count =
          detail::instances_before(st.hop(hop_index), scratch[k].ts);
      if (count > 0) {
        bundle.push_back(BundleEdge{scratch[k].ts, scratch[k].id, count});
      }
    }
    if (bundle.empty()) {
      i = j;
      continue;
    }
    if (run.should_spawn()) {
      // The child task re-checks on-path and closing times at execution and
      // reports its post-filter success maximum through spawned_success.
      spawned = true;
      spawned_ranges.emplace_back(i, j);
      st.counters.tasks_spawned += 1;
      group.spawn(TemporalChildTask{
          &search, &st, st.path_length(), w, std::move(bundle), next,
          static_cast<std::uint32_t>(Scheduler::current_worker_id()),
          &spawned_success});
      i = j;
      continue;
    }
    if (st.on_path(w)) {
      register_failed(w, i, j);
      i = j;
      continue;
    }
    std::vector<BundleEdge> usable;
    for (const auto& edge : bundle) {
      if (bounded || st.arrival_open(w, edge.ts)) {
        usable.push_back(edge);
      } else {
        LockGuard<Spinlock> guard(st.lock());
        st.register_unblock(w, v, edge.ts);
      }
    }
    if (usable.empty()) {
      i = j;
      continue;
    }
    const Timestamp branch_max = usable.back().ts;
    {
      LockGuard<Spinlock> guard(st.lock());
      ClosingTimeState::Hop& hop = st.push(w);
      hop.edges = std::move(usable);
    }
    const bool child_found = fine_explore(search, st, next);
    {
      LockGuard<Spinlock> guard(st.lock());
      st.pop();
    }
    if (child_found) {
      found = true;
      success_max = std::max(success_max, branch_max);
    } else {
      register_failed(w, i, j);
    }
    i = j;
  }

  if (spawned) {
    group.wait();
    const Timestamp spawned_max =
        spawned_success.load(std::memory_order_acquire);
    if (spawned_max != kNoSuccess) {
      found = true;
      success_max = std::max(success_max, spawned_max);
    }
    // Settle every spawned edge as the serial search would have by now: an
    // edge whose arrival at w is still open counts as a possible success
    // (raise v past it), a closed one as a failure waiting on ct(w).
    if (!bounded) {
      LockGuard<Spinlock> guard(st.lock());
      for (const auto& [first, last] : spawned_ranges) {
        const VertexId w = scratch[first].dst;
        for (std::size_t k = first; k < last; ++k) {
          if (st.arrival_open(w, scratch[k].ts)) {
            st.raise_closing_time(v, scratch[k].ts);
          } else {
            st.register_unblock(w, v, scratch[k].ts);
          }
        }
      }
    }
  }

  // The raise stops at the largest departure a success used, as in the
  // serial search. A larger target, such as a departure the closing-time
  // filter dropped, is not harmless: it lost cycles on the dense long-window
  // graphs of FineJohnsonDenseLongWindow (temporal_parallel_test), even at
  // one thread with nothing spawned. temporal_state.hpp calls raising
  // "always sound"; that holds for the raised vertex's own arrivals, but the
  // cascade also fires and deletes every unblock entry below the new value.
  // Entries spent on a raise no success justified are missing when ct later
  // falls and rises again, and their waiters stay closed.
  if (!bounded && found) {
    LockGuard<Spinlock> guard(st.lock());
    st.raise_closing_time(v, success_max);
  }
  return found;
}

void temporal_search_root(FineTemporalRun& run, const TemporalEdge& e0) {
  if (e0.src == e0.dst) {
    if (run.sink != nullptr) {
      run.sink->on_cycle({&e0.src, 1}, {&e0.id, 1});
    }
    run.instances.fetch_add(1, std::memory_order_relaxed);
    WorkCounters counters;
    counters.cycles_found = 1;
    run.merge_counters(counters);
    return;
  }
  const std::int32_t rem0 = run.bounded ? run.options.max_cycle_length - 1
                                        : detail::kUnboundedRem;
  if (rem0 < 1) {
    return;  // only self-loops, handled above
  }
  // The prune rejects most starts, so the search state is taken only once
  // it has passed.
  const Timestamp hi = e0.ts + run.window;
  auto reach = run.reach_pool.acquire();
  WorkCounters prune;
  if (!detail::TemporalJohnsonSearch::root_passes(
          run.graph, e0, hi,
          run.options.use_cycle_union ? reach.get() : nullptr, prune)) {
    if (prune.prune_edges_scanned != 0) {
      run.merge_counters(prune);
    }
    run.reach_pool.release(std::move(reach));
    return;
  }
  auto state = run.state_pool.acquire();
  state->reset();
  state->counters.prune_edges_scanned = prune.prune_edges_scanned;
  detail::TemporalJohnsonSearch::push_root(*state, e0);
  TemporalSearchContext search{
      run, e0.src, hi, run.options.use_cycle_union ? reach.get() : nullptr};
  fine_explore(search, *state, rem0);
  run.merge_counters(state->counters);
  run.state_pool.release(std::move(state));
  run.reach_pool.release(std::move(reach));
}

}  // namespace

EnumResult fine_temporal_johnson_cycles(const TemporalGraph& graph,
                                        Timestamp window, Scheduler& sched,
                                        const EnumOptions& options,
                                        const ParallelOptions& popts,
                                        CycleSink* sink) {
  if (graph.num_vertices() == 0) {
    return {};
  }
  FineTemporalRun run(graph, window, sched, options, popts, sink);
  const auto edges = graph.edges_by_time();
  const std::size_t num_chunks =
      std::max<std::size_t>(std::size_t{32} * sched.num_workers(), 1);
  parallel_for_chunked(sched, 0, edges.size(), num_chunks, [&](std::size_t i) {
    temporal_search_root(run, edges[i]);
  });
  EnumResult result;
  result.work = run.counter_sinks.total();
  result.num_cycles = run.instances.load(std::memory_order_relaxed);
  return result;
}

}  // namespace parcycle
