#include "core/coarse_grained.hpp"

#include <atomic>
#include <memory>
#include <vector>

#include "core/johnson_impl.hpp"
#include "core/read_tarjan_impl.hpp"
#include "support/spinlock.hpp"

namespace parcycle {

namespace {

// Accumulates per-search results under a lock; searches are long relative to
// one merge, so contention is negligible.
struct SharedResult {
  Spinlock lock;
  EnumResult result;

  void merge(std::uint64_t cycles, const WorkCounters& counters) {
    LockGuard<Spinlock> guard(lock);
    result.num_cycles += cycles;
    result.work += counters;
  }
};

// ---- Johnson ----------------------------------------------------------------

struct JohnsonScratch {
  explicit JohnsonScratch(VertexId n) : state(n) { cycle_union.init(n); }
  JohnsonState state;
  CycleUnionScratch cycle_union;
};

}  // namespace

EnumResult coarse_johnson_simple_cycles(const Digraph& graph, Scheduler& sched,
                                        const EnumOptions& options,
                                        CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return {};
  }
  SharedResult shared;
  ScratchPool<JohnsonScratch> pool(
      sched, [n] { return std::make_unique<JohnsonScratch>(n); });
  parallel_for_each_index(sched, 0, n, [&](std::size_t s) {
    auto scratch = pool.acquire();
    const auto start = static_cast<VertexId>(s);
    const SccResult scc = strongly_connected_components(
        graph, [start](VertexId v) { return v >= start; });
    detail::StaticJohnsonSearch search(graph, options, sink);
    scratch->state.reset();
    const std::uint64_t cycles =
        search.search_from(start, scc, scratch->state);
    shared.merge(cycles, scratch->state.counters);
    pool.release(std::move(scratch));
  });
  return shared.result;
}

EnumResult coarse_johnson_windowed_cycles(const TemporalGraph& graph,
                                          Timestamp window, Scheduler& sched,
                                          const EnumOptions& options,
                                          CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return {};
  }
  SharedResult shared;
  ScratchPool<JohnsonScratch> pool(
      sched, [n] { return std::make_unique<JohnsonScratch>(n); });
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
    detail::WindowedJohnsonSearch search(graph, window, options, sink);
    const std::uint64_t cycles =
        search.search_from(e0, scratch->state, &scratch->cycle_union);
    shared.merge(cycles, scratch->state.counters);
    pool.release(std::move(scratch));
  });
  return shared.result;
}

// ---- Read-Tarjan ------------------------------------------------------------

namespace {

struct RTScratch {
  explicit RTScratch(VertexId n) : state(n) { cycle_union.init(n); }
  ReadTarjanState state;
  CycleUnionScratch cycle_union;
  std::vector<detail::RTChild> pending;
};

// Serial depth-first drain of deferred Read-Tarjan children (same structure
// as the serial driver, reused per coarse task).
template <typename Core, typename ExcludedMember>
std::uint64_t rt_drain(Core& core, ReadTarjanState& state,
                       std::vector<detail::RTChild>& pending,
                       ExcludedMember excluded_member) {
  std::uint64_t cycles = 0;
  const detail::ChildFn collect = [&pending](detail::RTChild&& child) {
    pending.push_back(std::move(child));
  };
  while (!pending.empty()) {
    detail::RTChild child = std::move(pending.back());
    pending.pop_back();
    state.truncate_path(child.path_len);
    state.truncate_log(child.log_len);
    cycles += core.walk(child.ext, child.*excluded_member, collect);
  }
  return cycles;
}

}  // namespace

EnumResult coarse_read_tarjan_simple_cycles(const Digraph& graph,
                                            Scheduler& sched,
                                            const EnumOptions& options,
                                            CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return {};
  }
  SharedResult shared;
  ScratchPool<RTScratch> pool(
      sched, [n] { return std::make_unique<RTScratch>(n); });
  parallel_for_each_index(sched, 0, n, [&](std::size_t s) {
    auto scratch = pool.acquire();
    const auto start = static_cast<VertexId>(s);
    const SccResult scc = strongly_connected_components(
        graph, [start](VertexId v) { return v >= start; });
    detail::StaticRTCore core(graph, options, sink);
    scratch->state.reset();
    scratch->pending.clear();
    core.bind(scratch->state, start, scc);
    scratch->state.push(start, kInvalidEdge);
    std::uint64_t cycles = 0;
    detail::ExtPath root_ext;
    if (core.find_root_extension(root_ext)) {
      scratch->pending.push_back(
          detail::RTChild{scratch->state.path_length(),
                          scratch->state.log_length(),
                          std::move(root_ext),
                          {},
                          {}});
      cycles = rt_drain(core, scratch->state, scratch->pending,
                        &detail::RTChild::excluded_targets);
    }
    shared.merge(cycles, scratch->state.counters);
    pool.release(std::move(scratch));
  });
  return shared.result;
}

EnumResult coarse_read_tarjan_windowed_cycles(const TemporalGraph& graph,
                                              Timestamp window,
                                              Scheduler& sched,
                                              const EnumOptions& options,
                                              CycleSink* sink) {
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return {};
  }
  SharedResult shared;
  ScratchPool<RTScratch> pool(
      sched, [n] { return std::make_unique<RTScratch>(n); });
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
    scratch->state.reset();
    scratch->pending.clear();
    std::uint64_t cycles = 0;
    StartContext ctx;
    if (detail::WindowedJohnsonSearch::prepare_start(
            graph, e0, window, options.use_cycle_union, &scratch->cycle_union,
            ctx) &&
        options.max_cycle_length != 1) {
      detail::WindowedRTCore core(graph, options, sink);
      core.bind(scratch->state, ctx);
      scratch->state.push(ctx.tail, kInvalidEdge);
      scratch->state.push(ctx.head, e0.id);
      detail::ExtPath root_ext;
      if (core.find_root_extension(root_ext)) {
        scratch->pending.push_back(
            detail::RTChild{scratch->state.path_length(),
                            scratch->state.log_length(),
                            std::move(root_ext),
                            {},
                            {}});
        cycles = rt_drain(core, scratch->state, scratch->pending,
                          &detail::RTChild::excluded_edges);
      }
    }
    shared.merge(cycles, scratch->state.counters);
    pool.release(std::move(scratch));
  });
  return shared.result;
}

}  // namespace parcycle
