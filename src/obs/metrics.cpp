#include "obs/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/perf_counters.hpp"
#include "obs/profiler.hpp"
#include "stream/engine.hpp"
#include "support/scheduler.hpp"
#include "support/stats.hpp"

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

namespace parcycle {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

std::string worker_label(std::size_t w) {
  std::string labels = "worker=\"";
  append_u64(labels, w);
  labels += '"';
  return labels;
}

void append_sample_line(std::string& out, const std::string& name,
                        const std::string& labels, const MetricSample& s) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  if (s.integral) {
    append_u64(out, s.ivalue);
  } else {
    append_double(out, s.dvalue);
  }
  out += '\n';
}

// Histogram exposition: cumulative le-buckets at the log2 upper bounds, up
// to the last non-empty bucket, then +Inf / _sum / _count.
void append_histogram(std::string& out, const std::string& name,
                      const std::string& labels, const Log2Histogram& h) {
  int top = -1;
  for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
    if (h.buckets[b] != 0) {
      top = b;
    }
  }
  const std::string label_prefix = labels.empty() ? "" : labels + ",";
  std::uint64_t cumulative = 0;
  for (int b = 0; b <= top; ++b) {
    cumulative += h.buckets[b];
    out += name;
    out += "_bucket{";
    out += label_prefix;
    out += "le=\"";
    append_u64(out, Log2Histogram::bucket_upper_bound(b));
    out += "\"} ";
    append_u64(out, cumulative);
    out += '\n';
  }
  out += name;
  out += "_bucket{";
  out += label_prefix;
  out += "le=\"+Inf\"} ";
  append_u64(out, cumulative);
  out += '\n';
  out += name;
  if (!labels.empty()) {
    out += "_sum{" + labels + "} ";
  } else {
    out += "_sum ";
  }
  append_u64(out, h.sum);
  out += '\n';
  out += name;
  if (!labels.empty()) {
    out += "_count{" + labels + "} ";
  } else {
    out += "_count ";
  }
  append_u64(out, cumulative);
  out += '\n';
}

}  // namespace

MetricSample& MetricsRegistry::upsert(const std::string& name, MetricType type,
                                      const std::string& labels,
                                      const std::string& help) {
  for (MetricFamily& family : families_) {
    if (family.name == name) {
      if (!help.empty() && family.help.empty()) {
        family.help = help;
      }
      for (MetricSample& sample : family.samples) {
        if (sample.labels == labels) {
          return sample;
        }
      }
      family.samples.emplace_back();
      family.samples.back().labels = labels;
      return family.samples.back();
    }
  }
  families_.emplace_back();
  MetricFamily& family = families_.back();
  family.name = name;
  family.help = help;
  family.type = type;
  family.samples.emplace_back();
  family.samples.back().labels = labels;
  return family.samples.back();
}

void MetricsRegistry::set_counter(const std::string& name,
                                  const std::string& labels,
                                  std::uint64_t value,
                                  const std::string& help) {
  MetricSample& s = upsert(name, MetricType::kCounter, labels, help);
  s.integral = true;
  s.ivalue = value;
}

void MetricsRegistry::set_gauge(const std::string& name,
                                const std::string& labels, double value,
                                const std::string& help) {
  MetricSample& s = upsert(name, MetricType::kGauge, labels, help);
  s.integral = false;
  s.dvalue = value;
}

void MetricsRegistry::set_gauge_u64(const std::string& name,
                                    const std::string& labels,
                                    std::uint64_t value,
                                    const std::string& help) {
  MetricSample& s = upsert(name, MetricType::kGauge, labels, help);
  s.integral = true;
  s.ivalue = value;
}

void MetricsRegistry::set_counter_double(const std::string& name,
                                         const std::string& labels,
                                         double value,
                                         const std::string& help) {
  MetricSample& s = upsert(name, MetricType::kCounter, labels, help);
  s.integral = false;
  s.dvalue = value;
}

void MetricsRegistry::set_histogram(const std::string& name,
                                    const std::string& labels,
                                    const Log2Histogram& hist,
                                    const std::string& help) {
  MetricSample& s = upsert(name, MetricType::kHistogram, labels, help);
  s.hist = hist;
}

void MetricsRegistry::import_work(const std::string& prefix,
                                  const WorkCounters& work,
                                  const std::string& labels) {
  set_counter(prefix + "_edges_visited_total", labels, work.edges_visited,
              "Edges visited during enumeration (paper's work metric)");
  set_counter(prefix + "_vertices_visited_total", labels,
              work.vertices_visited, "Recursive-call entries");
  set_counter(prefix + "_cycles_found_total", labels, work.cycles_found,
              "Cycles found by the enumeration");
  set_counter(prefix + "_tasks_spawned_total", labels, work.tasks_spawned,
              "Fine-grained branch tasks spawned");
  set_counter(prefix + "_state_copies_total", labels, work.state_copies,
              "Copy-on-steal full state copies");
  set_counter(prefix + "_state_reuses_total", labels, work.state_reuses,
              "Same-thread in-place state reuses");
  set_counter(prefix + "_unblock_operations_total", labels,
              work.unblock_operations, "Johnson-style unblock operations");
  set_counter(prefix + "_prune_edges_scanned_total", labels,
              work.prune_edges_scanned,
              "Edges scanned by the temporal cycle-union prune");
  set_counter(prefix + "_late_edges_rejected_total", labels,
              work.late_edges_rejected,
              "Arrivals dropped behind the reorder watermark");
  set_counter(prefix + "_graph_compactions_total", labels,
              work.graph_compactions, "Sliding-graph compaction events");
  set_counter(prefix + "_searches_truncated_total", labels,
              work.searches_truncated,
              "Searches truncated by the cooperative budget");
  set_counter(prefix + "_edges_shed_total", labels, work.edges_shed,
              "Arrivals shed by the overload ladder");
  set_counter(prefix + "_adaptive_budget_applications_total", labels,
              work.adaptive_budget_applications,
              "Degraded searches whose wall budget came from the live p99 "
              "hint");
}

void MetricsRegistry::import_worker_counters(
    const std::vector<WorkerStats>& stats) {
  for (std::size_t w = 0; w < stats.size(); ++w) {
    const std::string labels = worker_label(w);
    set_counter("parcycle_worker_tasks_executed_total", labels,
                stats[w].tasks_executed, "Tasks executed per worker");
    set_counter("parcycle_worker_tasks_spawned_total", labels,
                stats[w].tasks_spawned, "Tasks spawned per worker");
    set_counter("parcycle_worker_tasks_stolen_total", labels,
                stats[w].tasks_stolen, "Tasks acquired by stealing");
    set_counter("parcycle_worker_tasks_heap_allocated_total", labels,
                stats[w].tasks_heap_allocated,
                "Spawns that bypassed the task slab");
    set_counter("parcycle_worker_busy_ns_total", labels, stats[w].busy_ns,
                "Busy wall time per worker (see TimingMode)");
  }
}

void MetricsRegistry::import_build_info() {
#if defined(PARCYCLE_VERSION)
  const char* const version = PARCYCLE_VERSION;
#else
  const char* const version = "unknown";
#endif
#if defined(__VERSION__)
  const char* const compiler = __VERSION__;
#else
  const char* const compiler = "unknown";
#endif
  std::string labels = "version=\"";
  labels += version;
  labels += "\",compiler=\"";
  labels += compiler;
  labels += '"';
  set_gauge_u64("parcycle_build_info", labels, 1,
                "Build identity; value is always 1, the labels carry the "
                "version and compiler");
}

void MetricsRegistry::set_uptime_seconds(double seconds) {
  set_gauge("parcycle_uptime_seconds", "", seconds,
            "Seconds since the reporting process started");
}

void MetricsRegistry::import_scheduler(const Scheduler& sched) {
  import_worker_counters(sched.worker_stats());
  const std::vector<TaskSlabStats> slabs = sched.slab_stats();
  for (std::size_t w = 0; w < slabs.size(); ++w) {
    const std::string labels = worker_label(w);
    set_counter("parcycle_worker_slab_acquires_total", labels,
                slabs[w].acquires, "Task-slab blocks handed out");
    set_counter("parcycle_worker_slab_local_releases_total", labels,
                slabs[w].local_releases,
                "Task-slab blocks returned by their owning worker");
    set_counter("parcycle_worker_slab_remote_releases_total", labels,
                slabs[w].remote_releases,
                "Task-slab blocks returned by a stealing worker");
    set_counter("parcycle_worker_slab_remote_drains_total", labels,
                slabs[w].remote_drains,
                "MPSC return-list drains into the owner freelist");
    set_counter("parcycle_worker_slab_chunks_allocated_total", labels,
                slabs[w].chunks_allocated,
                "Backing chunks allocated by the task slab");
  }
  // Per-task latency: populated only under TimingMode::kPerTask (the default
  // transition timing deliberately never reads the clock per task).
  Log2Histogram merged;
  for (const Log2Histogram& h : sched.task_latency_histograms()) {
    merged.merge(h);
  }
  set_histogram("parcycle_task_latency_ns", "", merged,
                "Per-task execution latency (TimingMode::kPerTask only)");
}

void MetricsRegistry::import_stream(const StreamStats& stats) {
  set_counter("parcycle_stream_edges_pushed_total", "", stats.edges_pushed,
              "push() calls, incl. late-rejected and buffered");
  set_counter("parcycle_stream_edges_ingested_total", "",
              stats.edges_ingested, "Edges that reached the sliding graph");
  set_counter("parcycle_stream_late_edges_rejected_total", "",
              stats.late_edges_rejected,
              "Arrivals dropped behind the reorder watermark");
  set_gauge_u64("parcycle_stream_reorder_buffered", "",
                stats.reorder_buffered, "Arrivals currently in reorder stage");
  set_gauge_u64("parcycle_stream_reorder_peak_buffered", "",
                stats.reorder_peak_buffered,
                "High-water mark of the reorder stage over the run");
  set_counter("parcycle_stream_cycles_found_total", "", stats.cycles_found,
              "Cycles closed, summed across window lanes");
  set_counter("parcycle_stream_batches_total", "", stats.batches,
              "Micro-batches processed");
  set_counter("parcycle_stream_escalated_edges_total", "",
              stats.escalated_edges,
              "Edges escalated to the fine-grained search");
  set_counter("parcycle_stream_expired_edges_total", "", stats.expired_edges,
              "Edges slid out of the retention window");
  set_gauge_u64("parcycle_stream_live_edges", "", stats.live_edges,
                "Edges currently in the sliding window");
  set_gauge("parcycle_stream_busy_seconds_total", "", stats.busy_seconds,
            "Wall time inside batch processing");
  set_gauge_u64("parcycle_stream_overload_level", "",
                static_cast<std::uint64_t>(stats.overload_level),
                "Current overload-ladder level (0 = normal)");
  set_counter("parcycle_stream_overload_shifts_total", "",
              stats.overload_shifts, "Overload ladder level changes");
  set_counter("parcycle_stream_edges_shed_total", "", stats.edges_shed,
              "Arrivals shed at the top overload level");
  set_counter("parcycle_stream_search_errors_total", "", stats.search_errors,
              "Batches that caught a search-side exception");
  set_counter("parcycle_stream_sink_delivered_total", "", stats.sink_delivered,
              "Cycle records delivered through guarded sinks");
  set_counter("parcycle_stream_sink_errors_total", "", stats.sink_errors,
              "Exceptions thrown by guarded downstream sinks");
  set_counter("parcycle_stream_sink_dropped_total", "", stats.sink_dropped,
              "Cycle records dropped by guarded sinks (timeout/quarantine)");
  set_gauge_u64("parcycle_stream_sink_quarantined", "", stats.sink_quarantined,
                "Window lanes whose sink is quarantined");
  import_work("parcycle_stream_work", stats.work);
  set_histogram("parcycle_stream_search_latency_ns", "", stats.latency,
                "Per-edge search latency, all window lanes");
  for (const StreamWindowStats& lane : stats.per_window) {
    std::string labels = "window=\"";
    append_u64(labels, static_cast<std::uint64_t>(lane.window));
    labels += '"';
    set_counter("parcycle_stream_lane_cycles_found_total", labels,
                lane.cycles_found, "Cycles closed per window lane");
    set_counter("parcycle_stream_lane_escalated_edges_total", labels,
                lane.escalated_edges,
                "Edges escalated to the fine-grained search per window lane");
    set_counter("parcycle_stream_lane_edges_visited_total", labels,
                lane.work.edges_visited,
                "Edges visited during enumeration per window lane");
    set_histogram("parcycle_stream_lane_search_latency_ns", labels,
                  lane.latency, "Per-edge search latency per window lane");
  }
}

void MetricsRegistry::import_perf(const PerfCounterGroups& perf) {
  const bool available = perf.enabled() && perf.available();
  set_gauge_u64("parcycle_perf_available", "", available ? 1 : 0,
                "1 when per-worker perf_event counter groups are open; 0 "
                "when disabled or the kernel forbids them "
                "(perf_event_paranoid, containers)");
  if (!available) {
    return;
  }
  for (unsigned w = 0; w < perf.num_workers(); ++w) {
    const PerfCounts c = perf.counts(w);
    if (!c.available) {
      continue;
    }
    const std::string labels = worker_label(w);
    set_counter("parcycle_perf_cycles_total", labels, c.cycles,
                "CPU cycles per worker thread (user mode)");
    set_counter("parcycle_perf_instructions_total", labels, c.instructions,
                "Instructions retired per worker thread (user mode)");
    set_counter("parcycle_perf_cache_references_total", labels,
                c.cache_references, "LLC references per worker thread");
    set_counter("parcycle_perf_cache_misses_total", labels, c.cache_misses,
                "LLC misses per worker thread");
    set_counter("parcycle_perf_branch_misses_total", labels, c.branch_misses,
                "Mispredicted branches per worker thread");
    set_gauge("parcycle_perf_ipc", labels, c.ipc(),
              "Instructions per cycle, derived from the group read");
    set_gauge("parcycle_perf_cache_miss_rate", labels, c.cache_miss_rate(),
              "cache_misses / cache_references, derived from the group read");
  }
}

void MetricsRegistry::import_profiler(const StackProfiler& profiler) {
  if (!profiler.enabled()) {
    return;
  }
  for (unsigned w = 0; w < profiler.num_workers(); ++w) {
    const std::string labels = worker_label(w);
    set_counter("parcycle_profile_samples_taken_total", labels,
                profiler.samples_taken(w),
                "Stack samples stored by the sampling profiler, per worker");
    set_counter("parcycle_profile_samples_dropped_total", labels,
                profiler.samples_dropped(w),
                "Stack samples discarded because the worker ring saturated");
  }
}

void MetricsRegistry::import_process() {
#if defined(__linux__)
  const auto page_size = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  {
    // /proc/self/statm: size resident shared text lib data dt (pages).
    std::ifstream statm("/proc/self/statm");
    std::uint64_t vsize_pages = 0;
    std::uint64_t rss_pages = 0;
    if (statm >> vsize_pages >> rss_pages) {
      set_gauge_u64("parcycle_process_virtual_memory_bytes", "",
                    vsize_pages * page_size, "Process virtual memory size");
      set_gauge_u64("parcycle_process_resident_memory_bytes", "",
                    rss_pages * page_size, "Process resident set size");
    }
  }
  {
    // /proc/self/stat: comm may contain spaces, so parse after the last ')'.
    std::ifstream stat_file("/proc/self/stat");
    std::string line;
    if (std::getline(stat_file, line)) {
      const std::size_t close = line.rfind(')');
      if (close != std::string::npos) {
        std::istringstream rest(line.substr(close + 1));
        std::string field;
        // Fields after comm: state(1) then utime at index 12, stime 13,
        // num_threads 18 (1-based field numbers 3.. in proc(5): utime=14,
        // stime=15, num_threads=20).
        std::uint64_t utime = 0;
        std::uint64_t stime = 0;
        std::uint64_t num_threads = 0;
        for (int i = 1; rest >> field && i <= 18; ++i) {
          if (i == 12) {
            utime = std::strtoull(field.c_str(), nullptr, 10);
          } else if (i == 13) {
            stime = std::strtoull(field.c_str(), nullptr, 10);
          } else if (i == 18) {
            num_threads = std::strtoull(field.c_str(), nullptr, 10);
          }
        }
        const double ticks_per_sec =
            static_cast<double>(sysconf(_SC_CLK_TCK));
        if (ticks_per_sec > 0) {
          set_counter_double("parcycle_process_cpu_seconds_total", "",
                             static_cast<double>(utime + stime) /
                                 ticks_per_sec,
                             "Total user+system CPU time of the process");
        }
        set_gauge_u64("parcycle_process_threads", "", num_threads,
                      "Threads in the process");
      }
    }
  }
  {
    std::uint64_t open_fds = 0;
    if (DIR* dir = opendir("/proc/self/fd")) {
      while (const dirent* entry = readdir(dir)) {
        if (entry->d_name[0] != '.') {
          open_fds += 1;
        }
      }
      closedir(dir);
      // The traversal itself holds one fd on the directory.
      set_gauge_u64("parcycle_process_open_fds", "",
                    open_fds > 0 ? open_fds - 1 : 0,
                    "Open file descriptors of the process");
    }
  }
#endif
}

std::optional<std::uint64_t> MetricsRegistry::value_u64(
    const std::string& name, const std::string& labels) const {
  for (const MetricFamily& family : families_) {
    if (family.name != name) {
      continue;
    }
    for (const MetricSample& sample : family.samples) {
      if (sample.labels == labels && sample.integral) {
        return sample.ivalue;
      }
    }
  }
  return std::nullopt;
}

std::string MetricsRegistry::render_text() const {
  std::string out;
  out.reserve(1u << 14);
  for (const MetricFamily& family : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + ' ' + family.help + '\n';
    }
    out += "# TYPE " + family.name + ' ';
    switch (family.type) {
      case MetricType::kCounter:
        out += "counter";
        break;
      case MetricType::kGauge:
        out += "gauge";
        break;
      case MetricType::kHistogram:
        out += "histogram";
        break;
    }
    out += '\n';
    for (const MetricSample& sample : family.samples) {
      if (family.type == MetricType::kHistogram) {
        append_histogram(out, family.name, sample.labels, sample.hist);
      } else {
        append_sample_line(out, family.name, sample.labels, sample);
      }
    }
  }
  return out;
}

bool MetricsRegistry::write_text_file(const std::string& path,
                                      std::string* error) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot open " + tmp + " for writing";
      }
      return false;
    }
    out << render_text();
    out.flush();
    if (!out) {
      if (error != nullptr) {
        *error = "write to " + tmp + " failed";
      }
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "rename " + tmp + " -> " + path + " failed";
    }
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace parcycle
