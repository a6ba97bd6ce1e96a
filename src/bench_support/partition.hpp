// Starting-edge partitioner for distributed execution (the paper's Section 8
// MPI setup): when edges are ordered by ascending timestamp, k consecutive
// edges go to k different processors (timestamp round-robin). We implement
// the partitioning logic and its balance diagnostics without the network
// transport: each rank's load is the sum of measured per-start costs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/temporal_graph.hpp"
#include "schedsim/simulator.hpp"

namespace parcycle {

// Edge ids assigned to each of `num_processors` ranks, timestamp round-robin.
std::vector<std::vector<EdgeId>> partition_starting_edges(
    const TemporalGraph& graph, unsigned num_processors);

struct PartitionBalance {
  std::vector<double> rank_cost;  // total per-start cost per rank
  double imbalance = 1.0;         // max / average
};

// Evaluates a partition against measured per-start costs (aligned by edge
// id, as produced by collect_*_start_costs).
PartitionBalance evaluate_partition(
    const std::vector<std::vector<EdgeId>>& partition,
    const std::vector<SimJob>& start_costs);

}  // namespace parcycle
