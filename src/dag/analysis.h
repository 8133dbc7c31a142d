// Structural DAG analysis: connectivity metrics and the critical path
// length with task weights.
//
// Connectivity is one of the three workload axes in the paper's evaluation
// (§5): it "defines the number of data items to be transferred between the
// subtasks". We report it as the edge density relative to the maximal DAG on
// the same topological order, k*(k-1)/2 edges.
#pragma once

#include <span>

#include "dag/task_graph.h"

namespace sehc {

/// Edge density in [0, 1]: edges / (k*(k-1)/2). 0 for k < 2.
double edge_density(const TaskGraph& g);

/// Average out-degree (= edges / tasks); the paper's "connectivity" knob.
double average_degree(const TaskGraph& g);

/// Longest weighted path through the DAG where node t costs `node_cost[t]`
/// and every edge costs `edge_cost[item]` (pass empty to ignore edges).
/// This is the classic makespan lower bound when node costs are the
/// per-task minimum execution times and edge costs are zero.
double critical_path_length(const TaskGraph& g,
                            std::span<const double> node_cost,
                            std::span<const double> edge_cost = {});

}  // namespace sehc
