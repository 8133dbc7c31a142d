// Topological ordering utilities (Kahn's algorithm) and validity checks.
//
// The SE/GA encodings require the schedule string to be a topological order
// of the DAG at all times; `is_topological_order` is the invariant checked by
// tests and by debug validation in the schedulers.
#pragma once

#include <optional>
#include <vector>

#include "dag/task_graph.h"

namespace sehc {
class Rng;

/// Kahn topological sort with a deterministic tie-break (lowest task id
/// first), in O((k + p) log k) for k tasks and p edges. Returns nullopt if
/// the graph has a cycle.
std::optional<std::vector<TaskId>> topological_order(const TaskGraph& g);

/// Kahn topological sort that breaks ties uniformly at random; used to
/// diversify initial solutions / GA populations. Returns nullopt on cycles.
std::optional<std::vector<TaskId>> random_topological_order(const TaskGraph& g,
                                                            Rng& rng);

/// True iff the graph contains no directed cycle.
bool is_acyclic(const TaskGraph& g);

/// True iff `order` is a permutation of all tasks respecting every edge.
bool is_topological_order(const TaskGraph& g, std::span<const TaskId> order);

}  // namespace sehc
