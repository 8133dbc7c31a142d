// Directed acyclic task graph describing an application decomposed into
// coarse-grained subtasks (paper §2).
//
// Vertices are subtasks s_0 .. s_{k-1}. Every edge carries exactly one data
// item d_i produced by the source subtask and consumed by the destination;
// the data item id doubles as the column index into the transfer-time matrix
// Tr. This mirrors the paper's model: D = {d_i, 0 <= i < p} with p = #edges.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"

namespace sehc {

using TaskId = std::uint32_t;
using DataId = std::uint32_t;
using MachineId = std::uint32_t;

inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

/// A precedence edge: `src` produces data item `item`, consumed by `dst`.
struct DagEdge {
  TaskId src = kInvalidTask;
  TaskId dst = kInvalidTask;
  DataId item = 0;

  friend bool operator==(const DagEdge&, const DagEdge&) = default;
};

/// Immutable-after-build DAG of subtasks. Self-loops and duplicate edges are
/// rejected at insertion; acyclicity is checked by topo.h utilities (the
/// builder in builder.h validates on finish()).
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Creates `count` tasks named "s0".."s{count-1}".
  explicit TaskGraph(std::size_t count);

  /// Adds a task; returns its id (ids are dense, insertion-ordered).
  TaskId add_task(std::string name = {});

  /// Adds an edge src -> dst; returns the data item id carried by the edge.
  /// Throws on self-loops, duplicate edges, or unknown endpoints.
  DataId add_edge(TaskId src, TaskId dst);

  std::size_t num_tasks() const { return names_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  const std::string& name(TaskId t) const;
  void set_name(TaskId t, std::string name);

  const DagEdge& edge(DataId d) const;
  std::span<const DagEdge> edges() const { return edges_; }

  /// Data item ids of edges into / out of `t`.
  std::span<const DataId> in_edges(TaskId t) const;
  std::span<const DataId> out_edges(TaskId t) const;

  std::size_t in_degree(TaskId t) const { return in_edges(t).size(); }

  /// Predecessor / successor task ids as zero-copy views, ordered by edge
  /// id (the same order as in_edges()/out_edges()). Pure-topology loops
  /// iterate them instead of the in_edges(t) -> edge(d) double indirection.
  std::span<const TaskId> preds(TaskId t) const;
  std::span<const TaskId> succs(TaskId t) const;

  /// True if an edge src -> dst exists.
  bool has_edge(TaskId src, TaskId dst) const;

  friend bool operator==(const TaskGraph& a, const TaskGraph& b) {
    return a.names_ == b.names_ && a.edges_ == b.edges_;
  }

 private:
  void check_task(TaskId t, const char* what) const;

  std::vector<std::string> names_;
  std::vector<DagEdge> edges_;
  std::vector<std::vector<DataId>> in_;   // per task: incoming edge ids
  std::vector<std::vector<DataId>> out_;  // per task: outgoing edge ids
  // Parallel task-id adjacency (same order as in_/out_) backing the span
  // accessors preds()/succs().
  std::vector<std::vector<TaskId>> pred_ids_;
  std::vector<std::vector<TaskId>> succ_ids_;
};

}  // namespace sehc
