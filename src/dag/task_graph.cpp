#include "dag/task_graph.h"

#include <algorithm>

namespace sehc {

TaskGraph::TaskGraph(std::size_t count) {
  names_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) add_task();
}

TaskId TaskGraph::add_task(std::string name) {
  const TaskId id = static_cast<TaskId>(names_.size());
  if (name.empty()) name = "s" + std::to_string(id);
  names_.push_back(std::move(name));
  in_.emplace_back();
  out_.emplace_back();
  pred_ids_.emplace_back();
  succ_ids_.emplace_back();
  return id;
}

void TaskGraph::check_task(TaskId t, const char* what) const {
  SEHC_CHECK(t < names_.size(), std::string("TaskGraph: unknown task in ") + what);
}

DataId TaskGraph::add_edge(TaskId src, TaskId dst) {
  check_task(src, "add_edge");
  check_task(dst, "add_edge");
  SEHC_CHECK(src != dst, "TaskGraph::add_edge: self-loop");
  SEHC_CHECK(!has_edge(src, dst), "TaskGraph::add_edge: duplicate edge");
  const DataId id = static_cast<DataId>(edges_.size());
  edges_.push_back(DagEdge{src, dst, id});
  out_[src].push_back(id);
  in_[dst].push_back(id);
  succ_ids_[src].push_back(dst);
  pred_ids_[dst].push_back(src);
  return id;
}

const std::string& TaskGraph::name(TaskId t) const {
  check_task(t, "name");
  return names_[t];
}

void TaskGraph::set_name(TaskId t, std::string name) {
  check_task(t, "set_name");
  names_[t] = std::move(name);
}

const DagEdge& TaskGraph::edge(DataId d) const {
  SEHC_CHECK(d < edges_.size(), "TaskGraph::edge: unknown data item");
  return edges_[d];
}

std::span<const DataId> TaskGraph::in_edges(TaskId t) const {
  check_task(t, "in_edges");
  return in_[t];
}

std::span<const DataId> TaskGraph::out_edges(TaskId t) const {
  check_task(t, "out_edges");
  return out_[t];
}

std::span<const TaskId> TaskGraph::preds(TaskId t) const {
  check_task(t, "preds");
  return pred_ids_[t];
}

std::span<const TaskId> TaskGraph::succs(TaskId t) const {
  check_task(t, "succs");
  return succ_ids_[t];
}

bool TaskGraph::has_edge(TaskId src, TaskId dst) const {
  check_task(src, "has_edge");
  check_task(dst, "has_edge");
  // Scan the smaller adjacency list.
  if (out_[src].size() <= in_[dst].size()) {
    return std::any_of(out_[src].begin(), out_[src].end(),
                       [&](DataId d) { return edges_[d].dst == dst; });
  }
  return std::any_of(in_[dst].begin(), in_[dst].end(),
                     [&](DataId d) { return edges_[d].src == src; });
}

}  // namespace sehc
