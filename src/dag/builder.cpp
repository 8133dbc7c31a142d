#include "dag/builder.h"

#include "dag/topo.h"

namespace sehc {

DagBuilder& DagBuilder::task(const std::string& name) {
  SEHC_CHECK(!name.empty(), "DagBuilder::task: empty name");
  SEHC_CHECK(by_name_.count(name) == 0,
             "DagBuilder::task: duplicate name " + name);
  by_name_[name] = graph_.add_task(name);
  return *this;
}

DagBuilder& DagBuilder::tasks(const std::vector<std::string>& names) {
  for (const auto& n : names) task(n);
  return *this;
}

DagBuilder& DagBuilder::edge(const std::string& src, const std::string& dst) {
  graph_.add_edge(id(src), id(dst));
  return *this;
}

TaskId DagBuilder::id(const std::string& name) const {
  auto it = by_name_.find(name);
  SEHC_CHECK(it != by_name_.end(), "DagBuilder: unknown task " + name);
  return it->second;
}

TaskGraph DagBuilder::finish() {
  SEHC_CHECK(is_acyclic(graph_), "DagBuilder::finish: graph has a cycle");
  by_name_.clear();
  TaskGraph out = std::move(graph_);
  graph_ = TaskGraph();
  return out;
}

}  // namespace sehc
