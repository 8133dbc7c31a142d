// Fluent DAG construction with validation on finish().
//
//   TaskGraph g = DagBuilder()
//                     .tasks({"read", "fft", "filter", "write"})
//                     .edge("read", "fft")
//                     .edge("fft", "filter")
//                     .edge("filter", "write")
//                     .finish();
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dag/task_graph.h"

namespace sehc {

class DagBuilder {
 public:
  /// Adds one named task. Names must be unique.
  DagBuilder& task(const std::string& name);

  /// Adds several named tasks.
  DagBuilder& tasks(const std::vector<std::string>& names);

  /// Adds an edge by task name.
  DagBuilder& edge(const std::string& src, const std::string& dst);

  /// Id of a previously added task.
  TaskId id(const std::string& name) const;

  /// Validates acyclicity and returns the graph. The builder is left empty.
  TaskGraph finish();

 private:
  TaskGraph graph_;
  std::map<std::string, TaskId> by_name_;
};

}  // namespace sehc
