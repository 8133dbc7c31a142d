// Plain-text (de)serialization for task graphs.
//
// Format ("sehc-dag v1"):
//
//   sehc-dag v1
//   tasks 7
//   name 0 readA            # optional, any subset of tasks
//   edge 0 2                # data item ids are assigned in file order
//   edge 1 2
//   ...
//
// Lines starting with '#' and blank lines are ignored. Edge order is
// significant because it defines the data item ids (columns of Tr).
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "dag/task_graph.h"

namespace sehc {

/// Writes `g` in sehc-dag v1 format.
void write_dag(std::ostream& os, const TaskGraph& g);

/// Parses a sehc-dag v1 stream. Throws sehc::Error on malformed input or
/// cyclic graphs. The acyclicity check computes the graph's
/// topological_order() (dag/topo.h); it goes to `*order` when `order` is
/// given, so that the caller need not sort the graph again.
TaskGraph read_dag(std::istream& is, std::vector<TaskId>* order = nullptr);

/// String convenience wrappers.
std::string dag_to_string(const TaskGraph& g);
TaskGraph dag_from_string(const std::string& text,
                          std::vector<TaskId>* order = nullptr);

}  // namespace sehc
