// The canonical 10-task / 3-processor example from the HEFT paper
// (Topcuoglu, Hariri, Wu), shared by the HEFT/CPOP tests and the schedule
// pins.
#pragma once

#include <utility>
#include <vector>

#include "hc/workload.h"

namespace sehc {

/// Task ids are 0-based (the paper's n1 == task 0). All machine pairs share
/// the same transfer time per edge, matching the paper's uniform-link model.
inline Workload topcuoglu_example() {
  TaskGraph g(10);
  struct E { TaskId a, b; double c; };
  const std::vector<E> edges{
      {0, 1, 18}, {0, 2, 12}, {0, 3, 9},  {0, 4, 11}, {0, 5, 14},
      {1, 7, 19}, {1, 8, 16}, {2, 6, 23}, {3, 7, 27}, {3, 8, 23},
      {4, 8, 13}, {5, 7, 15}, {6, 9, 17}, {7, 9, 11}, {8, 9, 13}};
  std::vector<double> comm;
  for (const E& e : edges) {
    g.add_edge(e.a, e.b);
    comm.push_back(e.c);
  }

  const double exec_data[10][3] = {
      {14, 16, 9},  {13, 19, 18}, {11, 13, 19}, {13, 8, 17},  {12, 13, 10},
      {13, 16, 9},  {7, 15, 11},  {5, 11, 14},  {18, 12, 20}, {21, 7, 16}};
  Matrix<double> exec(3, 10);
  for (TaskId t = 0; t < 10; ++t)
    for (MachineId m = 0; m < 3; ++m) exec(m, t) = exec_data[t][m];

  Matrix<double> tr(3, comm.size());  // 3 machine pairs, uniform links
  for (std::size_t p = 0; p < 3; ++p)
    for (DataId d = 0; d < comm.size(); ++d) tr(p, d) = comm[d];

  return Workload(std::move(g), MachineSet(3), std::move(exec), std::move(tr));
}

}  // namespace sehc
