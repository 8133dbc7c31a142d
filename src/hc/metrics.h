// Measured workload characteristics along the paper's three axes (§5):
// connectivity, heterogeneity and communication-to-cost ratio (CCR).
//
// The generator *targets* these axes; these functions *measure* them on any
// instance, so tests can assert that generated workloads actually land in
// the requested class and the figure benches' banners can report realized
// values.
#pragma once

#include "hc/workload.h"

namespace sehc {

struct WorkloadMetrics {
  std::size_t tasks = 0;
  std::size_t machines = 0;
  std::size_t items = 0;           // data items = DAG edges
  double connectivity = 0.0;       // edges / (k*(k-1)/2)
  double avg_degree = 0.0;         // edges / tasks
  double heterogeneity = 0.0;      // mean per-task CV of exec times
  double ccr = 0.0;                // mean transfer / mean exec
  double mean_exec = 0.0;          // over all (machine, task)
  double mean_transfer = 0.0;      // over all (pair, item); 0 if no items
  double cp_best_exec = 0.0;       // critical path with per-task best times
  double serial_best_exec = 0.0;   // sum of per-task best times
};

/// Coefficient-of-variation heterogeneity: for each task, CV of its row of
/// execution times across machines; averaged over tasks. ~0 for homogeneous
/// suites, grows with machine affinity differences.
double measure_heterogeneity(const Workload& w);

/// Mean transfer time over all (pair, item) divided by mean execution time
/// over all (machine, task). This matches the paper's CCR axis ("size of
/// data item over execution time of the subtask generating this item") in
/// expectation under the generator's link model.
double measure_ccr(const Workload& w);

/// Full metric set.
WorkloadMetrics measure(const Workload& w);

}  // namespace sehc
