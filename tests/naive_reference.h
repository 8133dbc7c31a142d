// The naive reference evaluator, shared by the differential test suites and
// bench/perf_hotpath's baseline row: the pre-engine evaluation loop, one
// string pass through the graph's in_edges() -> edge(d) double indirection
// with a machine_of() lookup and a pair_index() per transfer. It shares no
// code with Evaluator's CSR step, which is what makes it an independent
// oracle for every bit-identity claim the evaluator makes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"

namespace sehc {

/// Simulates positions [from, to) of `s` on top of `times` (start/finish per
/// task; earlier positions' finish times must already be in place) and the
/// machine-availability vector `avail`. Returns the running makespan,
/// seeded with `makespan`. Never prunes.
inline double naive_simulate(const Workload& w, const SolutionString& s,
                             std::size_t from, std::size_t to,
                             ScheduleTimes& times, std::vector<double>& avail,
                             double makespan) {
  const TaskGraph& g = w.graph();
  for (std::size_t i = from; i < to; ++i) {
    const Segment& seg = s.segment(i);
    const TaskId t = seg.task;
    const MachineId m = seg.machine;
    double ready = 0.0;
    for (DataId d : g.in_edges(t)) {
      const DagEdge& e = g.edge(d);
      const MachineId pm = s.machine_of(e.src);
      ready = std::max(ready, times.finish[e.src] + w.transfer(pm, m, d));
    }
    const double start = std::max(ready, avail[m]);
    const double finish = start + w.exec(m, t);
    times.start[t] = start;
    times.finish[t] = finish;
    avail[m] = finish;
    makespan = std::max(makespan, finish);
  }
  return makespan;
}

/// Full naive evaluation of `s`.
inline ScheduleTimes naive_evaluate(const Workload& w, const SolutionString& s) {
  ScheduleTimes out;
  out.start.assign(w.num_tasks(), 0.0);
  out.finish.assign(w.num_tasks(), 0.0);
  std::vector<double> avail(w.num_machines(), 0.0);
  out.makespan = naive_simulate(w, s, 0, s.size(), out, avail, 0.0);
  return out;
}

inline double naive_makespan(const Workload& w, const SolutionString& s) {
  return naive_evaluate(w, s).makespan;
}

/// The pre-engine trial mode: begin_trials() simulates a prefix once, and
/// every trial_makespan() re-simulates the whole suffix behind it — no
/// checkpoint rolling, no pruning.
class NaiveTrialEvaluator {
 public:
  explicit NaiveTrialEvaluator(const Workload& w)
      : workload_(&w),
        avail_(w.num_machines(), 0.0),
        cp_avail_(w.num_machines(), 0.0) {
    times_.start.assign(w.num_tasks(), 0.0);
    times_.finish.assign(w.num_tasks(), 0.0);
  }

  void begin_trials(const SolutionString& s, std::size_t prefix) {
    std::fill(cp_avail_.begin(), cp_avail_.end(), 0.0);
    cp_makespan_ = naive_simulate(*workload_, s, 0, prefix, times_, cp_avail_,
                                  0.0);
    cp_prefix_ = prefix;
  }

  double trial_makespan(const SolutionString& s) {
    avail_ = cp_avail_;
    return naive_simulate(*workload_, s, cp_prefix_, s.size(), times_, avail_,
                          cp_makespan_);
  }

 private:
  const Workload* workload_;
  ScheduleTimes times_;
  std::vector<double> avail_;
  std::vector<double> cp_avail_;
  double cp_makespan_ = 0.0;
  std::size_t cp_prefix_ = 0;
};

}  // namespace sehc
