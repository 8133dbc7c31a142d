// The placement core under the seven one-shot list schedulers: HEFT and
// CPOP place with insertion (a task may fill an idle gap left earlier on a
// machine), DLS and the levelized Min-min, Max-min, MCT and OLB without it
// (a task starts after the machine's last finish). Each scheduler only
// decides which task goes next and where; the data-ready time, the gap
// search and the lowest-finish machine choice are written once here.
#pragma once

#include <utility>
#include <vector>

#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

/// Mean execution time of each task across machines.
std::vector<double> mean_exec_times(const Workload& w);

/// Mean transfer time of each data item across distinct machine pairs
/// (zero when the suite has a single machine).
std::vector<double> mean_transfer_times(const Workload& w);

/// Upward rank: rank(t) = mean_exec(t) + max over successors of
/// (mean transfer + rank(succ)), the transfer term counted only
/// `with_transfers`. HEFT's ranks count it; DLS's static levels do not.
std::vector<double> upward_ranks(const Workload& w, bool with_transfers);

/// A partial schedule and each machine's placed slots.
class ListSchedule {
 public:
  struct Placement {
    MachineId machine = 0;
    double start = 0.0;
    double finish = 0.0;
  };

  ListSchedule(const Workload& w, bool insertion);

  /// Earliest start of task t on machine m, once every predecessor is
  /// placed: its data-ready time, then the first idle gap that fits t with
  /// insertion, or the machine's last finish without it.
  double earliest_start(TaskId t, MachineId m) const;

  /// The machine that finishes t earliest (the first such machine on ties).
  Placement earliest_finish(TaskId t) const;

  /// Finish time of the last task placed on m (0 while m is idle).
  double last_finish(MachineId m) const;

  /// Commits t to [start, start + E[m][t]) on m.
  void place(TaskId t, MachineId m, double start);

  Schedule release() { return std::move(s_); }

 private:
  struct Slot {
    double start;
    double finish;
  };

  const Workload& w_;
  bool insertion_;
  Schedule s_;
  std::vector<std::vector<Slot>> slots_;  // per machine, sorted by start
};

}  // namespace sehc
