// The per-task schedule CSV (task,name,machine,start,finish) the daemon
// and sehc_run emit, and its reader. read_schedule_csv reproduces what
// write_schedule_csv wrote, at the emitted precision. Its fields go through
// the CSV field codec in core/table.h (csv_escape, split_csv_line,
// parse_csv_double, parse_csv_u64), which this header re-exports.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "core/table.h"
#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

/// task,name,machine,start,finish
void write_schedule_csv(std::ostream& os, const Workload& w,
                        const Schedule& s);

/// One parsed row of a schedule CSV.
struct ScheduleCsvRow {
  TaskId task = 0;
  std::string name;
  MachineId machine = 0;
  double start = 0.0;
  double finish = 0.0;

  friend bool operator==(const ScheduleCsvRow&,
                         const ScheduleCsvRow&) = default;
};

/// Reads a CSV produced by write_schedule_csv. Validates the header and
/// every row; throws sehc::Error on malformed input.
std::vector<ScheduleCsvRow> read_schedule_csv(std::istream& is);

}  // namespace sehc
