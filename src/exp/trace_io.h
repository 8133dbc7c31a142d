// The per-task schedule CSV (task,name,machine,start,finish) the daemon
// and sehc_run emit, its reader, and the CSV field helpers the result-store
// layer and the campaign subsystem share. read_schedule_csv reproduces what
// write_schedule_csv wrote, at the emitted precision.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

/// task,name,machine,start,finish
void write_schedule_csv(std::ostream& os, const Workload& w,
                        const Schedule& s);

// --- CSV parsing (shared by the schedule reader and ResultStore) -----------

/// Splits one CSV line into fields. RFC-4180-ish: a field wrapped in double
/// quotes may contain commas and doubled quotes ("" -> ").
std::vector<std::string> split_csv_line(const std::string& line);

/// Quotes `field` for CSV emission when it contains a comma, quote or
/// newline; returns it unchanged otherwise.
std::string csv_escape(const std::string& field);

/// Parses a double field; throws sehc::Error (with `context`) on garbage.
/// "inf" / "-inf" parse to the infinities, matching the writers.
double parse_csv_double(const std::string& field, const std::string& context);

/// Parses an unsigned integer field; throws sehc::Error on garbage.
std::uint64_t parse_csv_u64(const std::string& field,
                            const std::string& context);

// --- Reader ----------------------------------------------------------------

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
