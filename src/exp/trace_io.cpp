#include "exp/trace_io.h"

#include "core/error.h"

namespace sehc {

void write_schedule_csv(std::ostream& os, const Workload& w,
                        const Schedule& s) {
  SEHC_CHECK(s.num_tasks() == w.num_tasks(),
             "write_schedule_csv: schedule/workload mismatch");
  os << "task,name,machine,start,finish\n";
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    os << t << ',' << csv_escape(w.graph().name(t)) << ',' << s.assignment[t]
       << ',' << format_fixed(s.start[t], 4) << ','
       << format_fixed(s.finish[t], 4) << '\n';
  }
}

std::vector<ScheduleCsvRow> read_schedule_csv(std::istream& is) {
  const std::string reader = "read_schedule_csv";
  std::string line;
  SEHC_CHECK(static_cast<bool>(std::getline(is, line)),
             reader + ": empty input (missing header)");
  SEHC_CHECK(line == "task,name,machine,start,finish",
             reader + ": unexpected header '" + line + "'");
  std::vector<ScheduleCsvRow> rows;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> f = split_csv_line(line, reader);
    SEHC_CHECK(f.size() == 5, reader + ": expected 5 fields, got " +
                                  std::to_string(f.size()) + " in: " + line);
    ScheduleCsvRow r;
    r.task = static_cast<TaskId>(parse_csv_u64(f[0], reader));
    r.name = f[1];
    r.machine = static_cast<MachineId>(parse_csv_u64(f[2], reader));
    r.start = parse_csv_double(f[3], reader);
    r.finish = parse_csv_double(f[4], reader);
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace sehc
