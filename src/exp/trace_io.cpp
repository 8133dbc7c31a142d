#include "exp/trace_io.h"

#include <cstdlib>
#include <limits>

#include "core/table.h"

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

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  SEHC_CHECK(!quoted, "split_csv_line: unterminated quote in: " + line);
  fields.push_back(std::move(field));
  return fields;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

double parse_csv_double(const std::string& field, const std::string& context) {
  if (field == "inf") return std::numeric_limits<double>::infinity();
  if (field == "-inf") return -std::numeric_limits<double>::infinity();
  const char* begin = field.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  SEHC_CHECK(end != begin && *end == '\0' && !field.empty(),
             context + ": expected a number, got '" + field + "'");
  return value;
}

std::uint64_t parse_csv_u64(const std::string& field,
                            const std::string& context) {
  const char* begin = field.c_str();
  char* end = nullptr;
  const unsigned long long value = std::strtoull(begin, &end, 10);
  SEHC_CHECK(end != begin && *end == '\0' && !field.empty() &&
                 field.find('-') == std::string::npos,
             context + ": expected an unsigned integer, got '" + field + "'");
  return static_cast<std::uint64_t>(value);
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
    const std::vector<std::string> f = split_csv_line(line);
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
