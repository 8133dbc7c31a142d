#include "hc/workload_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/table.h"
#include "dag/serialize.h"

namespace sehc {

namespace {

/// Appends each row as its numbers, blank-separated, and a '\n': the row
/// is written into a region sized for its longest text, then trimmed.
void append_matrix(std::string& out, const Matrix<double>& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    const std::size_t begin = out.size();
    out.resize(begin + row.size() * (kG17MaxChars + 1) + 1);
    char* p = out.data() + begin;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) *p++ = ' ';
      p = write_g17(p, row[c]);
    }
    *p++ = '\n';
    out.resize(static_cast<std::size_t>(p - out.data()));
  }
}

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Whether a number that std::from_chars found out of range underflows
/// (istream reads it as a zero) rather than overflows (istream fails). The
/// two lie hundreds of decades apart, so the decimal exponent of the
/// leading nonzero digit decides. [p, end) is the token past its sign.
bool underflows(const char* p, const char* end) {
  std::int64_t int_digits = 0;  // integer digits from the first nonzero one
  std::int64_t frac_zeros = 0;  // fraction zeros before the first nonzero
  bool fraction = false, nonzero = false;
  for (; p != end && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      fraction = true;
      continue;
    }
    nonzero = nonzero || *p != '0';
    if (!fraction) {
      int_digits += nonzero ? 1 : 0;
    } else if (!nonzero) {
      ++frac_zeros;
    }
  }
  // Saturates far beyond any decimal exponent a double can reach.
  constexpr std::int64_t kExponentCap = std::int64_t{1} << 50;
  std::int64_t exponent = 0;
  bool negative = false;
  if (p != end) {
    ++p;  // 'e'
    if (p != end && (*p == '+' || *p == '-')) negative = *p++ == '-';
    for (; p != end; ++p) {
      if (exponent < kExponentCap) exponent = exponent * 10 + (*p - '0');
    }
  }
  const std::int64_t lead =
      int_digits > 0 ? int_digits - 1 : -frac_zeros - 1;
  return lead + (negative ? -exponent : exponent) < 0;
}

/// A byte that can continue a number token.
bool is_token_byte(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

/// Reads the next number the way `std::istream >> double` does in the
/// classic locale: skip whitespace, then consume the longest run of the
/// form [+-] digits-with-at-most-one-dot [(e|E) [+-] digits]. The run is
/// taken greedily, so "1e" and "1e+" are consumed whole and then fail; it
/// needs a mantissa digit, and an exponent digit when it has an exponent,
/// which leaves out inf, nan and hex. Returns false on failure.
///
/// A token that starts with a digit is first scanned once, by
/// std::from_chars in fixed format straight on the bytes. Its value is kept
/// when the conversion succeeds and the next byte cannot continue the
/// token: then the careful scan below would take exactly the same run and
/// convert it the same way. Anything else (a sign, an exponent, a second
/// dot, a value out of range) takes the careful scan.
bool read_number(const char*& p, const char* end, double& out) {
  while (p != end && is_space(*p)) ++p;
  if (p != end && is_digit(*p)) {
    const auto [ptr, ec] =
        std::from_chars(p, end, out, std::chars_format::fixed);
    if (ec == std::errc() && (ptr == end || !is_token_byte(*ptr))) {
      p = ptr;
      return true;
    }
  }
  const char* const first = p;
  if (p != end && (*p == '+' || *p == '-')) ++p;
  const char* const unsigned_first = p;
  bool mantissa = false, dot = false;
  for (; p != end; ++p) {
    if (is_digit(*p)) {
      mantissa = true;
    } else if (*p == '.' && !dot) {
      dot = true;
    } else {
      break;
    }
  }
  if (!mantissa) return false;
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    while (p != end && is_digit(*p)) ++p;
  }
  // from_chars takes a '-' but not a '+', and must match the whole run: it
  // stops before an exponent without digits, which istream takes and fails.
  const char* const start = *first == '+' ? unsigned_first : first;
  const auto [ptr, ec] = std::from_chars(start, p, out);
  if (ptr != p) return false;
  if (ec == std::errc::result_out_of_range) {
    if (!underflows(unsigned_first, p)) return false;
    out = *first == '-' ? -0.0 : 0.0;
    return true;
  }
  return ec == std::errc();
}

/// A read position in a document; next_line() is std::getline.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  /// False at the end of the text; otherwise the next line without its
  /// '\n'.
  bool next_line(std::string_view& line) {
    if (pos == text.size()) return false;
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    line = text.substr(pos, eol - pos);
    pos = std::min(eol + 1, text.size());
    return true;
  }

  std::size_t remaining() const { return text.size() - pos; }
};

/// Reads rows x cols numbers, then drops the rest of the line the last one
/// ends on.
Matrix<double> read_matrix(Cursor& in, std::size_t rows, std::size_t cols,
                           const char* what) {
  Matrix<double> m(rows, cols);
  const char* p = in.text.data() + in.pos;
  const char* const end = in.text.data() + in.text.size();
  for (double& v : m.flat()) {
    SEHC_CHECK(read_number(p, end, v),
               std::string("read_workload: truncated ") + what + " matrix");
  }
  in.pos = static_cast<std::size_t>(p - in.text.data());
  std::string_view rest;
  in.next_line(rest);
  return m;
}

void check_size(bool fits, const char* what) {
  SEHC_CHECK(fits, std::string("read_workload: size check: ") + what +
                       " needs more bytes than the document has");
}

/// The first whitespace-delimited word of a line (`is >> word`).
std::string_view first_word(std::string_view line) {
  std::size_t b = 0;
  while (b < line.size() && is_space(line[b])) ++b;
  std::size_t e = b;
  while (e < line.size() && !is_space(line[e])) ++e;
  return line.substr(b, e - b);
}

MachineArch arch_from_string(const std::string& s) {
  if (s == "MIMD") return MachineArch::kMimd;
  if (s == "SIMD") return MachineArch::kSimd;
  if (s == "vector") return MachineArch::kVector;
  if (s == "dataflow") return MachineArch::kDataflow;
  if (s == "special-purpose") return MachineArch::kSpecialPurpose;
  throw Error("read_workload: unknown architecture '" + s + "'");
}

}  // namespace

void write_workload(std::ostream& os, const Workload& w) {
  os << workload_to_string(w);
}

Workload read_workload(std::istream& is) {
  return workload_from_string(
      std::string(std::istreambuf_iterator<char>(is), {}));
}

std::string workload_to_string(const Workload& w) {
  std::string out = "sehc-workload v1\nmachines ";
  out += std::to_string(w.num_machines());
  out += '\n';
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    const MachineArch arch = w.machines()[m].arch;
    if (arch != MachineArch::kMimd) {
      out += "arch " + std::to_string(m) + " " + to_string(arch) + "\n";
    }
  }
  out += dag_to_string(w.graph());
  out += "end-dag\nexec\n";
  append_matrix(out, w.exec_matrix());
  if (w.num_items() > 0) {
    out += "transfer\n";
    append_matrix(out, w.transfer_matrix());
  }
  // Callers keep documents (request bodies, cache keys); drop the slack
  // that growing the string left.
  out.shrink_to_fit();
  return out;
}

Workload workload_from_string(const std::string& text) {
  Cursor in{text};
  std::string_view line;
  SEHC_CHECK(in.next_line(line) && line == "sehc-workload v1",
             "read_workload: missing 'sehc-workload v1' header");

  std::size_t num_machines = 0;
  {
    SEHC_CHECK(in.next_line(line), "read_workload: truncated file");
    std::istringstream ls{std::string(line)};
    std::string kw;
    SEHC_CHECK(static_cast<bool>(ls >> kw) && kw == "machines" &&
                   static_cast<bool>(ls >> num_machines) && num_machines > 0,
               "read_workload: expected 'machines <l>'");
  }
  // Every number takes at least two bytes, a digit and a separator, and
  // the exec matrix holds at least one number per machine.
  check_size(num_machines <= in.remaining() / 2, "'machines'");

  // Optional arch lines (the last one for a machine wins), then the
  // embedded DAG block up to 'end-dag'.
  std::vector<MachineArch> archs(num_machines, MachineArch::kMimd);
  std::size_t dag_begin = 0;
  std::size_t dag_end = text.size();
  bool in_dag = false;
  for (std::size_t start = in.pos; in.next_line(line); start = in.pos) {
    if (!in_dag && line.starts_with("arch ")) {
      std::istringstream ls{std::string(line)};
      std::string kw, arch;
      MachineId m = 0;
      SEHC_CHECK(static_cast<bool>(ls >> kw >> m >> arch) && m < num_machines,
                 "read_workload: bad 'arch' line");
      archs[m] = arch_from_string(arch);
      continue;
    }
    if (line == "end-dag") {
      dag_end = start;
      break;
    }
    if (!in_dag) dag_begin = start;
    in_dag = true;
  }
  const std::string_view dag =
      in_dag ? std::string_view(text).substr(dag_begin, dag_end - dag_begin)
             : std::string_view();

  // Size the graph before read_dag allocates it: the first 'tasks' line
  // and the number of 'edge' lines (a block of any other shape fails
  // read_dag anyway).
  std::size_t tasks = 0, edges = 0;
  bool have_tasks = false;
  for (Cursor dag_lines{dag}; dag_lines.next_line(line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::string_view keyword = first_word(line);
    if (keyword == "edge") {
      ++edges;
    } else if (keyword == "tasks" && !have_tasks) {
      have_tasks = true;
      std::istringstream ls{std::string(line)};
      std::string kw;
      ls >> kw >> tasks;
    }
  }
  // l*k exec and l(l-1)/2*p transfer numbers must fit in the bytes after
  // 'end-dag'. Divide rather than multiply: the declared sizes are
  // untrusted, and a product could overflow.
  std::size_t budget = in.remaining() / 2;
  check_size(tasks <= budget / num_machines, "the exec matrix");
  budget -= tasks * num_machines;
  if (edges > 0) {
    check_size(num_machines - 1 <= 2 * budget / num_machines,
               "the transfer matrix");
    const std::size_t pairs = num_machines * (num_machines - 1) / 2;
    check_size(pairs == 0 || edges <= budget / pairs, "the transfer matrix");
  }

  std::vector<TaskId> topo_order;
  TaskGraph graph = dag_from_string(std::string(dag), &topo_order);
  MachineSet machines;
  for (const MachineArch arch : archs) machines.add(std::string(), arch);

  SEHC_CHECK(in.next_line(line) && line == "exec",
             "read_workload: expected 'exec'");
  Matrix<double> exec =
      read_matrix(in, num_machines, graph.num_tasks(), "exec");
  Matrix<double> transfer(machines.num_pairs(), 0);
  if (graph.num_edges() > 0) {
    SEHC_CHECK(in.next_line(line) && line == "transfer",
               "read_workload: expected 'transfer'");
    transfer = read_matrix(in, machines.num_pairs(), graph.num_edges(),
                           "transfer");
  }
  return Workload(std::move(graph), std::move(topo_order),
                  std::move(machines), std::move(exec), std::move(transfer));
}

}  // namespace sehc
