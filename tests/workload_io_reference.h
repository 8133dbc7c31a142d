// The iostream workload codec, kept as the reference the differential and
// mutation tests hold hc/workload_io against: numbers written through
// `std::setprecision(17)` and read with `is >> double`, lines read with
// std::getline and parsed with istringstream. It shares no number or line
// handling with the <charconv> codec, which is what makes it an
// independent oracle for the claims that the writer is byte-identical and
// the reader accepts exactly the same documents with bit-identical
// matrices. It does no size checks and rebuilds the machine set on every
// arch line, so feed it small documents only.
#pragma once

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "dag/serialize.h"
#include "hc/workload.h"

namespace sehc::reference {

inline void write_matrix(std::ostream& os, const Matrix<double>& m) {
  os << std::setprecision(17);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ' ';
      os << row[c];
    }
    os << '\n';
  }
}

inline Matrix<double> read_matrix(std::istream& is, std::size_t rows,
                                  std::size_t cols, const char* what) {
  Matrix<double> m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      SEHC_CHECK(static_cast<bool>(is >> m(r, c)),
                 std::string("read_workload: truncated ") + what + " matrix");
    }
  }
  std::string rest;
  std::getline(is, rest);  // consume trailing newline
  return m;
}

inline MachineArch arch_from_string(const std::string& s) {
  if (s == "MIMD") return MachineArch::kMimd;
  if (s == "SIMD") return MachineArch::kSimd;
  if (s == "vector") return MachineArch::kVector;
  if (s == "dataflow") return MachineArch::kDataflow;
  if (s == "special-purpose") return MachineArch::kSpecialPurpose;
  throw Error("read_workload: unknown architecture '" + s + "'");
}

inline std::string workload_to_string(const Workload& w) {
  std::ostringstream os;
  os << "sehc-workload v1\n";
  os << "machines " << w.num_machines() << "\n";
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    const Machine& machine = w.machines()[m];
    if (machine.arch != MachineArch::kMimd) {
      os << "arch " << m << " " << to_string(machine.arch) << "\n";
    }
  }
  write_dag(os, w.graph());
  os << "end-dag\n";
  os << "exec\n";
  write_matrix(os, w.exec_matrix());
  if (w.num_items() > 0) {
    os << "transfer\n";
    write_matrix(os, w.transfer_matrix());
  }
  return os.str();
}

inline Workload workload_from_string(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  SEHC_CHECK(std::getline(is, line) && line == "sehc-workload v1",
             "read_workload: missing 'sehc-workload v1' header");

  std::size_t num_machines = 0;
  {
    SEHC_CHECK(std::getline(is, line), "read_workload: truncated file");
    std::istringstream ls(line);
    std::string kw;
    SEHC_CHECK(static_cast<bool>(ls >> kw) && kw == "machines" &&
                   static_cast<bool>(ls >> num_machines) && num_machines > 0,
               "read_workload: expected 'machines <l>'");
  }
  MachineSet machines(num_machines);

  std::ostringstream dag_text;
  bool in_dag = false;
  while (std::getline(is, line)) {
    if (!in_dag && line.rfind("arch ", 0) == 0) {
      std::istringstream ls(line);
      std::string kw, arch;
      MachineId m = 0;
      SEHC_CHECK(static_cast<bool>(ls >> kw >> m >> arch) && m < num_machines,
                 "read_workload: bad 'arch' line");
      MachineSet rebuilt;
      for (MachineId i = 0; i < num_machines; ++i) {
        Machine mi = machines[i];
        if (i == m) mi.arch = arch_from_string(arch);
        rebuilt.add(std::move(mi));
      }
      machines = std::move(rebuilt);
      continue;
    }
    if (line == "end-dag") break;
    in_dag = true;
    dag_text << line << '\n';
  }
  TaskGraph graph = dag_from_string(dag_text.str());

  SEHC_CHECK(std::getline(is, line) && line == "exec",
             "read_workload: expected 'exec'");
  Matrix<double> exec =
      read_matrix(is, num_machines, graph.num_tasks(), "exec");

  Matrix<double> transfer(num_machines * (num_machines - 1) / 2,
                          graph.num_edges(), 0.0);
  if (graph.num_edges() > 0) {
    SEHC_CHECK(std::getline(is, line) && line == "transfer",
               "read_workload: expected 'transfer'");
    transfer = read_matrix(is, transfer.rows(), transfer.cols(), "transfer");
  }
  return Workload(std::move(graph), std::move(machines), std::move(exec),
                  std::move(transfer));
}

}  // namespace sehc::reference
