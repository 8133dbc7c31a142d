#include "exp/figures.h"

#include <cmath>

#include "core/table.h"
#include "hc/metrics.h"

namespace sehc {

void print_figure_banner(std::ostream& os, const std::string& figure_id,
                         const std::string& description, const Workload& w,
                         const std::string& params_desc) {
  const WorkloadMetrics m = measure(w);
  os << "=== " << figure_id << ": " << description << " ===\n";
  os << "workload: " << params_desc << "\n";
  os << "measured: tasks=" << m.tasks << " machines=" << m.machines
     << " items=" << m.items << " connectivity=" << format_fixed(m.connectivity, 3)
     << " heterogeneity=" << format_fixed(m.heterogeneity, 3)
     << " ccr=" << format_fixed(m.ccr, 3) << "\n";
  os << "bounds: cp_lb=" << format_fixed(m.cp_best_exec, 1)
     << " serial_ub=" << format_fixed(m.serial_best_exec, 1) << "\n";
}

std::vector<SeIterationStats> downsample(
    const std::vector<SeIterationStats>& trace, std::size_t max_rows) {
  if (trace.size() <= max_rows || max_rows < 2) return trace;
  std::vector<SeIterationStats> out;
  out.reserve(max_rows);
  const double step = static_cast<double>(trace.size() - 1) /
                      static_cast<double>(max_rows - 1);
  for (std::size_t i = 0; i < max_rows; ++i) {
    out.push_back(trace[static_cast<std::size_t>(
        std::llround(static_cast<double>(i) * step))]);
  }
  return out;
}

void write_se_trace_csv(std::ostream& os,
                        const std::vector<SeIterationStats>& trace,
                        std::size_t max_rows) {
  os << "iteration,selected,moved,current_makespan,best_makespan\n";
  for (const SeIterationStats& s : downsample(trace, max_rows)) {
    os << s.iteration << ',' << s.num_selected << ',' << s.tasks_moved << ','
       << format_fixed(s.current_makespan, 2) << ','
       << format_fixed(s.best_makespan, 2) << '\n';
  }
}

}  // namespace sehc
