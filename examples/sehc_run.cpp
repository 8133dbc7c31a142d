// Command-line front end: schedule a workload file (sehc-workload v1) with
// any scheduler in the library and emit the result as a Gantt chart,
// schedule CSV, and optional DOT graph — the small tool a downstream user
// reaches for first.
//
//   $ ./workload_explorer --dump | sed -n '/^sehc-workload/,$p' > instance.txt
//   $ ./sehc_run --input instance.txt --scheduler SE --iterations 300
//   $ ./sehc_run --input instance.txt --scheduler HEFT --csv
//   $ ./sehc_run --input instance.txt --scheduler GA --dot > matched.dot
//
// With --contention the schedule is additionally re-timed under the
// serialized-link network model (sched/contention.h); it goes with the
// Gantt output only, so combining it with --csv or --dot is a usage error.
#include <fstream>
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "exp/trace_io.h"
#include "hc/workload_io.h"
#include "heuristics/scheduler.h"
#include "sched/bounds.h"
#include "sched/contention.h"
#include "sched/gantt.h"
#include "sched/validate.h"
#include "dag/dot.h"

namespace {

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv,
                     {"input", "scheduler", "iterations", "seed", "csv",
                      "dot", "contention"});
  if (opts.has("contention") && (opts.has("csv") || opts.has("dot"))) {
    throw UsageError("--contention cannot be combined with --csv or --dot");
  }
  const std::string input = opts.get("input", "");
  if (input.empty()) throw UsageError("--input <workload file> is required");
  const std::string name = opts.get("scheduler", "SE");
  const auto budget =
      static_cast<std::size_t>(opts.get_int("iterations", 300));
  const auto seed = opts.get_seed("seed", 1);

  std::ifstream in(input);
  SEHC_CHECK(in.good(), "sehc_run: cannot open " + input);
  const Workload w = read_workload(in);

  // Iterative schedulers take their registry share of the budget (SA x50,
  // tabu/random x10); an unknown name falls through to
  // make_search_engine, whose error lists every registered scheduler.
  const SchedulerInfo* info = find_scheduler(name);
  const Budget steps = Budget::steps(
      budget * (info != nullptr ? info->steps_per_iteration : 1));
  const auto engine = make_search_engine(name, w, steps, seed);
  const Schedule s = run_search(*engine, steps).schedule;
  const auto violations = validate_schedule(w, s);
  SEHC_CHECK(violations.empty(),
             "scheduler produced an invalid schedule: " + violations.front());

  if (opts.has("dot")) {
    write_dot(std::cout, w.graph(), s.assignment);
    return 0;
  }
  if (opts.has("csv")) {
    write_schedule_csv(std::cout, w, s);
    return 0;
  }

  std::cout << name << " on " << w.num_tasks() << " tasks / "
            << w.num_machines() << " machines\n";
  std::cout << "makespan: " << format_fixed(s.makespan, 2)
            << "  (lower bound " << format_fixed(makespan_lower_bound(w), 2)
            << ", serial upper bound "
            << format_fixed(serial_upper_bound(w), 2) << ")\n";
  if (opts.has("contention")) {
    const double cm = contention_makespan(w, s.to_solution(w));
    std::cout << "makespan under serialized links: " << format_fixed(cm, 2)
              << "  (+" << format_fixed(100.0 * (cm / s.makespan - 1.0), 1)
              << "%)\n";
  }
  std::cout << "\n";
  write_gantt(std::cout, w, s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
