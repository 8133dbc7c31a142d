// Quickstart: build a small application DAG, describe a 2-machine
// heterogeneous suite, run Simulated Evolution, and print the schedule.
//
// This walks the same 7-subtask / 6-data-item shape as the paper's Figure 1.
//
//   $ ./quickstart
#include <iostream>

#include "core/table.h"
#include "sched/gantt.h"
#include "sched/validate.h"
#include "se/se.h"
#include "workload/generator.h"

int main() {
  using namespace sehc;

  // 1. The problem instance: DAG + machines + E + Tr. figure1_workload()
  //    bundles the paper-style example; see DagBuilder / Workload for
  //    assembling your own.
  const Workload w = figure1_workload();
  std::cout << "Problem: " << w.num_tasks() << " subtasks, "
            << w.num_items() << " data items, " << w.num_machines()
            << " machines\n\n";

  // 2. Configure SE and run it for a budget of 200 iterations. Defaults
  //    follow the paper: bias chosen by problem size, all machines
  //    considered in allocation (Y = l).
  SeParams params;
  params.seed = 2026;
  SeEngine engine(w, params);
  const SearchResult result = run_search(engine, Budget::steps(200));

  std::cout << "SE finished after " << result.steps << " iterations in "
            << format_fixed(result.seconds, 3) << " s\n";
  std::cout << "best schedule length: "
            << format_fixed(result.best_makespan, 1) << "\n\n";

  // 3. Inspect the schedule.
  std::cout << "Gantt chart:\n";
  write_gantt(std::cout, w, result.schedule);

  std::cout << "\nPer-task placement:\n";
  Table table({"task", "machine", "start", "finish"});
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    table.begin_row()
        .add(w.graph().name(t))
        .add(w.machines()[result.schedule.assignment[t]].name)
        .add(result.schedule.start[t], 1)
        .add(result.schedule.finish[t], 1);
  }
  table.write_markdown(std::cout);

  // 4. Always validate before trusting a schedule.
  const auto violations = validate_schedule(w, result.schedule);
  std::cout << "\nvalidation: "
            << (violations.empty() ? "OK" : violations.front()) << "\n";
  return violations.empty() ? 0 : 1;
}
