// Metamorphic checks: relations between two runs that need no golden.
//
// Scaling every execution and transfer time by 2^j is exact in binary
// floating point (away from overflow and subnormals), and it commutes with
// every sum, difference, product and quotient of those times. A scheduler
// that compares like with like therefore makes the same decisions on the
// scaled instance: its schedule there is its unscaled schedule times 2^j,
// bit for bit, and the validator must accept it at every scale. A
// tolerance that is absolute rather than relative breaks the relation at
// some j.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "heuristics/scheduler.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// `w` with every execution and transfer time multiplied by 2^j.
Workload scaled(const Workload& w, int j) {
  Matrix<double> exec = w.exec_matrix();
  Matrix<double> transfer = w.transfer_matrix();
  for (Matrix<double>* m : {&exec, &transfer}) {
    for (std::size_t r = 0; r < m->rows(); ++r) {
      for (double& x : m->row(r)) x = std::ldexp(x, j);
    }
  }
  return Workload(w.graph(), w.machines(), std::move(exec),
                  std::move(transfer));
}

SearchResult run_named(const std::string& name, const Workload& w) {
  const SchedulerInfo* info = find_scheduler(name);
  const std::size_t iterations = info->one_shot != nullptr ? 1 : 3;
  const Budget budget = Budget::steps(iterations * info->steps_per_iteration);
  const auto engine = make_search_engine(name, w, budget, /*seed=*/1);
  return run_search(*engine, budget);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when `s` is `base` with every time times 2^j, bit for bit;
/// otherwise the first difference.
std::string scaling_difference(const Schedule& base, const Schedule& s,
                               int j) {
  if (!same_bits(s.makespan, std::ldexp(base.makespan, j))) {
    return "makespan";
  }
  for (TaskId t = 0; t < base.num_tasks(); ++t) {
    if (s.assignment[t] != base.assignment[t] ||
        !same_bits(s.start[t], std::ldexp(base.start[t], j)) ||
        !same_bits(s.finish[t], std::ldexp(base.finish[t], j))) {
      return "task " + std::to_string(t);
    }
  }
  return "";
}

TEST(Metamorphic, EverySchedulerCommutesWithScalingByAPowerOfTwo) {
  std::vector<std::string> names = scheduler_names();
  names.push_back("SE[Y=5]");
  names.push_back("SE[B=0.05,init=HEFT]");
  for (CampaignClass c : make_builtin_campaign("equal-evals-grid").classes) {
    c.params.tasks = 60;
    c.params.machines = 8;
    c.params.seed = 1;
    const Workload w = make_workload(c.params);
    for (const std::string& name : names) {
      const SearchResult base = run_named(name, w);
      ASSERT_TRUE(validate_schedule(w, base.schedule).empty())
          << name << " on " << c.name;
      for (const int j : {-60, -40, -20, 20, 40, 60}) {
        const Workload ws = scaled(w, j);
        const SearchResult r = run_named(name, ws);
        EXPECT_EQ(scaling_difference(base.schedule, r.schedule, j), "")
            << name << " on " << c.name << " at 2^" << j;
        const std::vector<std::string> violations =
            validate_schedule(ws, r.schedule);
        EXPECT_TRUE(violations.empty())
            << name << " on " << c.name << " at 2^" << j << ": "
            << violations.front();
      }
    }
  }
}

/// Task 0 on m0, then task 1 on m1 once task 0's data has crossed: every
/// time is a small multiple of 2^-30, far below 1e-6.
Workload tiny_chain() {
  TaskGraph g(2);
  g.add_edge(0, 1);
  Matrix<double> exec(2, 2, std::ldexp(3.0, -30));
  return Workload(std::move(g), MachineSet(2), std::move(exec),
                  Matrix<double>(1, 1, std::ldexp(5.0, -30)));
}

Schedule tiny_chain_schedule(const Workload& w, double start1) {
  Schedule s;
  s.assignment = {0, 1};
  s.start = {0.0, start1};
  s.finish = {w.exec(0, 0), start1 + w.exec(1, 1)};
  s.makespan = s.finish[1];
  return s;
}

TEST(Metamorphic, ValidatorIsExactAtTinyTimes) {
  const Workload w = tiny_chain();
  const double arrival = w.exec(0, 0) + w.transfer(0, 1, 0);
  EXPECT_TRUE(validate_schedule(w, tiny_chain_schedule(w, arrival)).empty());

  // Starting one 2^-30 before the data arrives is a violation, though it
  // is a thousand times smaller than 1e-6.
  const std::vector<std::string> early = validate_schedule(
      w, tiny_chain_schedule(w, arrival - std::ldexp(1.0, -30)));
  ASSERT_EQ(early.size(), 1u);
  EXPECT_NE(early.front().find("before data"), std::string::npos)
      << early.front();

  Schedule long_task = tiny_chain_schedule(w, arrival);
  long_task.finish[1] += std::ldexp(1.0, -40);
  long_task.makespan = long_task.finish[1];
  EXPECT_FALSE(validate_schedule(w, long_task).empty());
}

}  // namespace
}  // namespace sehc
