#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sched/gantt.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

SolutionString figure2_string() {
  const std::vector<TaskId> order{0, 1, 2, 5, 6, 3, 4};
  const std::vector<MachineId> assignment{0, 1, 1, 0, 0, 1, 1};
  return SolutionString(order, assignment);
}

TEST(Schedule, FromSolutionMatchesEvaluator) {
  const Workload w = figure1_workload();
  const Schedule s = Schedule::from_solution(w, figure2_string());
  EXPECT_DOUBLE_EQ(s.makespan, 2100.0);
  EXPECT_EQ(s.assignment[4], 0u);
  EXPECT_DOUBLE_EQ(s.start[4], 1100.0);
}

TEST(Schedule, MachineSequencesSortedByStart) {
  const Workload w = figure1_workload();
  const Schedule s = Schedule::from_solution(w, figure2_string());
  const auto seqs = s.machine_sequences(2);
  EXPECT_EQ(seqs[0], (std::vector<TaskId>{0, 3, 4}));
  EXPECT_EQ(seqs[1], (std::vector<TaskId>{1, 2, 5, 6}));
}

TEST(Schedule, ToSolutionRoundTripsMakespan) {
  const Workload w = figure1_workload();
  const Schedule s = Schedule::from_solution(w, figure2_string());
  const SolutionString back = s.to_solution();
  EXPECT_TRUE(back.is_valid(w.graph()));
  // Non-insertion schedules round-trip exactly.
  EXPECT_DOUBLE_EQ(Schedule::from_solution(w, back).makespan, s.makespan);
}

TEST(Schedule, ValidatorAcceptsEvaluatorOutput) {
  const Workload w = figure1_workload();
  const Schedule s = Schedule::from_solution(w, figure2_string());
  EXPECT_TRUE(validate_schedule(w, s).empty());
}

TEST(Validate, DetectsPrecedenceViolation) {
  const Workload w = figure1_workload();
  Schedule s = Schedule::from_solution(w, figure2_string());
  s.start[4] = 0.0;  // s4 now starts before its inputs arrive
  s.finish[4] = 1000.0;
  const auto violations = validate_schedule(w, s);
  EXPECT_FALSE(violations.empty());
}

TEST(Validate, DetectsMachineOverlap) {
  const Workload w = figure1_workload();
  Schedule s = Schedule::from_solution(w, figure2_string());
  // Slide s3 on top of s0 on m0 (still after its pred s0? no - make overlap
  // with s0 itself: s0 runs [0,400], set s3 to [100, 800]).
  s.start[3] = 100.0;
  s.finish[3] = 800.0;
  const auto violations = validate_schedule(w, s);
  bool found_overlap = false;
  for (const auto& v : violations) {
    if (v.find("overlaps") != std::string::npos) found_overlap = true;
  }
  EXPECT_TRUE(found_overlap);
}

TEST(Validate, DetectsWrongDuration) {
  const Workload w = figure1_workload();
  Schedule s = Schedule::from_solution(w, figure2_string());
  s.finish[0] = s.start[0] + 1.0;  // duration != E[m][t]
  EXPECT_FALSE(validate_schedule(w, s).empty());
}

TEST(Validate, DetectsNegativeStart) {
  const Workload w = figure1_workload();
  Schedule s = Schedule::from_solution(w, figure2_string());
  s.start[0] = -5.0;
  s.finish[0] = 395.0;
  EXPECT_FALSE(validate_schedule(w, s).empty());
}

TEST(Validate, DetectsBadMakespan) {
  const Workload w = figure1_workload();
  Schedule s = Schedule::from_solution(w, figure2_string());
  s.makespan = 1.0;
  EXPECT_FALSE(validate_schedule(w, s).empty());
}

TEST(Validate, DetectsSizeMismatch) {
  const Workload w = figure1_workload();
  Schedule s;
  s.assignment.assign(3, 0);
  s.start.assign(3, 0.0);
  s.finish.assign(3, 0.0);
  EXPECT_FALSE(validate_schedule(w, s).empty());
}

TEST(Validate, OutOfRangeMachineIsReportedNotThrown) {
  const Workload w = figure1_workload();
  Schedule s = Schedule::from_solution(w, figure2_string());
  s.assignment[3] = 7;  // figure 1 has two machines
  std::vector<std::string> violations;
  ASSERT_NO_THROW(violations = validate_schedule(w, s));
  const auto it = std::find_if(
      violations.begin(), violations.end(), [](const std::string& v) {
        return v.find("(s3): machine id out of range") != std::string::npos;
      });
  EXPECT_NE(it, violations.end());
}

TEST(Gantt, RendersOneRowPerMachine) {
  const Workload w = figure1_workload();
  const Schedule s = Schedule::from_solution(w, figure2_string());
  std::ostringstream os;
  write_gantt(os, w, s);
  const std::string out = os.str();
  EXPECT_NE(out.find("m0 |"), std::string::npos);
  EXPECT_NE(out.find("m1 |"), std::string::npos);
  EXPECT_NE(out.find("makespan=2100.0"), std::string::npos);
  // Two newline-terminated rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Gantt, TinyWidthThrows) {
  const Workload w = figure1_workload();
  const Schedule s = Schedule::from_solution(w, figure2_string());
  std::ostringstream os;
  GanttOptions opt;
  opt.width = 2;
  EXPECT_THROW(write_gantt(os, w, s, opt), Error);
}

}  // namespace
}  // namespace sehc
