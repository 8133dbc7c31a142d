#include "exp/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "workload/generator.h"

namespace sehc {
namespace {

TEST(TraceIo, ScheduleCsvListsEveryTask) {
  const Workload w = figure1_workload();
  const SolutionString s(std::vector<TaskId>{0, 1, 2, 5, 6, 3, 4},
                         std::vector<MachineId>{0, 1, 1, 0, 0, 1, 1});
  const Schedule sched = Schedule::from_solution(w, s);
  std::ostringstream os;
  write_schedule_csv(os, w, sched);
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 8);  // header + 7
  EXPECT_NE(out.find("4,s4,0,1100.0000,2100.0000"), std::string::npos);
}

TEST(TraceIo, ScheduleCsvRoundTrip) {
  const Workload w = figure1_workload();
  const SolutionString s(std::vector<TaskId>{0, 1, 2, 5, 6, 3, 4},
                         std::vector<MachineId>{0, 1, 1, 0, 0, 1, 1});
  const Schedule sched = Schedule::from_solution(w, s);
  std::ostringstream os;
  write_schedule_csv(os, w, sched);

  std::istringstream is(os.str());
  const std::vector<ScheduleCsvRow> rows = read_schedule_csv(is);
  ASSERT_EQ(rows.size(), w.num_tasks());
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    EXPECT_EQ(rows[t].task, t);
    EXPECT_EQ(rows[t].name, w.graph().name(t));
    EXPECT_EQ(rows[t].machine, sched.assignment[t]);
    EXPECT_NEAR(rows[t].start, sched.start[t], 5e-5);
    EXPECT_NEAR(rows[t].finish, sched.finish[t], 5e-5);
  }
}

TEST(TraceIo, ReadersRejectMalformedInput) {
  {
    std::istringstream is("not,the,header\n0,a,0,0.0,1.0\n");
    EXPECT_THROW(read_schedule_csv(is), Error);
  }
  {
    std::istringstream is("task,name,machine,start,finish\n0,a,0\n");
    EXPECT_THROW(read_schedule_csv(is), Error);
  }
  {
    std::istringstream is(
        "task,name,machine,start,finish\n0,a,0,abc,1.0\n");
    EXPECT_THROW(read_schedule_csv(is), Error);
  }
  {
    std::istringstream empty;
    EXPECT_THROW(read_schedule_csv(empty), Error);
  }
}

TEST(TraceIo, SplitCsvLineHandlesQuoting) {
  EXPECT_EQ(split_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv_line("a,\"b,c\",d"),
            (std::vector<std::string>{"a", "b,c", "d"}));
  EXPECT_EQ(split_csv_line("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_EQ(split_csv_line(""), (std::vector<std::string>{""}));
  EXPECT_EQ(split_csv_line("a,,b"),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_THROW(split_csv_line("\"unterminated"), Error);
  // Escape round trip.
  const std::string nasty = "a,\"b\"\nrest";
  EXPECT_EQ(split_csv_line(csv_escape(nasty) + ",x")[0], nasty);
}

TEST(TraceIo, ParseHelpersAcceptInfAndRejectGarbage) {
  EXPECT_TRUE(std::isinf(parse_csv_double("inf", "t")));
  EXPECT_EQ(parse_csv_double("-inf", "t"),
            -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(parse_csv_double("1.25", "t"), 1.25);
  EXPECT_THROW(parse_csv_double("", "t"), Error);
  EXPECT_THROW(parse_csv_double("12x", "t"), Error);
  EXPECT_EQ(parse_csv_u64("18446744073709551615", "t"),
            18446744073709551615ULL);
  EXPECT_THROW(parse_csv_u64("-3", "t"), Error);
  EXPECT_THROW(parse_csv_u64("1.5", "t"), Error);
  // One past UINT64_MAX overflows instead of saturating.
  EXPECT_THROW(parse_csv_u64("18446744073709551616", "t"), Error);
}

TEST(TraceIo, ScheduleCsvRejectsMismatch) {
  const Workload w = figure1_workload();
  Schedule small;
  small.assignment.assign(2, 0);
  small.start.assign(2, 0.0);
  small.finish.assign(2, 0.0);
  std::ostringstream os;
  EXPECT_THROW(write_schedule_csv(os, w, small), Error);
}

}  // namespace
}  // namespace sehc
