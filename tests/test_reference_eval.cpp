// Cross-validation of the production evaluator against an independent,
// deliberately naive reference implementation of the same scheduling
// semantics. The reference recomputes from machine sequences with a
// fixed-point loop instead of a single string pass, so a shared bug in the
// traversal logic cannot hide.
#include <gtest/gtest.h>

#include <limits>

#include "core/rng.h"
#include "sched/evaluator.h"
#include "workload/generator.h"
#include "workload/structured.h"

namespace sehc {
namespace {

/// Naive reference: iterate to a fixed point over all tasks; a task's start
/// is max(data-ready, previous task on its machine). O(k^2) per sweep.
ScheduleTimes reference_evaluate(const Workload& w, const SolutionString& s) {
  const TaskGraph& g = w.graph();
  const std::size_t k = w.num_tasks();

  // prev_on_machine[t] = task right before t on its machine, or invalid:
  // each machine's sequence is its segments in string order.
  std::vector<TaskId> prev_on_machine(k, kInvalidTask);
  std::vector<TaskId> last_on_machine(w.num_machines(), kInvalidTask);
  for (const Segment& seg : s.segments()) {
    prev_on_machine[seg.task] = last_on_machine[seg.machine];
    last_on_machine[seg.machine] = seg.task;
  }

  ScheduleTimes out;
  out.start.assign(k, 0.0);
  out.finish.assign(k, 0.0);
  std::vector<bool> done(k, false);
  std::size_t remaining = k;
  while (remaining > 0) {
    bool progressed = false;
    for (TaskId t = 0; t < k; ++t) {
      if (done[t]) continue;
      // Ready iff all predecessors and the machine-predecessor are done.
      bool ready = prev_on_machine[t] == kInvalidTask || done[prev_on_machine[t]];
      for (DataId d : g.in_edges(t)) ready = ready && done[g.edge(d).src];
      if (!ready) continue;

      const MachineId m = s.machine_of(t);
      double start = prev_on_machine[t] == kInvalidTask
                         ? 0.0
                         : out.finish[prev_on_machine[t]];
      for (DataId d : g.in_edges(t)) {
        const DagEdge& e = g.edge(d);
        start = std::max(start, out.finish[e.src] +
                                    w.transfer(s.machine_of(e.src), m, d));
      }
      out.start[t] = start;
      out.finish[t] = start + w.exec(m, t);
      out.makespan = std::max(out.makespan, out.finish[t]);
      done[t] = true;
      --remaining;
      progressed = true;
    }
    // A valid string always lets some task proceed each sweep.
    if (!progressed) ADD_FAILURE() << "reference evaluator deadlocked";
    if (!progressed) break;
  }
  return out;
}

class ReferenceEvalTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceEvalTest, ProductionMatchesReferenceOnRandomWorkloads) {
  WorkloadParams p;
  p.tasks = 45;
  p.machines = 6;
  p.connectivity = Level::kHigh;
  p.ccr = 1.0;
  p.seed = GetParam();
  const Workload w = make_workload(p);
  Evaluator eval(w);
  Rng rng(GetParam() * 7 + 1);
  for (int i = 0; i < 8; ++i) {
    const SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    const ScheduleTimes got = eval.evaluate(s);
    const ScheduleTimes want = reference_evaluate(w, s);
    ASSERT_EQ(got.start.size(), want.start.size());
    EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
    for (TaskId t = 0; t < w.num_tasks(); ++t) {
      EXPECT_DOUBLE_EQ(got.start[t], want.start[t]) << "task " << t;
      EXPECT_DOUBLE_EQ(got.finish[t], want.finish[t]) << "task " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEvalTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ReferenceEvalStructured, MatchesOnStructuredGraphs) {
  for (auto factory : {+[] { return gaussian_elimination_dag(6); },
                       +[] { return fft_dag(8); },
                       +[] { return diamond_dag(5, 5); }}) {
    const Workload w =
        make_workload_for_graph(factory(), 4, Level::kHigh, 1.0, 100.0, 3);
    Evaluator eval(w);
    Rng rng(11);
    for (int i = 0; i < 4; ++i) {
      const SolutionString s =
          random_initial_solution(w.graph(), w.num_machines(), rng);
      EXPECT_DOUBLE_EQ(eval.makespan(s), reference_evaluate(w, s).makespan);
    }
  }
}

}  // namespace
}  // namespace sehc
