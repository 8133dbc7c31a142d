// Differential tests of the string operators against the straightforward
// copies in string_ops_reference.h: the random initial solution (both the
// graph-only overload and the cached-order, reused-string one), the fused
// GA crossover, and valid_range/move_task. Each comparison is bit for bit:
// segments, the task -> position index, and the generator's next output,
// which shows that both sides made the same draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.h"
#include "dag/topo.h"
#include "exp/campaign.h"
#include "ga/operators.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "string_ops_reference.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr int kDraws = 1000;

struct GraphCase {
  TaskGraph graph;
  std::vector<TaskId> order;  // the deterministic topological order
  std::size_t machines = 0;
};

std::vector<CampaignClass> paper_cube() {
  return make_builtin_campaign("equal-evals-grid").classes;
}

/// The eight classes of the equal-evals spec (k = 100, l = 20), then edge
/// cases: one task, two tasks on the edge 1 -> 0, no edges, a chain, and
/// the first class with its task ids shuffled. The generator numbers tasks
/// in a topological order, so only the two-task and shuffled graphs have a
/// topological order other than 0, 1, ..., k-1. They catch machine draws
/// made in string order instead of task-id order.
std::vector<std::string> case_names() {
  std::vector<std::string> names;
  for (const CampaignClass& c : paper_cube()) names.push_back(c.name);
  for (const char* name :
       {"one-task", "two-task", "edge-free", "chain", "shuffled"}) {
    names.emplace_back(name);
  }
  return names;
}

/// `g` with task t renamed perm[t]; edges keep their ids.
TaskGraph relabel(const TaskGraph& g, const std::vector<TaskId>& perm) {
  TaskGraph out(g.num_tasks());
  for (const DagEdge& e : g.edges()) out.add_edge(perm[e.src], perm[e.dst]);
  return out;
}

GraphCase make_case(const std::string& name) {
  for (const CampaignClass& c : paper_cube()) {
    if (c.name != name) continue;
    WorkloadParams p = c.params;
    p.seed = 7;
    const Workload w = make_workload(p);
    return {w.graph(), {w.topo_order().begin(), w.topo_order().end()},
            w.num_machines()};
  }
  GraphCase out;
  if (name == "one-task") {
    out.graph = TaskGraph(1);
    out.machines = 3;
  } else if (name == "two-task") {
    out.graph = TaskGraph(2);
    out.graph.add_edge(1, 0);
    out.machines = 2;
  } else if (name == "edge-free") {
    out.graph = TaskGraph(30);
    out.machines = 4;
  } else if (name == "chain") {
    out.graph = TaskGraph(30);
    for (TaskId t = 0; t + 1 < 30; ++t) out.graph.add_edge(t, t + 1);
    out.machines = 4;
  } else {
    EXPECT_EQ(name, "shuffled");
    const GraphCase base = make_case(paper_cube().front().name);
    std::vector<TaskId> perm(base.graph.num_tasks());
    for (TaskId t = 0; t < perm.size(); ++t) perm[t] = t;
    Rng rng(3);
    rng.shuffle(perm);
    out.graph = relabel(base.graph, perm);
    out.machines = base.machines;
  }
  out.order = *topological_order(out.graph);
  return out;
}

::testing::AssertionResult same_string(const SolutionString& got,
                                       const reference::String& want) {
  if (!std::ranges::equal(got.segments(), want.segments))
    return ::testing::AssertionFailure() << "segments differ";
  if (!std::ranges::equal(got.positions(), want.pos))
    return ::testing::AssertionFailure() << "positions differ";
  return ::testing::AssertionSuccess();
}

class StringOpsOracle : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { c_ = make_case(GetParam()); }
  GraphCase c_;
};

TEST_P(StringOpsOracle, CachedOrderIsTheTopologicalOrder) {
  EXPECT_EQ(c_.order, *topological_order(c_.graph));
  EXPECT_TRUE(is_topological_order(c_.graph, c_.order));
}

TEST_P(StringOpsOracle, SamplerMatchesReference) {
  const TaskGraph& g = c_.graph;
  Rng want_rng(11);
  Rng wrapper_rng(11);
  Rng cached_rng(11);
  // Reused across draws, and first sized for another graph.
  SolutionString reused(std::vector<TaskId>{2, 0, 1},
                        std::vector<MachineId>{0, 0, 0});
  for (int i = 0; i < kDraws; ++i) {
    const SolutionString want =
        reference::random_initial_solution(g, c_.machines, want_rng);
    ASSERT_EQ(random_initial_solution(g, c_.machines, wrapper_rng), want)
        << "draw " << i;
    random_initial_solution(g, c_.order, c_.machines, cached_rng, reused);
    ASSERT_EQ(reused, want) << "draw " << i;
    const std::uint64_t next = want_rng.bits();
    ASSERT_EQ(wrapper_rng.bits(), next) << "draw " << i;
    ASSERT_EQ(cached_rng.bits(), next) << "draw " << i;
  }
}

TEST_P(StringOpsOracle, CrossoverMatchesReference) {
  const TaskGraph& g = c_.graph;
  Rng parents(5);
  Rng want_rng(13);
  Rng got_rng(13);
  SolutionString ca;
  SolutionString cb;
  for (int i = 0; i < kDraws; ++i) {
    const SolutionString a = random_initial_solution(g, c_.machines, parents);
    // Every tenth pair crosses a string with itself.
    const SolutionString b =
        i % 10 == 0 ? a : random_initial_solution(g, c_.machines, parents);
    const auto want = reference::crossover(a, b, want_rng);
    crossover(a, b, got_rng, ca, cb);
    ASSERT_EQ(ca, want.first) << "pair " << i;
    ASSERT_EQ(cb, want.second) << "pair " << i;
    ASSERT_EQ(got_rng.bits(), want_rng.bits()) << "pair " << i;
  }
  EXPECT_TRUE(ca.is_valid(g));
  EXPECT_TRUE(cb.is_valid(g));
}

TEST_P(StringOpsOracle, ValidRangeAndMoveMatchReference) {
  const TaskGraph& g = c_.graph;
  const std::size_t k = g.num_tasks();
  Rng rng(17);
  SolutionString s = random_initial_solution(g, c_.machines, rng);
  reference::String want = reference::String::from(s);
  for (int i = 0; i < kDraws; ++i) {
    // A valid-range move keeps the string valid; both sides must agree on
    // the range and on the string after the move.
    const TaskId t = static_cast<TaskId>(rng.below(k));
    const ValidRange range = s.valid_range(g, t);
    ASSERT_EQ(range, reference::valid_range(want, g, t)) << "step " << i;
    const std::size_t to = range.lo + rng.below(range.size());
    s.move_task(t, to);
    reference::move_task(want, t, to);
    ASSERT_TRUE(same_string(s, want)) << "step " << i;

    // A move to any position, valid or not, on a copy.
    const TaskId u = static_cast<TaskId>(rng.below(k));
    const std::size_t anywhere = rng.below(k);
    SolutionString moved = s;
    reference::String moved_want = want;
    moved.move_task(u, anywhere);
    reference::move_task(moved_want, u, anywhere);
    ASSERT_TRUE(same_string(moved, moved_want)) << "step " << i;
  }
  EXPECT_TRUE(s.is_valid(g));
}

INSTANTIATE_TEST_SUITE_P(Graphs, StringOpsOracle,
                         testing::ValuesIn(case_names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           std::replace(name.begin(), name.end(), '.', '_');
                           return name;
                         });

TEST(StringOps, SamplerChecksItsInputs) {
  TaskGraph g(3);
  g.add_edge(0, 1);
  const std::vector<TaskId> order{0, 1, 2};
  SolutionString out;
  Rng rng(1);
  EXPECT_THROW(random_initial_solution(g, order, 0, rng, out), Error);
  EXPECT_THROW(random_initial_solution(g, std::vector<TaskId>{0, 1}, 2, rng,
                                       out),
               Error);
  EXPECT_THROW(random_initial_solution(g, std::vector<TaskId>{0, 1, 1}, 2,
                                       rng, out),
               Error);
  EXPECT_THROW(random_initial_solution(g, std::vector<TaskId>{0, 1, 3}, 2,
                                       rng, out),
               Error);
  EXPECT_THROW(random_initial_solution(g, 0, rng), Error);
}

TEST(StringOps, AssignCrossoverChecksItsInputs) {
  const SolutionString a(std::vector<TaskId>{0, 1, 2},
                         std::vector<MachineId>{0, 1, 0});
  const SolutionString small(std::vector<TaskId>{0},
                             std::vector<MachineId>{0});
  SolutionString child = a;
  EXPECT_THROW(child.assign_crossover(a, small, 1, 1), Error);
  EXPECT_THROW(child.assign_crossover(a, a, 4, 1), Error);
  EXPECT_THROW(child.assign_crossover(child, a, 1, 1), Error);
  EXPECT_THROW(child.assign_crossover(a, child, 1, 1), Error);
  child.assign_crossover(a, a, 2, 3);
  EXPECT_EQ(child, a);
}

TEST(StringOps, AssignOrderChecksLikeTheConstructor) {
  SolutionString s;
  EXPECT_THROW(s.assign_order(std::vector<TaskId>{0, 0, 1}), Error);
  EXPECT_THROW(s.assign_order(std::vector<TaskId>{0, 3, 1}), Error);
  s.assign_order(std::vector<TaskId>{2, 0, 1});
  EXPECT_EQ(s, SolutionString(std::vector<TaskId>{2, 0, 1},
                              std::vector<MachineId>{0, 0, 0}));
}

}  // namespace
}  // namespace sehc
