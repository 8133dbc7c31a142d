#include "ga/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dag/topo.h"
#include "workload/generator.h"

namespace sehc {
namespace {

SolutionString random_solution(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  return random_initial_solution(w.graph(), w.num_machines(), rng);
}

Workload medium_workload(std::uint64_t seed) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  p.seed = seed;
  return make_workload(p);
}

/// Crosses `a` and `b` into two fresh children.
std::pair<SolutionString, SolutionString> cross(const SolutionString& a,
                                                const SolutionString& b,
                                                Rng& rng) {
  std::pair<SolutionString, SolutionString> children;
  crossover(a, b, rng, children.first, children.second);
  return children;
}

TEST(GaOperators, MatchingCrossoverSwapsSuffixAssignments) {
  const Workload w = medium_workload(1);
  const SolutionString a = random_solution(w, 1);
  const SolutionString b = random_solution(w, 2);
  Rng rng(3);
  const auto [ca, cb] = cross(a, b, rng);

  // One cut over task ids: below it each child keeps its own parent's
  // machine, from it on the two children swap.
  const auto asg_a = a.assignment();
  const auto asg_b = b.assignment();
  const auto asg_ca = ca.assignment();
  const auto asg_cb = cb.assignment();
  std::size_t cut = 0;
  while (cut < w.num_tasks() && asg_ca[cut] == asg_a[cut] &&
         asg_cb[cut] == asg_b[cut]) {
    ++cut;
  }
  EXPECT_GE(cut, 1u);
  for (TaskId t = static_cast<TaskId>(cut); t < w.num_tasks(); ++t) {
    EXPECT_EQ(asg_ca[t], asg_b[t]) << "task " << t;
    EXPECT_EQ(asg_cb[t], asg_a[t]) << "task " << t;
  }
}

TEST(GaOperators, MatchingCrossoverPreservesValidity) {
  const Workload w = medium_workload(2);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const SolutionString a = random_solution(w, 10 + i);
    const SolutionString b = random_solution(w, 50 + i);
    const auto [ca, cb] = cross(a, b, rng);
    EXPECT_TRUE(ca.is_valid(w.graph()));
    EXPECT_TRUE(cb.is_valid(w.graph()));
  }
}

TEST(GaOperators, SchedulingCrossoverPreservesTopologicalValidity) {
  const Workload w = medium_workload(3);
  Rng rng(5);
  SolutionString ca;
  SolutionString cb;
  for (int i = 0; i < 50; ++i) {
    const SolutionString a = random_solution(w, 100 + i);
    const SolutionString b = random_solution(w, 200 + i);
    crossover(a, b, rng, ca, cb);  // reused children
    EXPECT_TRUE(ca.is_valid(w.graph())) << "iteration " << i;
    EXPECT_TRUE(cb.is_valid(w.graph())) << "iteration " << i;
  }
}

TEST(GaOperators, SchedulingCrossoverKeepsAssignments) {
  // Each child keeps a prefix of its own parent's string and takes the
  // other tasks in the other parent's relative order; no task's machine
  // pair is lost or invented.
  const Workload w = medium_workload(4);
  const SolutionString a = random_solution(w, 7);
  const SolutionString b = random_solution(w, 8);
  Rng rng(9);
  const auto [ca, cb] = cross(a, b, rng);
  const auto order_a = a.order();
  const auto order_b = b.order();
  const auto order_ca = ca.order();
  const auto order_cb = cb.order();
  std::size_t cut = 0;
  while (cut < order_a.size() && order_ca[cut] == order_a[cut] &&
         order_cb[cut] == order_b[cut]) {
    ++cut;
  }
  EXPECT_GE(cut, 1u);
  auto rest_in_order_of = [&](const std::vector<TaskId>& child,
                              const std::vector<TaskId>& other) {
    std::vector<TaskId> expected;
    for (TaskId t : other) {
      if (std::find(child.begin(), child.begin() + cut, t) ==
          child.begin() + cut) {
        expected.push_back(t);
      }
    }
    return std::equal(expected.begin(), expected.end(), child.begin() + cut);
  };
  EXPECT_TRUE(rest_in_order_of(order_ca, order_b));
  EXPECT_TRUE(rest_in_order_of(order_cb, order_a));
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    std::vector<MachineId> parents{a.machine_of(t), b.machine_of(t)};
    std::vector<MachineId> children{ca.machine_of(t), cb.machine_of(t)};
    std::sort(parents.begin(), parents.end());
    std::sort(children.begin(), children.end());
    EXPECT_EQ(children, parents) << "task " << t;
  }
}

TEST(GaOperators, SchedulingCrossoverMixesParents) {
  // With distinct parents, at least one child should differ from both
  // parents for most cuts; verify it happens across attempts.
  const Workload w = medium_workload(5);
  Rng rng(11);
  bool mixed = false;
  for (int i = 0; i < 10 && !mixed; ++i) {
    const SolutionString a = random_solution(w, 300 + i);
    const SolutionString b = random_solution(w, 400 + i);
    const auto [ca, cb] = cross(a, b, rng);
    mixed = (ca.order() != a.order()) || (cb.order() != b.order());
  }
  EXPECT_TRUE(mixed);
}

TEST(GaOperators, MatchingMutationChangesOnlyOneAssignmentSlot) {
  const Workload w = medium_workload(6);
  const SolutionString before = random_solution(w, 12);
  SolutionString after = before;
  Rng rng(13);
  matching_mutation(after, w.num_machines(), rng);
  EXPECT_EQ(after.order(), before.order());
  std::size_t diffs = 0;
  const auto ba = before.assignment();
  const auto aa = after.assignment();
  for (TaskId t = 0; t < w.num_tasks(); ++t) diffs += (ba[t] != aa[t]);
  EXPECT_LE(diffs, 1u);  // may be 0 if the same machine was redrawn
}

TEST(GaOperators, SchedulingMutationPreservesValidity) {
  const Workload w = medium_workload(7);
  Rng rng(14);
  SolutionString s = random_solution(w, 15);
  for (int i = 0; i < 100; ++i) {
    scheduling_mutation(s, w.graph(), rng);
    ASSERT_TRUE(s.is_valid(w.graph())) << "mutation " << i;
  }
}

TEST(GaOperators, CrossoverSizeMismatchThrows) {
  const Workload w = medium_workload(8);
  const SolutionString a = random_solution(w, 1);
  const SolutionString small(std::vector<TaskId>{0},
                             std::vector<MachineId>{0});
  Rng rng(1);
  SolutionString ca;
  SolutionString cb;
  EXPECT_THROW(crossover(a, small, rng, ca, cb), Error);
  EXPECT_THROW(crossover(small, a, rng, ca, cb), Error);
  EXPECT_THROW(crossover(a, a, rng, ca, ca), Error);  // aliased children
}

}  // namespace
}  // namespace sehc
