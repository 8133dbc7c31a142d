// Differential suite for Evaluator::TrialBatch — SE's SoA reassign sweep.
//
// The batch claims BIT-IDENTICAL results to running the scalar reference
// path (trial_makespan) once per trial with the same bound. This file pins
// that claim across the edge cases: the empty batch, a batch of one, all
// trials pruned (at entry and mid-sweep), mixed prune/survive lane
// compaction, a batch spanning extend_checkpoint() calls, exactness of the
// trial counter (a batch of N counts N), the one-task-per-batch contract,
// and the strip kernels at batch sizes around the AVX2 width.
#include "sched/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "sched/encoding.h"
#include "sched/simd.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Workload small_workload(std::uint64_t seed) {
  WorkloadParams p;
  p.tasks = 22;
  p.machines = 5;
  p.seed = seed;
  return make_workload(p);
}

SolutionString random_solution(const Workload& w, Rng& rng) {
  return random_initial_solution(w.graph(), w.num_machines(), rng);
}

/// Scalar reference: trial_makespan() of `s` with task t on each machine,
/// on a checkpoint at `prefix`.
std::vector<double> scalar_reassigns(const Workload& w, const SolutionString& s,
                                     TaskId t, std::size_t prefix,
                                     double bound) {
  Evaluator eval(w);
  eval.begin_trials(s, prefix);
  SolutionString probe = s;
  std::vector<double> out;
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    probe.set_machine(t, m);
    out.push_back(eval.trial_makespan(probe, bound));
  }
  return out;
}

TEST(TrialBatch, EmptyBatchReturnsNothingAndCountsZeroTrials) {
  const Workload w = small_workload(101);
  Rng rng(1);
  const SolutionString s = random_solution(w, rng);

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);

  eval.begin_trials(s, 0);
  batch.begin_checkpoint(s);
  const std::size_t before = eval.trial_count();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.evaluate(kInf).empty());
  EXPECT_EQ(eval.trial_count(), before);
  EXPECT_EQ(batch.metrics().batches, 0u);
}

TEST(TrialBatch, BatchOfOneMatchesScalarExactly) {
  const Workload w = small_workload(102);
  Rng rng(2);
  const SolutionString s = random_solution(w, rng);

  Evaluator batch_eval(w);
  Evaluator scalar_eval(w);
  Evaluator::TrialBatch batch(batch_eval);

  // Single reassign trial, with and without pruning.
  const TaskId t = static_cast<TaskId>(s.size() / 2);
  batch_eval.begin_trials(s, 0);
  scalar_eval.begin_trials(s, 0);
  SolutionString probe = s;
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    probe.set_machine(t, m);
    const double exact = scalar_eval.trial_makespan(probe, kInf);
    for (const double bound : {kInf, exact, exact * 0.5}) {
      batch.begin_checkpoint(s);
      batch.add_reassign(t, m);
      const std::vector<double>& lens = batch.evaluate(bound);
      ASSERT_EQ(lens.size(), 1u);
      EXPECT_EQ(lens[0], scalar_eval.trial_makespan(probe, bound));
    }
  }
}

TEST(TrialBatch, UniformReassignMatchesScalarAcrossCheckpointExtensions) {
  // The SE allocation-scan shape: one begin_checkpoint, then per position a
  // round of all-machine reassign trials with an evolving bound, with
  // extend_checkpoint() advancing the shared prefix BETWEEN evaluate()
  // rounds of the same batch object — the checkpoint state is read at
  // evaluate() time.
  const Workload w = small_workload(103);
  Rng rng(3);
  SolutionString s = random_solution(w, rng);

  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  const ValidRange range = s.valid_range(w.graph(), t);

  Evaluator batch_eval(w);
  Evaluator scalar_eval(w);
  Evaluator::TrialBatch batch(batch_eval);

  batch_eval.begin_trials(s, range.lo);
  scalar_eval.begin_trials(s, range.lo);
  s.move_task(t, range.lo);
  batch.begin_checkpoint(s);

  double best_len = kInf;
  for (std::size_t pos = range.lo; pos <= range.hi; ++pos) {
    for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(t, m);
    // The batch contract: one shared bound for the whole round (the bound
    // at round start), not the within-round tightening a scalar loop could
    // do — so the scalar replay pins against the same round-start bound.
    const double round_bound = best_len;
    const std::vector<double>& lens = batch.evaluate(round_bound);
    ASSERT_EQ(lens.size(), w.num_machines());
    SolutionString probe = s;
    for (MachineId m = 0; m < w.num_machines(); ++m) {
      probe.set_machine(t, m);
      const double scalar = scalar_eval.trial_makespan(probe, round_bound);
      EXPECT_EQ(lens[m], scalar) << "pos " << pos << " machine " << m;
      best_len = std::min(best_len, scalar);  // +inf never lowers the bound
    }
    if (pos == range.hi) break;
    s.move_task(t, pos + 1);
    batch_eval.extend_checkpoint(s);
    scalar_eval.extend_checkpoint(s);
  }
}

TEST(TrialBatch, UniformPathPrunesAndCompactsLikeScalar) {
  // Bounds at every exact value retire some lanes mid-sweep and keep others
  // (dense lane swap compaction), for every task of three strings, so a
  // compacted lane's edit machine is read again wherever the task has a
  // later successor: every surviving value must be exact, every pruned
  // value +infinity exactly where the scalar prunes.
  for (const std::uint64_t seed : {106u, 116u, 126u}) {
    const Workload w = small_workload(seed);
    Rng rng(seed);
    const SolutionString s = random_solution(w, rng);

    Evaluator batch_eval(w);
    Evaluator scalar_eval(w);
    Evaluator::TrialBatch batch(batch_eval);
    batch_eval.begin_trials(s, 0);
    scalar_eval.begin_trials(s, 0);

    for (TaskId t = 0; t < s.size(); ++t) {
      std::vector<double> bounds = scalar_reassigns(w, s, t, 0, kInf);
      bounds.push_back(0.0);
      SolutionString probe = s;
      for (const double bound : bounds) {
        batch.begin_checkpoint(s);
        for (MachineId m = 0; m < w.num_machines(); ++m) {
          batch.add_reassign(t, m);
        }
        const std::vector<double>& lens = batch.evaluate(bound);
        for (MachineId m = 0; m < w.num_machines(); ++m) {
          probe.set_machine(t, m);
          EXPECT_EQ(lens[m], scalar_eval.trial_makespan(probe, bound))
              << "seed " << seed << " task " << t << " machine " << m
              << " bound " << bound;
        }
      }
    }
  }
}

TEST(TrialBatch, CountsExactlyBatchSizeTrials) {
  // The evals currency stays exact: a batch of N counts N — including lanes
  // pruned mid-sweep and lanes pruned at entry (checkpoint already past the
  // bound) — and evaluate() clears the pending list.
  const Workload w = small_workload(107);
  Rng rng(7);
  const SolutionString s = random_solution(w, rng);
  const std::size_t l = w.num_machines();

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  eval.begin_trials(s, 0);
  eval.reset_trial_count();

  const TaskId last = s.segment(s.size() - 1).task;
  batch.begin_checkpoint(s);
  for (MachineId m = 0; m < l; ++m) batch.add_reassign(last, m);
  EXPECT_EQ(batch.size(), l);
  const std::vector<double>& lens = batch.evaluate(0.0);  // prunes them all
  ASSERT_EQ(lens.size(), l);
  EXPECT_EQ(eval.trial_count(), l);
  EXPECT_TRUE(batch.empty());

  // A checkpoint just below the last task: its makespan is positive, so
  // bound 0 prunes every lane at the entry check, and each still counts.
  eval.begin_trials(s, s.size() - 1);
  batch.begin_checkpoint(s);
  for (MachineId m = 0; m < l; ++m) batch.add_reassign(last, m);
  for (const double v : batch.evaluate(0.0)) EXPECT_EQ(v, kInf);
  EXPECT_EQ(eval.trial_count(), 2 * l);

  // Counting holds across repeated rounds, unpruned ones included.
  const std::vector<double> want =
      scalar_reassigns(w, s, last, s.size() - 1, kInf);
  for (MachineId m = 0; m < l; ++m) batch.add_reassign(last, m);
  EXPECT_EQ(batch.evaluate(kInf), want);
  EXPECT_EQ(eval.trial_count(), 3 * l);
}

TEST(TrialBatch, ClearDropsPendingTrialsWithoutCounting) {
  const Workload w = small_workload(108);
  Rng rng(8);
  const SolutionString s = random_solution(w, rng);

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  eval.begin_trials(s, 0);
  eval.reset_trial_count();

  batch.begin_checkpoint(s);
  batch.add_reassign(static_cast<TaskId>(rng.below(s.size())), 1);
  EXPECT_EQ(batch.size(), 1u);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.evaluate(kInf).empty());
  EXPECT_EQ(eval.trial_count(), 0u);
}

TEST(TrialBatch, PrunedMetricCountsRetiredLanes) {
  // The pruned metric is tracked where lanes retire (compaction and the
  // entry check), never by rescanning results_: pin it against an explicit
  // +infinity count of the returned results.
  const Workload w = small_workload(111);
  Rng rng(11);
  const SolutionString s = random_solution(w, rng);

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  std::uint64_t expect_pruned = 0;

  const auto inf_count = [](const std::vector<double>& lens) {
    std::uint64_t n = 0;
    for (const double v : lens) {
      if (v == kInf) ++n;
    }
    return n;
  };

  // Full survival, partial compaction, all pruned mid-sweep.
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  eval.begin_trials(s, 0);
  const std::vector<double> exact = scalar_reassigns(w, s, t, 0, kInf);
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  for (const double bound : {kInf, sorted[sorted.size() / 2], 0.0}) {
    batch.begin_checkpoint(s);
    for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(t, m);
    expect_pruned += inf_count(batch.evaluate(bound));
    EXPECT_EQ(batch.metrics().pruned, expect_pruned) << "bound " << bound;
  }
  EXPECT_GT(expect_pruned, 0u);

  // Entry-pruned lanes: a checkpoint whose prefix is already past the
  // bound retires every lane before the sweep starts.
  const TaskId last = s.segment(s.size() - 1).task;
  eval.begin_trials(s, s.size() - 1);
  batch.begin_checkpoint(s);
  for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(last, m);
  const std::uint64_t entry = inf_count(batch.evaluate(0.0));
  EXPECT_EQ(entry, w.num_machines());
  expect_pruned += entry;
  EXPECT_EQ(batch.metrics().pruned, expect_pruned);
  EXPECT_EQ(batch.metrics().trials, 4 * w.num_machines());
}

TEST(TrialBatch, SecondTaskInOneBatchThrows) {
  // One batch is one task's machine candidates; a reassign of another task
  // is an error, and it leaves the pending trials as they were.
  const Workload w = small_workload(115);
  Rng rng(15);
  const SolutionString s = random_solution(w, rng);

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  eval.begin_trials(s, 0);
  batch.begin_checkpoint(s);
  batch.add_reassign(3, 0);
  batch.add_reassign(3, 1);
  EXPECT_THROW(batch.add_reassign(4, 0), Error);
  EXPECT_EQ(batch.size(), 2u);

  // After evaluate() (or clear()) the next batch may name another task.
  batch.evaluate(kInf);
  EXPECT_NO_THROW(batch.add_reassign(4, 0));
  batch.clear();
  EXPECT_NO_THROW(batch.add_reassign(5, 0));
}

// --- SIMD strip kernels ------------------------------------------------------
//
// The sweep's inner loops run as width-4 AVX2 strips with a scalar tail.
// These tests force the scalar kernel and compare it with `auto` on exactly
// the shapes where strip arithmetic can go wrong: batch sizes around the
// strip width, compaction that leaves a ragged tail mid-strip, and an
// all-pruned first position. Where `auto` resolves to scalar (no AVX2), the
// comparison is vacuous, so the tests skip.

/// Batch sizes below, at, just above and well above the AVX2 width.
constexpr std::size_t kBatchSizes[] = {1, 3, 4, 5, 11};

bool simd_available() {
  return resolve_kernel(KernelChoice::kAuto) != SimdKernel::kScalar;
}

/// Evaluates the same uniform-reassign round (machines cycling over `n`
/// lanes) under the given kernel and returns the results.
std::vector<double> uniform_round(const Workload& w, const SolutionString& s,
                                  TaskId t, std::size_t n, double bound,
                                  KernelChoice kernel) {
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  batch.set_kernel(kernel);
  eval.begin_trials(s, 0);
  batch.begin_checkpoint(s);
  for (std::size_t i = 0; i < n; ++i) {
    batch.add_reassign(t, static_cast<MachineId>(i % w.num_machines()));
  }
  return batch.evaluate(bound);
}

TEST(TrialBatchSimd, EdgeShapeBatchSizesMatchScalarBitForBit) {
  if (!simd_available()) GTEST_SKIP() << "auto resolves to scalar here";

  const Workload w = small_workload(112);
  Rng rng(12);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));

  // Scalar per-trial reference.
  Evaluator scalar_eval(w);
  scalar_eval.begin_trials(s, 0);
  SolutionString probe = s;

  for (const std::size_t n : kBatchSizes) {
    const std::vector<double> scalar =
        uniform_round(w, s, t, n, kInf, KernelChoice::kScalar);
    const std::vector<double> simd =
        uniform_round(w, s, t, n, kInf, KernelChoice::kAuto);
    ASSERT_EQ(scalar.size(), n);
    ASSERT_EQ(simd.size(), n);
    EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(), n * sizeof(double)))
        << "batch size " << n;
    for (std::size_t i = 0; i < n; ++i) {
      probe.set_machine(t, static_cast<MachineId>(i % w.num_machines()));
      EXPECT_EQ(simd[i], scalar_eval.trial_makespan(probe, kInf))
          << "batch size " << n << " lane " << i;
    }
  }
}

TEST(TrialBatchSimd, CompactionMidStripLeavesRaggedTailIdentical) {
  if (!simd_available()) GTEST_SKIP() << "auto resolves to scalar here";

  const Workload w = small_workload(113);
  Rng rng(13);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));

  // Bounds at every exact value force compaction at varying sweep depths,
  // leaving live-lane counts that are ragged with respect to the strip
  // width (the tail loop and the compacted-lane columns must both agree).
  for (const std::size_t n : kBatchSizes) {
    const std::vector<double> exact =
        uniform_round(w, s, t, n, kInf, KernelChoice::kScalar);
    for (const double bound : exact) {
      const std::vector<double> scalar =
          uniform_round(w, s, t, n, bound, KernelChoice::kScalar);
      const std::vector<double> simd =
          uniform_round(w, s, t, n, bound, KernelChoice::kAuto);
      EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(), n * sizeof(double)))
          << "batch size " << n << " bound " << bound;
    }
  }
}

TEST(TrialBatchSimd, AllLanesPrunedAtFirstPositionMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "auto resolves to scalar here";

  const Workload w = small_workload(114);
  Rng rng(14);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));

  // Bound 0 with a zero-length checkpoint passes the entry check (0 > 0 is
  // false) and retires every lane at the first swept position.
  for (const std::size_t n : kBatchSizes) {
    const std::vector<double> scalar =
        uniform_round(w, s, t, n, 0.0, KernelChoice::kScalar);
    const std::vector<double> simd =
        uniform_round(w, s, t, n, 0.0, KernelChoice::kAuto);
    ASSERT_EQ(simd.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(scalar[i], kInf);
      EXPECT_EQ(simd[i], kInf);
    }
  }
}

TEST(TrialBatchSimd, RandomizedTrialSetsByteIdenticalAcrossKernels) {
  if (!simd_available()) GTEST_SKIP() << "auto resolves to scalar here";

  // Randomized rounds: forced-scalar and auto results must be
  // byte-identical.
  for (const std::uint64_t seed : {201u, 202u, 203u, 204u}) {
    const Workload w = small_workload(seed);
    Rng rng(seed);
    const SolutionString s = random_solution(w, rng);
    const TaskId t = static_cast<TaskId>(rng.below(s.size()));
    const std::size_t n = 1 + rng.below(3 * w.num_machines());
    const std::vector<double> exact =
        uniform_round(w, s, t, n, kInf, KernelChoice::kScalar);
    std::vector<double> sorted = exact;
    std::sort(sorted.begin(), sorted.end());
    const double bound = sorted[rng.below(sorted.size())];
    const std::vector<double> scalar =
        uniform_round(w, s, t, n, bound, KernelChoice::kScalar);
    const std::vector<double> simd =
        uniform_round(w, s, t, n, bound, KernelChoice::kAuto);
    EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(), n * sizeof(double)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace sehc
