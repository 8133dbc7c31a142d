// Differential suite for Evaluator::TrialBatch — the batched SoA trial
// kernel.
//
// The batch claims BIT-IDENTICAL results to running the scalar reference
// paths (trial_makespan / prepared_trial) once per trial with the same
// bound. This file pins that claim per trial kind (reassign / move /
// string), per mode (rolling checkpoint / prepared state), and across the
// edge cases: the empty batch, a batch of one, all trials pruned, mixed
// prune/survive lane compaction, a batch spanning extend_checkpoint()
// calls, and exactness of the trial counter (a batch of N counts N).
#include "sched/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <cstring>

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

/// One random virtual move (task, new position within the valid range, new
/// machine) against `s`, without mutating it.
struct MoveDraw {
  TaskId task;
  std::size_t old_pos;
  std::size_t new_pos;
  MachineId machine;
  std::size_t suffix_start() const { return std::min(old_pos, new_pos); }
};

MoveDraw draw_move(const SolutionString& s, const Workload& w, Rng& rng) {
  MoveDraw m;
  m.task = static_cast<TaskId>(rng.below(s.size()));
  m.old_pos = s.position_of(m.task);
  const ValidRange range = s.valid_range(w.graph(), m.task);
  m.new_pos = range.lo + static_cast<std::size_t>(rng.below(range.size()));
  m.machine = static_cast<MachineId>(rng.below(w.num_machines()));
  return m;
}

SolutionString apply_move(const SolutionString& s, const MoveDraw& m) {
  SolutionString out = s;
  out.move_task(m.task, m.new_pos);
  out.set_machine(m.task, m.machine);
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

  eval.prepare(s);
  batch.begin_prepared(s);
  EXPECT_TRUE(batch.evaluate(kInf).empty());
  EXPECT_EQ(eval.trial_count(), before);
}

TEST(TrialBatch, BatchOfOneMatchesScalarExactly) {
  const Workload w = small_workload(102);
  Rng rng(2);
  const SolutionString s = random_solution(w, rng);

  Evaluator batch_eval(w);
  Evaluator scalar_eval(w);
  Evaluator::TrialBatch batch(batch_eval);

  // Checkpoint mode, single reassign trial, with and without pruning.
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

  // Prepared mode, single move trial.
  batch_eval.prepare(s);
  scalar_eval.prepare(s);
  for (int i = 0; i < 10; ++i) {
    const MoveDraw m = draw_move(s, w, rng);
    const SolutionString moved = apply_move(s, m);
    batch.begin_prepared(s);
    batch.add_move(m.task, m.new_pos, m.machine);
    const std::vector<double>& lens = batch.evaluate(kInf);
    ASSERT_EQ(lens.size(), 1u);
    EXPECT_EQ(lens[0],
              scalar_eval.prepared_trial(moved, m.suffix_start(), kInf));
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

TEST(TrialBatch, MixedTrialKindsPreparedMatchScalar) {
  // One batch mixing all three kinds in prepared mode.
  const Workload w = small_workload(104);
  Rng rng(4);
  const SolutionString s = random_solution(w, rng);

  Evaluator batch_eval(w);
  Evaluator scalar_eval(w);
  Evaluator::TrialBatch batch(batch_eval);
  scalar_eval.prepare(s);
  batch_eval.prepare(s);

  // Materialized trial strings must outlive evaluate().
  std::vector<MoveDraw> moves;
  std::vector<SolutionString> strings;
  for (int i = 0; i < 6; ++i) moves.push_back(draw_move(s, w, rng));
  for (const MoveDraw& m : moves) strings.push_back(apply_move(s, m));

  batch.begin_prepared(s);
  const TaskId rt = static_cast<TaskId>(s.size() - 1);
  // 6 moves + 2 explicit strings + all-machine reassigns of one task.
  for (std::size_t i = 0; i < 4; ++i) {
    batch.add_move(moves[i].task, moves[i].new_pos, moves[i].machine);
  }
  batch.add_string(strings[4], moves[4].suffix_start());
  batch.add_string(strings[5], moves[5].suffix_start());
  for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(rt, m);

  const std::vector<double>& lens = batch.evaluate(kInf);
  ASSERT_EQ(lens.size(), 6u + w.num_machines());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(lens[i], scalar_eval.prepared_trial(
                           strings[i], moves[i].suffix_start(), kInf))
        << "trial " << i;
  }
  SolutionString probe = s;
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    probe.set_machine(rt, m);
    EXPECT_EQ(lens[6 + m],
              scalar_eval.prepared_trial(probe, s.position_of(rt), kInf));
  }
}

TEST(TrialBatch, PruningAndCompactionMatchScalarLaneForLane) {
  // A bound around the median retires some lanes mid-sweep and keeps
  // others: every surviving value must be exact, every pruned value must be
  // +infinity exactly where the scalar prunes.
  const Workload w = small_workload(105);
  Rng rng(5);
  const SolutionString s = random_solution(w, rng);

  Evaluator batch_eval(w);
  Evaluator scalar_eval(w);
  Evaluator::TrialBatch batch(batch_eval);
  batch_eval.prepare(s);
  scalar_eval.prepare(s);

  std::vector<MoveDraw> moves;
  std::vector<SolutionString> moved;
  std::vector<double> exact;
  for (int i = 0; i < 16; ++i) {
    moves.push_back(draw_move(s, w, rng));
    moved.push_back(apply_move(s, moves.back()));
    exact.push_back(
        scalar_eval.prepared_trial(moved.back(), moves.back().suffix_start(),
                                   kInf));
  }
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];

  for (const double bound : {median, sorted.front(), 0.0}) {
    batch.begin_prepared(s);
    for (const MoveDraw& m : moves) batch.add_move(m.task, m.new_pos, m.machine);
    const std::vector<double>& lens = batch.evaluate(bound);
    ASSERT_EQ(lens.size(), moves.size());
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      const double scalar = scalar_eval.prepared_trial(
          moved[i], moves[i].suffix_start(), bound);
      EXPECT_EQ(lens[i], scalar) << "trial " << i << " bound " << bound;
      // The pruning contract itself: exact at or below the bound, +infinity
      // strictly above it.
      if (exact[i] <= bound) {
        EXPECT_EQ(lens[i], exact[i]);
      } else {
        EXPECT_EQ(lens[i], kInf);
        ++pruned;
      }
    }
    if (bound == 0.0) {
      EXPECT_EQ(pruned, moves.size());  // all-pruned batch
    }
  }
}

TEST(TrialBatch, UniformPathPrunesAndCompactsLikeScalar) {
  // Same prune/survive pinning for the uniform checkpoint fast path (dense
  // lane swap compaction instead of the live-index list).
  const Workload w = small_workload(106);
  Rng rng(6);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));

  Evaluator batch_eval(w);
  Evaluator scalar_eval(w);
  Evaluator::TrialBatch batch(batch_eval);
  batch_eval.begin_trials(s, 0);
  scalar_eval.begin_trials(s, 0);

  std::vector<double> exact;
  SolutionString probe = s;
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    probe.set_machine(t, m);
    exact.push_back(scalar_eval.trial_makespan(probe, kInf));
  }
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());

  for (const double bound : {sorted[sorted.size() / 2], sorted.front(), 0.0}) {
    batch.begin_checkpoint(s);
    for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(t, m);
    const std::vector<double>& lens = batch.evaluate(bound);
    for (MachineId m = 0; m < w.num_machines(); ++m) {
      probe.set_machine(t, m);
      EXPECT_EQ(lens[m], scalar_eval.trial_makespan(probe, bound))
          << "machine " << m << " bound " << bound;
    }
  }
}

TEST(TrialBatch, CountsExactlyBatchSizeTrials) {
  // The evals currency stays exact: a batch of N counts N — including
  // pruned lanes and empty-suffix (from == k) trials — and evaluate()
  // clears the pending list.
  const Workload w = small_workload(107);
  Rng rng(7);
  const SolutionString s = random_solution(w, rng);

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  eval.prepare(s);
  eval.reset_trial_count();

  std::vector<MoveDraw> moves;
  std::vector<SolutionString> moved;
  for (int i = 0; i < 5; ++i) {
    moves.push_back(draw_move(s, w, rng));
    moved.push_back(apply_move(s, moves.back()));
  }

  batch.begin_prepared(s);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    batch.add_string(moved[i], moves[i].suffix_start());
  }
  batch.add_string(s, s.size());  // empty suffix: exact prefix makespan
  EXPECT_EQ(batch.size(), 6u);
  const std::vector<double>& lens = batch.evaluate(0.0);  // prunes the moves
  ASSERT_EQ(lens.size(), 6u);
  EXPECT_EQ(eval.trial_count(), 6u);
  EXPECT_TRUE(batch.empty());

  // The empty-suffix trial bypasses the sweep yet still matches the scalar
  // path bit for bit (the full prepared makespan, never pruned at bound 0
  // only if the prefix itself exceeds it — pin against scalar).
  Evaluator scalar_eval(w);
  scalar_eval.prepare(s);
  EXPECT_EQ(lens[5], scalar_eval.prepared_trial(s, s.size(), 0.0));

  // Counting holds across modes and repeated rounds.
  eval.begin_trials(s, 0);
  batch.begin_checkpoint(s);
  const TaskId t = 0;
  for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(t, m);
  batch.evaluate(kInf);
  EXPECT_EQ(eval.trial_count(), 6u + w.num_machines());
}

TEST(TrialBatch, ClearDropsPendingTrialsWithoutCounting) {
  const Workload w = small_workload(108);
  Rng rng(8);
  const SolutionString s = random_solution(w, rng);

  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  eval.prepare(s);
  eval.reset_trial_count();

  batch.begin_prepared(s);
  const MoveDraw m = draw_move(s, w, rng);
  batch.add_move(m.task, m.new_pos, m.machine);
  EXPECT_EQ(batch.size(), 1u);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.evaluate(kInf).empty());
  EXPECT_EQ(eval.trial_count(), 0u);
}

TEST(TrialBatch, PrunedMetricCountsRetiredLanes) {
  // The pruned metric is tracked where lanes retire (compaction / live-list
  // drops / entry checks), never by rescanning results_: pin it against an
  // explicit +infinity count of the returned results, in both modes and
  // across the entry-prune and empty-suffix corners.
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

  // Uniform checkpoint path: full survival, partial compaction, all pruned.
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  eval.begin_trials(s, 0);
  std::vector<double> exact;
  {
    Evaluator scalar_eval(w);
    scalar_eval.begin_trials(s, 0);
    SolutionString probe = s;
    for (MachineId m = 0; m < w.num_machines(); ++m) {
      probe.set_machine(t, m);
      exact.push_back(scalar_eval.trial_makespan(probe, kInf));
    }
  }
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  for (const double bound : {kInf, sorted[sorted.size() / 2], 0.0}) {
    batch.begin_checkpoint(s);
    for (MachineId m = 0; m < w.num_machines(); ++m) batch.add_reassign(t, m);
    expect_pruned += inf_count(batch.evaluate(bound));
    EXPECT_EQ(batch.metrics().pruned, expect_pruned) << "bound " << bound;
  }

  // General prepared path: mixed survive/prune plus an entry-pruned trial
  // (prefix already past the bound) and a never-pruned empty suffix.
  eval.prepare(s);
  std::vector<MoveDraw> moves;
  std::vector<SolutionString> moved;
  for (int i = 0; i < 12; ++i) {
    moves.push_back(draw_move(s, w, rng));
    moved.push_back(apply_move(s, moves.back()));
  }
  for (const double bound : {kInf, exact[0], 0.0}) {
    batch.begin_prepared(s);
    for (std::size_t i = 0; i < moves.size(); ++i) {
      batch.add_string(moved[i], moves[i].suffix_start());
    }
    batch.add_string(s, s.size());  // empty suffix
    expect_pruned += inf_count(batch.evaluate(bound));
    EXPECT_EQ(batch.metrics().pruned, expect_pruned) << "bound " << bound;
  }
}

// --- SIMD strip kernels ------------------------------------------------------
//
// The uniform sweep's inner loops run as width-W vector strips with a scalar
// tail. These tests force the scalar and SIMD kernels explicitly and pin
// bit-identity on exactly the shapes where strip arithmetic can go wrong:
// batch sizes around the vector width, compaction that leaves a ragged
// tail mid-strip, and an all-pruned first position. Where the CPU has no
// vector unit, forced-simd resolves to scalar and the comparison is
// vacuous, so the tests skip.

bool simd_available() {
  return detect_simd_kernel() != SimdKernel::kScalar;
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
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const std::size_t W = kernel_width(detect_simd_kernel());
  ASSERT_GE(W, 2u);

  const Workload w = small_workload(112);
  Rng rng(12);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));

  // Scalar per-trial reference for the largest shape.
  Evaluator scalar_eval(w);
  scalar_eval.begin_trials(s, 0);
  SolutionString probe = s;

  for (const std::size_t n : {std::size_t{1}, W - 1, W, W + 1, 2 * W + 3}) {
    if (n == 0) continue;
    const std::vector<double> scalar =
        uniform_round(w, s, t, n, kInf, KernelChoice::kScalar);
    const std::vector<double> simd =
        uniform_round(w, s, t, n, kInf, KernelChoice::kSimd);
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
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const std::size_t W = kernel_width(detect_simd_kernel());

  const Workload w = small_workload(113);
  Rng rng(13);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  const std::size_t n = 2 * W + 3;

  // Bounds at every exact value force compaction at varying sweep depths,
  // leaving live-lane counts that are ragged with respect to the strip
  // width (the tail loop and the compacted-lane columns must both agree).
  const std::vector<double> exact =
      uniform_round(w, s, t, n, kInf, KernelChoice::kScalar);
  for (const double bound : exact) {
    if (bound == kInf) continue;
    const std::vector<double> scalar =
        uniform_round(w, s, t, n, bound, KernelChoice::kScalar);
    const std::vector<double> simd =
        uniform_round(w, s, t, n, bound, KernelChoice::kSimd);
    EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(), n * sizeof(double)))
        << "bound " << bound;
  }
}

TEST(TrialBatchSimd, AllLanesPrunedAtFirstPositionMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";
  const std::size_t W = kernel_width(detect_simd_kernel());

  const Workload w = small_workload(114);
  Rng rng(14);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  const std::size_t n = 2 * W + 1;

  // Bound 0 with a zero-length checkpoint passes the entry check (0 > 0 is
  // false) and retires every lane at the first swept position.
  const std::vector<double> scalar =
      uniform_round(w, s, t, n, 0.0, KernelChoice::kScalar);
  const std::vector<double> simd =
      uniform_round(w, s, t, n, 0.0, KernelChoice::kSimd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(scalar[i], kInf);
    EXPECT_EQ(simd[i], kInf);
  }
}

TEST(TrialBatchSimd, RandomizedTrialSetsByteIdenticalAcrossKernels) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD backend on this CPU";

  // Randomized uniform rounds (the SIMD path) plus mixed prepared batches
  // (the general path, kernel-independent but swept for completeness):
  // forced-scalar and forced-simd results_ must be byte-identical.
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
        uniform_round(w, s, t, n, bound, KernelChoice::kSimd);
    EXPECT_EQ(0, std::memcmp(scalar.data(), simd.data(), n * sizeof(double)))
        << "seed " << seed;

    Evaluator scalar_eval(w);
    Evaluator simd_eval(w);
    Evaluator::TrialBatch scalar_batch(scalar_eval);
    Evaluator::TrialBatch simd_batch(simd_eval);
    scalar_batch.set_kernel(KernelChoice::kScalar);
    simd_batch.set_kernel(KernelChoice::kSimd);
    scalar_eval.prepare(s);
    simd_eval.prepare(s);
    std::vector<MoveDraw> moves;
    for (int i = 0; i < 10; ++i) moves.push_back(draw_move(s, w, rng));
    scalar_batch.begin_prepared(s);
    simd_batch.begin_prepared(s);
    for (const MoveDraw& m : moves) {
      scalar_batch.add_move(m.task, m.new_pos, m.machine);
      simd_batch.add_move(m.task, m.new_pos, m.machine);
    }
    const std::vector<double>& a = scalar_batch.evaluate(bound);
    const std::vector<double>& b = simd_batch.evaluate(bound);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace sehc
