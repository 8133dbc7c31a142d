// Differential suite for Evaluator::TrialBatch — SE's SoA allocation sweep.
//
// The batch claims BIT-IDENTICAL results to running the scalar reference
// path (trial_makespan) once per trial with the same bound. This file pins
// that claim across the edge cases: the empty batch, a batch of one, all
// trials pruned (at entry and at the end), mixed prune/survive bounds, a
// batch spanning extend_checkpoint() calls, exactness of the trial counter
// (a batch of N counts N), the one-task-per-batch contract, and the strip
// kernels at batch sizes around the AVX2 width. The TrialBatchSlide suite
// checks every lane of whole-scan batches (reassigns plus slides) against
// Evaluator::makespan() of its explicit trial string, on small and
// degenerate shapes and on batches large enough to sweep in chunks, one of
// them with more reassign lanes than one sweep holds. The TrialBatchStrip
// suite checks the fused strip op at every lane count from 1 to 17 and in a
// chunked batch, on segments with 0-4 simulated predecessors, with and
// without the edited task among them, under both kernels.
#include "sched/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "sched/encoding.h"
#include "sched/simd.h"
#include "workload/generator.h"
#include "workload/structured.h"

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
  // Bounds at every exact value prune some lanes and keep others, for every
  // task of three strings: every surviving value must be exact, every
  // pruned value +infinity exactly where the scalar prunes.
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
  // The pruned metric counts the trials returned as +infinity: pin it
  // against an explicit count of the returned results.
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

  // Full survival, partly pruned, all pruned.
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

  // A checkpoint whose prefix is already past the bound prunes every lane,
  // as the scalar entry check does.
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
// strip width, bounds that prune a ragged subset of the lanes, an all-pruned
// batch, and whole-scan batches with slides. Where `auto` resolves to scalar
// (no AVX2), the comparison is vacuous, so the tests skip.

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

  // Bounds at every exact value prune a subset of the lanes whose size is
  // ragged with respect to the strip width.
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

  // Bound 0 with a zero-length checkpoint passes the scalar entry check
  // (0 > 0 is false) and prunes every lane at its first segment.
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

// --- Slide lanes: one task's whole allocation scan in one sweep -------------

/// One trial of a whole-scan batch: t at position `pos` on machine `m`
/// (`pos` equal to t's base position makes it a reassign).
struct ScanLane {
  std::size_t pos;
  MachineId m;
};

/// The explicit trial string of `lane`.
SolutionString trial_string(const SolutionString& base, TaskId t,
                            const ScanLane& lane) {
  SolutionString s = base;
  s.move_task(t, lane.pos);
  s.set_machine(t, lane.m);
  return s;
}

/// Adds t's trials on every machine at its base position `lo` (reassigns)
/// and, in ascending position order, on the machines `on(pos)` picks at
/// every later position up to `hi` (slides). Returns them in add order.
template <class Pick>
std::vector<ScanLane> add_scan(Evaluator::TrialBatch& batch, TaskId t,
                               std::size_t lo, std::size_t hi, std::size_t l,
                               Pick&& on) {
  std::vector<ScanLane> lanes;
  for (MachineId m = 0; m < l; ++m) {
    batch.add_reassign(t, m);
    lanes.push_back({lo, m});
  }
  for (std::size_t pos = lo + 1; pos <= hi; ++pos) {
    for (MachineId m = 0; m < l; ++m) {
      if (!on(pos, m)) continue;
      batch.add_slide(t, pos, m);
      lanes.push_back({pos, m});
    }
  }
  return lanes;
}

/// Small and degenerate shapes: generated classes, k = 1-3, l = 1, a chain
/// (every valid range has size 1), an edgeless graph (every range spans the
/// string) and a fork-join (successors that read the scanned task).
std::vector<Workload> slide_shapes() {
  std::vector<Workload> out;
  for (const Level conn : {Level::kLow, Level::kMedium, Level::kHigh}) {
    WorkloadParams p;
    p.tasks = 18;
    p.machines = 4;
    p.connectivity = conn;
    p.ccr = 1.0;
    p.seed = 300 + static_cast<std::uint64_t>(conn);
    out.push_back(make_workload(p));
  }
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t l = 1; l <= 3; ++l) {
      TaskGraph g(k);
      if (k >= 2) g.add_edge(0, 1);
      out.push_back(make_workload_for_graph(std::move(g), l, Level::kHigh, 1.0,
                                            1000.0, 10 * k + l));
    }
  }
  out.push_back(make_workload_for_graph(chain_dag(6), 3, Level::kMedium, 1.0,
                                        1000.0, 41));
  out.push_back(make_workload_for_graph(TaskGraph(7), 3, Level::kHigh, 0.5,
                                        1000.0, 42));
  out.push_back(make_workload_for_graph(fork_join_dag(3, 2), 3, Level::kMedium,
                                        5.0, 1000.0, 43));
  return out;
}

TEST(TrialBatchSlide, EveryLaneMatchesMakespanOfItsTrialString) {
  // Every task of every shape, on checkpoints at the bottom of its range and
  // below it (so that the sweep itself simulates some of t's producers),
  // with every machine at every position of its range: each lane must equal
  // a full evaluation of its trial string, and the batch counts one trial
  // per lane.
  std::size_t range_of_one = 0, lo_zero = 0, hi_last = 0, no_preds = 0,
              no_succs = 0, read_by_succ = 0, one_machine = 0, low_cp = 0;
  for (const Workload& w : slide_shapes()) {
    const TaskGraph& g = w.graph();
    const std::size_t k = w.num_tasks();
    const std::size_t l = w.num_machines();
    Evaluator eval(w);
    Evaluator ref(w);
    Evaluator::TrialBatch batch(eval);
    Rng rng(k * 7 + l);
    for (int draw = 0; draw < 3; ++draw) {
      const SolutionString s = random_solution(w, rng);
      for (TaskId t = 0; t < k; ++t) {
        const ValidRange range = s.valid_range(g, t);
        const std::size_t prefix =
            draw == 0 ? range.lo : rng.below(range.lo + 1);
        eval.begin_trials(s, prefix);
        SolutionString base = s;
        base.move_task(t, range.lo);
        batch.begin_checkpoint(base);
        const std::vector<ScanLane> lanes =
            add_scan(batch, t, range.lo, range.hi, l,
                     [](std::size_t, MachineId) { return true; });
        const std::size_t before = eval.trial_count();
        const std::vector<double> got = batch.evaluate(kInf);
        ASSERT_EQ(got.size(), lanes.size());
        EXPECT_EQ(eval.trial_count() - before, lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
          EXPECT_EQ(got[i], ref.makespan(trial_string(base, t, lanes[i])))
              << "k=" << k << " l=" << l << " task " << t << " pos "
              << lanes[i].pos << " machine " << lanes[i].m << " prefix "
              << prefix;
        }
        range_of_one += range.size() == 1;
        lo_zero += range.lo == 0;
        hi_last += range.hi == k - 1;
        no_preds += g.preds(t).empty();
        no_succs += g.succs(t).empty();
        read_by_succ += !g.succs(t).empty() && range.size() > 1;
        one_machine += l == 1;
        low_cp += prefix < range.lo;
      }
    }
  }
  // Each shape the suite claims to cover occurred.
  EXPECT_GT(range_of_one, 0u);
  EXPECT_GT(lo_zero, 0u);
  EXPECT_GT(hi_last, 0u);
  EXPECT_GT(no_preds, 0u);
  EXPECT_GT(no_succs, 0u);
  EXPECT_GT(read_by_succ, 0u);
  EXPECT_GT(one_machine, 0u);
  EXPECT_GT(low_cp, 0u);
}

/// A task with no edge, so its valid range spans the whole string, in a
/// long chain on two machines: one reassign and a slide at every position
/// need far more lanes than one sweep holds.
Workload long_range_workload() {
  constexpr std::size_t k = 1200;
  TaskGraph g(k);
  for (TaskId t = 2; t < k; ++t) g.add_edge(t - 1, t);
  return make_workload_for_graph(std::move(g), 2, Level::kHigh, 1.0, 1000.0,
                                 77);
}

TEST(TrialBatchSlide, ChunkedSweepsMatchMakespanOfTrialStrings) {
  const Workload w = long_range_workload();
  Evaluator eval(w);
  Evaluator ref(w);
  Evaluator::TrialBatch batch(eval);
  Rng rng(5);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = 0;  // the task with no edge
  const ValidRange range = s.valid_range(w.graph(), t);
  ASSERT_EQ(range.lo, 0u);
  ASSERT_EQ(range.hi, w.num_tasks() - 1);

  eval.begin_trials(s, range.lo);
  SolutionString base = s;
  base.move_task(t, range.lo);
  batch.begin_checkpoint(base);
  batch.add_reassign(t, 1);
  std::vector<ScanLane> lanes{{range.lo, 1}};
  for (std::size_t pos = range.lo + 1; pos <= range.hi; ++pos) {
    const MachineId m = static_cast<MachineId>(pos % 3 == 0);
    batch.add_slide(t, pos, m);
    lanes.push_back({pos, m});
  }
  // The lane store stays bounded: this batch runs as several sweeps.
  ASSERT_GT(batch.size(), 2 * batch.lane_capacity());
  const std::vector<double> got = batch.evaluate(kInf);
  ASSERT_EQ(got.size(), lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ASSERT_EQ(got[i], ref.makespan(trial_string(base, t, lanes[i])))
        << "lane " << i << " pos " << lanes[i].pos;
  }
}

TEST(TrialBatchSlide, ReassignLanesBeyondOneSweepMatchMakespan) {
  // More machines than one sweep holds lanes: the reassigns alone run as
  // several sweeps, and so does the rest of the scan. t reads a producer
  // and feeds a successor, so each lane's transfer rows matter.
  TaskGraph g(150);
  g.add_edge(1, 0);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  const Workload w =
      make_workload_for_graph(std::move(g), 300, Level::kHigh, 1.0, 1000.0, 9);
  const std::size_t l = w.num_machines();
  Evaluator eval(w);
  Evaluator ref(w);
  Evaluator::TrialBatch batch(eval);
  Rng rng(13);
  const SolutionString s = random_solution(w, rng);
  const TaskId t = 0;
  const ValidRange range = s.valid_range(w.graph(), t);
  ASSERT_GT(range.size(), 1u);

  eval.begin_trials(s, range.lo);
  SolutionString base = s;
  base.move_task(t, range.lo);
  batch.begin_checkpoint(base);
  const std::vector<ScanLane> lanes =
      add_scan(batch, t, range.lo, range.hi, l,
               [](std::size_t pos, MachineId m) { return (pos + m) % 97 == 0; });
  ASSERT_GT(l, batch.lane_capacity());
  const std::size_t before = eval.trial_count();
  const std::vector<double> got = batch.evaluate(kInf);
  ASSERT_EQ(got.size(), lanes.size());
  EXPECT_EQ(eval.trial_count() - before, lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ASSERT_EQ(got[i], ref.makespan(trial_string(base, t, lanes[i])))
        << "lane " << i << " pos " << lanes[i].pos << " machine "
        << lanes[i].m;
  }
}

TEST(TrialBatchSlide, BoundsBelowAtAndAboveTheResultsPruneLikeScalar) {
  // One whole-scan batch per bound: every result must be what
  // trial_makespan() returns for its trial string under that bound, and
  // the pruned metric must grow by the lanes above the bound.
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 4;
  p.seed = 321;
  const Workload w = make_workload(p);
  Rng rng(21);
  const SolutionString s = random_solution(w, rng);
  TaskId t = 0;  // the task with the widest valid range
  for (TaskId u = 1; u < w.num_tasks(); ++u) {
    if (s.valid_range(w.graph(), u).size() >
        s.valid_range(w.graph(), t).size()) {
      t = u;
    }
  }
  const ValidRange range = s.valid_range(w.graph(), t);
  ASSERT_GT(range.size(), 2u);
  SolutionString base = s;
  base.move_task(t, range.lo);

  Evaluator eval(w);
  Evaluator scalar(w);
  Evaluator::TrialBatch batch(eval);
  eval.begin_trials(s, range.lo);
  scalar.begin_trials(s, range.lo);
  const auto every_other = [](std::size_t pos, MachineId m) {
    return (pos + m) % 2 == 0;
  };
  batch.begin_checkpoint(base);
  const std::vector<ScanLane> lanes =
      add_scan(batch, t, range.lo, range.hi, w.num_machines(), every_other);
  const std::vector<double> exact = batch.evaluate(kInf);
  ASSERT_EQ(batch.metrics().pruned, 0u);

  std::vector<double> bounds{0.0, kInf};
  for (const double v : exact) {
    bounds.push_back(v);
    bounds.push_back(std::nextafter(v, 0.0));
    bounds.push_back(std::nextafter(v, kInf));
  }
  std::uint64_t pruned = 0;
  for (const double bound : bounds) {
    batch.begin_checkpoint(base);
    add_scan(batch, t, range.lo, range.hi, w.num_machines(), every_other);
    const std::vector<double> got = batch.evaluate(bound);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const double want =
          scalar.trial_makespan(trial_string(base, t, lanes[i]), bound);
      EXPECT_EQ(got[i], want) << "bound " << bound << " lane " << i;
      EXPECT_EQ(got[i], exact[i] <= bound ? exact[i] : kInf);
      pruned += exact[i] > bound;
    }
    EXPECT_EQ(batch.metrics().pruned, pruned) << "bound " << bound;
  }
  EXPECT_GT(pruned, 0u);
}

TEST(TrialBatchSlide, RejectsSlidesOutsideTheValidRangeAndOutOfOrder) {
  // Task 1 of the chain 0 -> 1 -> 2 -> 3 has the valid range {1}: a slide
  // to 2 would move it past its successor.
  const Workload w =
      make_workload_for_graph(chain_dag(4), 2, Level::kMedium, 1.0, 1000.0, 9);
  const SolutionString s(std::vector<TaskId>{0, 1, 2, 3},
                         std::vector<MachineId>{0, 1, 0, 1});
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  eval.begin_trials(s, 1);
  batch.begin_checkpoint(s);
  batch.add_reassign(1, 0);
  batch.add_slide(1, 2, 0);
  const std::size_t before = eval.trial_count();
  EXPECT_THROW(batch.evaluate(kInf), Error);
  EXPECT_EQ(eval.trial_count(), before);  // nothing counted

  // A slide must move the task up.
  batch.clear();
  batch.add_slide(1, 1, 0);
  EXPECT_THROW(batch.evaluate(kInf), Error);

  // Order and task checks at add time leave the pending trials as they
  // were.
  const Workload free = make_workload_for_graph(TaskGraph(4), 2, Level::kMedium,
                                                1.0, 1000.0, 10);
  Evaluator free_eval(free);
  Evaluator::TrialBatch free_batch(free_eval);
  free_eval.begin_trials(s, 0);
  free_batch.begin_checkpoint(s);
  free_batch.add_reassign(0, 1);
  free_batch.add_slide(0, 2, 1);
  EXPECT_THROW(free_batch.add_slide(0, 1, 0), Error);   // descending
  EXPECT_THROW(free_batch.add_reassign(0, 0), Error);   // after a slide
  EXPECT_THROW(free_batch.add_slide(3, 3, 0), Error);   // another task
  EXPECT_EQ(free_batch.size(), 2u);
  free_batch.add_slide(0, 2, 0);  // equal positions are fine
  free_batch.add_slide(0, 3, 0);
  const std::vector<double> got = free_batch.evaluate(kInf);
  ASSERT_EQ(got.size(), 4u);
  Evaluator ref(free);
  EXPECT_EQ(got[3], ref.makespan(trial_string(s, 0, {3, 0})));
}

TEST(TrialBatchSimd, SlideLanesByteIdenticalAcrossKernels) {
  if (!simd_available()) GTEST_SKIP() << "auto resolves to scalar here";

  // Whole-scan batches under both kernels, for every task of two strings:
  // the lane counts cross the strip width in both directions.
  for (const std::uint64_t seed : {211u, 212u}) {
    const Workload w = small_workload(seed);
    Rng rng(seed);
    const SolutionString s = random_solution(w, rng);
    for (TaskId t = 0; t < w.num_tasks(); ++t) {
      const ValidRange range = s.valid_range(w.graph(), t);
      SolutionString base = s;
      base.move_task(t, range.lo);
      std::vector<double> results[2];
      for (const KernelChoice kernel :
           {KernelChoice::kScalar, KernelChoice::kAuto}) {
        Evaluator eval(w);
        Evaluator::TrialBatch batch(eval);
        batch.set_kernel(kernel);
        eval.begin_trials(s, range.lo);
        batch.begin_checkpoint(base);
        add_scan(batch, t, range.lo, range.hi, w.num_machines(),
                 [t](std::size_t pos, MachineId m) {
                   return (pos + m + t) % 3 != 0;
                 });
        results[kernel == KernelChoice::kAuto] = batch.evaluate(kInf);
      }
      ASSERT_EQ(results[0].size(), results[1].size());
      EXPECT_EQ(0, std::memcmp(results[0].data(), results[1].data(),
                               results[0].size() * sizeof(double)))
          << "seed " << seed << " task " << t;
    }
  }
}


// --- The fused strip op ------------------------------------------------------
//
// The sweep runs one strip op per segment: the ready time over the
// segment's predecessors and the start/finish/makespan update in one pass.
// Its AVX2 backend takes eight lanes per iteration as two 4-lane
// accumulators, then one 4-lane step, then a scalar tail, and the edited
// task's transfer differs from lane to lane. These tests check every lane
// against a full evaluation of its trial string under both kernels, at
// every lane count up to two bodies plus the step and the tail.

/// The task every fused-strip trial edits.
constexpr TaskId kStripEdit = 4;

/// Feeders 0-3 (no predecessor); task 4, the edited one; tasks 5-8 read
/// task 4 and 0-3 feeders; tasks 9-12 read 1-4 feeders and not task 4.
/// With the checkpoint at 0 every predecessor is one the sweep simulates,
/// so the segments have 0-4 of them, with and without the edited task.
/// Transfers dominate (CCR 10), so each lane's transfer from task 4 decides
/// its makespan.
Workload strip_shapes_workload() {
  TaskGraph g(13);
  for (TaskId c = 0; c < 4; ++c) {
    g.add_edge(kStripEdit, 5 + c);
    for (TaskId f = 0; f < c; ++f) g.add_edge(f, 5 + c);
    for (TaskId f = 0; f <= c; ++f) g.add_edge(f, 9 + c);
  }
  return make_workload_for_graph(std::move(g), 5, Level::kHigh, 10.0, 1000.0,
                                 66);
}

/// The tasks in id order, task t on machine t mod l.
SolutionString strip_shapes_string(const Workload& w) {
  std::vector<TaskId> order(w.num_tasks());
  std::vector<MachineId> machines(w.num_tasks());
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    order[t] = t;
    machines[t] = static_cast<MachineId>(t % w.num_machines());
  }
  return SolutionString(std::move(order), std::move(machines));
}

/// Evaluates `n` reassigns of task 4 (lane i on machine i mod l) on a
/// checkpoint at `prefix` under `kernel`, and checks each lane against
/// Evaluator::makespan() of its trial string.
void expect_strip_lanes_match(const Workload& w, const SolutionString& s,
                              std::size_t prefix, std::size_t n,
                              KernelChoice kernel) {
  Evaluator eval(w);
  Evaluator ref(w);
  Evaluator::TrialBatch batch(eval);
  batch.set_kernel(kernel);
  eval.begin_trials(s, prefix);
  batch.begin_checkpoint(s);
  const std::size_t l = w.num_machines();
  for (std::size_t i = 0; i < n; ++i) {
    batch.add_reassign(kStripEdit, static_cast<MachineId>(i % l));
  }
  std::vector<double> want(l);
  for (MachineId m = 0; m < l; ++m) {
    SolutionString probe = s;
    probe.set_machine(kStripEdit, m);
    want[m] = ref.makespan(probe);
  }
  const std::vector<double> got = batch.evaluate(kInf);
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], want[i % l])
        << kernel_name(resolve_kernel(kernel)) << " kernel, " << n
        << " lanes, lane " << i << ", checkpoint " << prefix;
  }
}

TEST(TrialBatchStrip, EveryLaneCountMatchesMakespanUnderBothKernels) {
  const Workload w = strip_shapes_workload();
  const SolutionString s = strip_shapes_string(w);
  // The makespans differ by machine, so a lane that drops task 4's
  // transfer or skips its step cannot match by accident.
  std::vector<double> distinct;
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    SolutionString probe = s;
    probe.set_machine(kStripEdit, m);
    distinct.push_back(Evaluator(w).makespan(probe));
  }
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());

  // Checkpoint 0: every predecessor is simulated by the sweep. Checkpoint
  // 4: the feeders lie in the prefix, so only task 4 is.
  for (const std::size_t prefix : {std::size_t{0}, std::size_t{kStripEdit}}) {
    for (std::size_t n = 1; n <= 17; ++n) {
      for (const KernelChoice kernel :
           {KernelChoice::kScalar, KernelChoice::kAuto}) {
        expect_strip_lanes_match(w, s, prefix, n, kernel);
      }
    }
  }
}

TEST(TrialBatchStrip, ChunkedBatchMatchesMakespanUnderBothKernels) {
  // More lanes than two sweeps hold: every chunk runs the strip op, and the
  // last one ends in a 4-lane step and a scalar tail.
  const Workload w = strip_shapes_workload();
  const SolutionString s = strip_shapes_string(w);
  Evaluator eval(w);
  const std::size_t capacity = Evaluator::TrialBatch(eval).lane_capacity();
  for (const KernelChoice kernel :
       {KernelChoice::kScalar, KernelChoice::kAuto}) {
    expect_strip_lanes_match(w, s, 0, 2 * capacity + 13, kernel);
  }
}

}  // namespace
}  // namespace sehc
