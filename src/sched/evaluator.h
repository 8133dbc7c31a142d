// Schedule-length evaluation (the cost function both SE and GA minimize).
//
// Semantics (paper §2 model): tasks run in string order; machine m executes
// its tasks in the order they appear in the string; a task starts at
//
//   start(t) = max( machine_available(m(t)),
//                   max over preds p of finish(p) + Tr(m(p), m(t), item) )
//
// with Tr == 0 when producer and consumer share a machine. This is
// non-insertion list scheduling: the string fully determines the schedule.
//
// The recurrence is written once, in the private Evaluator::simulate() step.
// Every evaluation mode below is that step run over a range of positions;
// the modes differ only in where a predecessor's finish time and machine are
// read from, where results and snapshots are written, and the pruning bound:
//
//   * evaluate()/makespan(): the whole string from idle machines.
//   * Rolling checkpoint: all trial strings share a fixed prefix;
//     begin_trials() simulates it once, extend_checkpoint() grows it one
//     segment at a time as the trial position advances, and each
//     trial_makespan() simulates only the suffix behind the checkpoint. It
//     is the scalar reference for the batch below and for perf_hotpath's
//     incremental mode; SE's allocation scan runs the batch.
//   * Prepared state (tabu, annealing): prepare() simulates a string once
//     and snapshots the machine-availability vector before every position,
//     so a trial that changes the string from position p onward costs
//     O(k - p) instead of O(k). refresh_from() rolls the snapshots forward
//     after an accepted move.
//   * Evaluator::TrialBatch (declared below): SE's whole allocation scan
//     of one task (every machine candidate at the bottom of its range, and
//     every slide above it that a position change can affect) in one
//     structure-of-arrays sweep on top of begin_trials()'s checkpoint,
//     bit-identical to one trial_makespan() per trial string. Every other
//     searcher calls the scalar modes above.
//
// Every mode is exact (bit-identical to a full evaluation), pruning
// included: a trial aborts as soon as its running makespan strictly exceeds
// `bound` and returns +infinity. The running makespan is monotone in the
// position, so any value returned <= bound is exact and ties at the bound
// survive — tie-break sampling distributions are preserved byte for byte.
//
// The step runs on a CSR layout: the DAG's (predecessor, data item)
// adjacency is flattened into contiguous arrays at construction, and
// transfer-time rows are resolved through a precomputed machine-pair pointer
// table (the diagonal points at a zero row, so machine-local communication
// needs no branch), built only for a workload with data items. Scratch
// buffers are sized once per workload, so the hot loops (called millions of
// times per search run) perform no allocation, and an evaluator's memory
// stays linear in the workload document's size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "hc/workload.h"
#include "obs/metrics.h"
#include "sched/encoding.h"
#include "sched/simd.h"

namespace sehc {

/// Computed start/finish times for one solution.
struct ScheduleTimes {
  std::vector<double> start;   // indexed by task
  std::vector<double> finish;  // indexed by task
  double makespan = 0.0;
};

/// Reusable evaluator bound to one workload.
class Evaluator {
 public:
  explicit Evaluator(const Workload& w);

  // Move-only: pair_row_'s diagonal entries point into this object's own
  // zero_row_ buffer, which a move carries along (the heap buffer keeps its
  // address) and a copy would not.
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;
  Evaluator(Evaluator&&) = default;
  Evaluator& operator=(Evaluator&&) = default;

  /// Full evaluation; returns per-task times. O(k + e).
  ScheduleTimes evaluate(const SolutionString& s) const;

  /// As evaluate(), but reuses the caller's result buffers (no allocation
  /// after the first call with same-sized vectors).
  void evaluate_into(const SolutionString& s, ScheduleTimes& out) const;

  /// Makespan only; same cost but avoids constructing the result arrays.
  double makespan(const SolutionString& s) const;

  // --- Rolling-checkpoint trial mode --------------------------------------
  //
  // All trial strings for one task share an unchanged prefix [0, prefix):
  // begin_trials() evaluates that prefix once and snapshots the machine
  // state; trial_makespan() then costs only O(k - prefix + suffix edges)
  // per candidate string.
  //
  // Contract: every subsequent trial string must (a) contain exactly the
  // same segments in [0, prefix) as the string passed to begin_trials and
  // (b) permute only tasks at positions >= prefix. Calling evaluate() /
  // makespan() invalidates the checkpoint.
  void begin_trials(const SolutionString& s, std::size_t prefix) const;

  /// Advances the checkpoint by one segment: position `prefix` of `s` (which
  /// must from now on be identical in every trial string) becomes part of
  /// the fixed prefix. O(deg + 1). A scan that moves a task up one position
  /// at a time thus simulates the segment that slides below it once instead
  /// of once per trial.
  void extend_checkpoint(const SolutionString& s) const;

  /// Checkpoint position (prefix length) of the rolling trial mode.
  std::size_t checkpoint_prefix() const { return cp_prefix_; }

  /// Simulates [prefix, k) on top of the checkpoint; aborts once the running
  /// makespan strictly exceeds `bound`, returning +infinity. Any return
  /// value <= bound is exact; any value > bound is guaranteed to truly
  /// exceed it.
  double trial_makespan(const SolutionString& s, double bound) const;

  // --- Prepared-state trial mode (tabu / annealing) -----------------------
  //
  // prepare(s) simulates `s` once, recording per-position machine-state
  // snapshots. prepared_trial(s', from, bound) then evaluates a trial string
  // s' that differs from s only at positions >= from, in O(k - from), with
  // the same pruning contract as trial_makespan(). refresh_from(s, from)
  // re-records the snapshots after `s` itself changed at positions >= from
  // (an accepted move). The prepared state survives any number of
  // prepared_trial() calls; evaluate()/makespan()/the rolling trial mode do
  // not disturb it.
  void prepare(const SolutionString& s) const;
  void refresh_from(const SolutionString& s, std::size_t from) const;
  double prepared_trial(const SolutionString& s, std::size_t from,
                        double bound) const;

  // --- Trial accounting ---------------------------------------------------
  //
  // Every schedule simulation — evaluate()/evaluate_into()/makespan(),
  // trial_makespan() and prepared_trial() — counts as one trial, and so does
  // every candidate whose result a caller already knows and reuses instead
  // of simulating (count_known_trials()). Prefix bookkeeping
  // (begin_trials/extend_checkpoint/prepare/refresh_from) does not: it is
  // amortized setup, not an evaluation of a candidate. The counter is the
  // `evals` currency of the stepwise search engines (see search/engine.h)
  // and of the campaign layer's equal-evals budgets.

  /// Trials performed since construction or the last reset_trial_count().
  std::size_t trial_count() const { return trial_count_; }
  /// Counts `n` trials whose results the caller knows without simulating
  /// them (SE's allocation scan reuses the candidates a slide leaves
  /// unchanged).
  void count_known_trials(std::size_t n) const { trial_count_ += n; }
  void reset_trial_count() const { trial_count_ = 0; }

  /// Releases every piece of per-run trial state — the rolling checkpoint,
  /// the prepared snapshots and the trial counter — keeping the allocated
  /// buffer capacity. Engines call this from init(), so a re-initialized
  /// engine counts its trials from zero and cannot observe a checkpoint or
  /// prepared snapshot of an earlier run.
  void reset_trial_state() const;

  const Workload& workload() const { return *workload_; }

 private:
  /// Snapshots of one fully simulated string, keyed by position: everything
  /// a suffix trial needs to start simulating at any position.
  struct PreparedState {
    /// Machine availability before position p: row p of a (k+1) x l matrix.
    std::vector<double> avail_rows;
    /// Running makespan of [0, p), indexed by position p (k+1 entries).
    std::vector<double> prefix_makespan;
    /// Finish time of every task of the prepared string (k entries).
    std::vector<double> finish;

    /// True once prepare() has filled the snapshots.
    bool ready() const { return !avail_rows.empty(); }
  };

  /// A scheduled predecessor, as the step reads it.
  struct Producer {
    double finish;
    MachineId machine;
  };

  /// The list-scheduling step: the only copy of the recurrence. Schedules
  /// the segments at positions [from, to) in string order,
  ///
  ///   ready  = max over t's CSR predecessors p of
  ///            finish(p) + Tr(machine(p), m, item)
  ///   start  = max(ready, avail(m)),  finish = start + exec(m, t),
  ///
  /// and returns the running makespan seeded with `makespan`, or +infinity
  /// as soon as it strictly exceeds `bound` (callers that never prune pass
  /// +infinity; callers that do check the seed against the bound first, so
  /// `makespan` <= `bound` on entry). Callers differ only in their
  /// callables: `segment(i)` is the segment at position i, `producer(p)`
  /// predecessor p's finish time and machine, `avail(m)` a reference to
  /// machine m's availability, and `store(t, start, finish)` records the
  /// scheduled task once `avail(m)` holds its finish time.
  template <class SegmentAt, class ProducerOf, class Avail, class Store>
  double simulate(std::size_t from, std::size_t to, double makespan,
                  double bound, SegmentAt&& segment, ProducerOf&& producer,
                  Avail&& avail, Store&& store) const {
    for (std::size_t i = from; i < to; ++i) {
      const Segment seg = segment(i);
      const TaskId t = seg.task;
      const MachineId m = seg.machine;
      double ready = 0.0;
      const std::uint32_t hi = pred_off_[t + 1];
      for (std::uint32_t e = pred_off_[t]; e < hi; ++e) {
        const Producer p = producer(pred_src_[e]);
        ready = std::max(ready,
                         p.finish + transfer_row(p.machine, m)[pred_item_[e]]);
      }
      double& free_at = avail(m);
      const double start = std::max(ready, free_at);
      const double finish = start + exec_[m * num_tasks_ + t];
      free_at = finish;
      store(t, start, finish);
      // Branch-free running max (bit-identical to assign-if-greater on these
      // non-negative finite doubles). With `makespan` <= `bound` on entry,
      // testing after every segment prunes exactly where testing after each
      // rise would.
      makespan = std::max(makespan, finish);
      if (makespan > bound) return std::numeric_limits<double>::infinity();
    }
    return makespan;
  }

  /// The step over positions [from, to) of a plain string whose every
  /// predecessor finish time lives in `finish` (which also receives the
  /// new ones), on the availability vector `avail`. Defined in the class so
  /// it inlines into extend_checkpoint(), which runs it once per segment of
  /// the SE allocation scan.
  double run_string(const SolutionString& s, std::size_t from, std::size_t to,
                    double makespan, double bound, double* finish,
                    double* avail) const {
    const Segment* const segs = s.segments().data();
    const std::size_t* const pos = s.positions().data();
    return simulate(
        from, to, makespan, bound, [segs](std::size_t i) { return segs[i]; },
        [&](TaskId p) { return Producer{finish[p], segs[pos[p]].machine}; },
        [avail](MachineId m) -> double& { return avail[m]; },
        [finish](TaskId t, double, double fin) { finish[t] = fin; });
  }

  /// Per-pair transfer row (diagonal -> zero row), avoiding pair_index().
  const double* transfer_row(MachineId a, MachineId b) const {
    return pair_row_[a * num_machines_ + b];
  }

  const Workload* workload_;  // non-owning; workload outlives evaluator
  std::size_t num_tasks_ = 0;
  std::size_t num_machines_ = 0;

  // CSR adjacency: incoming edges of task t are pred_src_/pred_item_
  // [pred_off_[t], pred_off_[t+1]), in the graph's in_edges() order (the
  // order the naive loops reduce in, so max-chains are bit-identical).
  std::vector<std::uint32_t> pred_off_;
  std::vector<TaskId> pred_src_;
  std::vector<DataId> pred_item_;
  // Flat matrix views + machine-pair row table.
  const double* exec_ = nullptr;  // l x k row-major
  // l*l entries into Tr (or the zero row); empty without data items.
  std::vector<const double*> pair_row_;
  std::vector<double> zero_row_;

  // Scratch reused across calls (single-threaded use, like the algorithms).
  mutable std::vector<double> finish_;
  mutable std::vector<double> machine_avail_;
  // Rolling-checkpoint state.
  mutable std::vector<double> cp_avail_;
  mutable double cp_makespan_ = 0.0;
  mutable std::size_t cp_prefix_ = 0;
  // Prepared-state snapshots.
  mutable PreparedState prepared_;
  // Trial counter (see trial_count()).
  mutable std::size_t trial_count_ = 0;

 public:
  class TrialBatch;
};

/// SE's allocation scan of one task t as one structure-of-arrays sweep.
/// Every pending trial edits t in the base string:
///
///   * a reassign is "base with t on machine m", t staying at its base
///     position e;
///   * a slide is "base with t moved up to position p > e, on machine m"
///     (the segments at (e, p] move down by one).
///
/// Each trial string is therefore the base without t with t inserted at its
/// own point, and the sweep walks that string once, from the evaluator's
/// rolling checkpoint to the end. Until the sweep reaches its insertion
/// point, a lane simulates the string without t, so it carries the
/// checkpoint rolled forward to where the sweep is; there it runs t's step
/// on its own machine and goes on with its own trial. Per-machine
/// availability rows and per-task finish rows hold one contiguous lane per
/// trial, so every segment but t runs for all lanes at once as SIMD strips.
///
/// Exactness contract: evaluate() is bit-identical to one trial_makespan()
/// per trial string with the same bound: identical makespans where the
/// scalar returns an exact value, +infinity exactly where it prunes, and
/// exactly size() increments of the evaluator's trial counter. Every lane
/// replays its own trial's floating-point operations (the edited segment
/// runs the evaluator's own simulate() step). The sweep itself has no
/// bound: the running makespan is monotone, so a final makespan above the
/// bound is exactly a trial the scalar path prunes, and evaluate() turns it
/// into +infinity afterwards.
///
/// The checkpoint state is read at evaluate() time, so one batch may span
/// extend_checkpoint() calls between evaluate() rounds.
class Evaluator::TrialBatch {
 public:
  explicit TrialBatch(const Evaluator& eval);

  /// Trials become edits of `base`, evaluated on top of the evaluator's
  /// rolling checkpoint (begin_trials()/extend_checkpoint() manage the
  /// checkpoint as in the scalar path); the edited task's base position
  /// must not lie below it. `base` is captured by reference and read at
  /// evaluate() time. Clears pending trials.
  void begin_checkpoint(const SolutionString& base);

  /// Adds the trial "base with task t on machine m". Every pending trial
  /// edits the same task, and reassigns precede slides: adding another task
  /// or a reassign after a slide throws sehc::Error.
  void add_reassign(TaskId t, MachineId m);

  /// Adds the trial "base with task t moved up to position `pos`, on machine
  /// m". Slides come in non-decreasing position order (throws sehc::Error
  /// otherwise, or for another task). evaluate() rejects a slide that is
  /// not above t's base position or that moves t past one of its
  /// successors.
  void add_slide(TaskId t, std::size_t pos, MachineId m);

  std::size_t size() const { return lane_machine_.size(); }
  bool empty() const { return lane_machine_.empty(); }
  /// Drops pending trials; keeps the base.
  void clear() {
    lane_machine_.clear();
    slide_pos_.clear();
  }

  /// Evaluates every pending trial against `bound` (strict, as the scalar
  /// path: any value returned <= bound is exact, any trial whose makespan
  /// strictly exceeds `bound` yields +infinity). Returns one makespan per
  /// trial in add order, counts size() trials, and clears the pending list.
  /// The returned reference is invalidated by the next evaluate() call.
  const std::vector<double>& evaluate(double bound);

  /// Trial lanes one sweep holds: as many as fit in a 1 MiB lane store, and
  /// at least one. A batch with more trials, reassigns included, runs as
  /// several sweeps of at most this many lanes, so the store never grows
  /// past 1 MiB or one lane.
  std::size_t lane_capacity() const;

  /// Always-on batch instrumentation, updated ONCE per evaluate() call
  /// (plain member arithmetic — never a registry or map lookup, so the
  /// --check-overhead perf gate stays green with metrics compiled in).
  /// Pruned counts the trials evaluate() returned as +infinity, exactly the
  /// trials the scalar reference would also have pruned.
  struct BatchMetrics {
    std::uint64_t batches = 0;      ///< evaluate() calls with >= 1 trial
    std::uint64_t trials = 0;       ///< trials evaluated across batches
    std::uint64_t pruned = 0;       ///< trials above their batch's bound
    std::uint64_t max_batch = 0;    ///< largest single batch
    LogHistogram batch_sizes;          ///< distribution of batch sizes
  };
  const BatchMetrics& metrics() const { return metrics_; }

  /// Kernel selection for the sweep's strip loops. The batch resolves the
  /// SEHC_KERNEL environment override (default auto) at construction;
  /// set_kernel() re-resolves an explicit choice against the running CPU
  /// (auto picks AVX2 where the CPU has it, scalar forces the reference
  /// loops). Both backends are bit-identical — the knob exists for
  /// benchmarking, differential testing and incident bisection, never for
  /// correctness.
  void set_kernel(KernelChoice choice);

 private:
  /// Sweeps the pending trials [first, first + count) in one pass.
  void sweep(std::size_t first, std::size_t count);

  const Evaluator* eval_ = nullptr;
  const SolutionString* base_ = nullptr;
  TaskId task_ = kInvalidTask;  // the task every pending trial edits

  // SoA lanes, stride = trials in the sweep: avail_lanes_ row m = per-lane
  // availability of machine m; finish_lanes_ row t = per-lane finish of
  // task t; makespan_ and edit_transfer_ indexed by lane. The lane stores
  // are 64-byte aligned for the SIMD strip loops.
  AlignedVector<double> avail_lanes_;
  AlignedVector<double> finish_lanes_;
  AlignedVector<double> makespan_;
  // Per-lane transfer time from the edited task to the current segment.
  AlignedVector<double> edit_transfer_;
  // The current segment's in-sweep predecessors: finish rows and transfer
  // times, sized for the largest in-degree.
  std::vector<const double*> pred_finish_;
  std::vector<double> pred_transfer_;
  // Pending trials' machines in add order: the reassigns, then the slides,
  // whose target positions slide_pos_ holds.
  std::vector<MachineId> lane_machine_;
  std::vector<std::size_t> slide_pos_;
  std::vector<double> results_;
  BatchMetrics metrics_;

  // Strip-kernel dispatch (resolved once, never per strip) plus the lazily
  // recorded selected-kernel gauge.
  SimdKernel kernel_ = SimdKernel::kScalar;
  const BatchKernelOps* ops_ = nullptr;
  bool kernel_gauge_recorded_ = false;
};

/// One-shot convenience wrapper.
ScheduleTimes evaluate_schedule(const Workload& w, const SolutionString& s);

}  // namespace sehc
