// Evaluator::TrialBatch — SE's structure-of-arrays reassign sweep.
//
// The sweep is a loop interchange of the scalar reference path in
// evaluator.cpp (one trial_makespan() per machine candidate): positions
// sweep in the outer loop, live trials in the inner loop. Trials are
// mutually independent, so every trial's floating-point operation sequence
// is replayed unchanged and the results are bit-identical to N scalar
// calls — including the pruning contract (strictly-greater-than-bound =>
// +infinity) and the trial-counter increment per trial. The edited segment
// runs the evaluator's simulate() step per lane; the shared positions use
// the SIMD strip ops, whose ready-time max-reduction may be re-ordered
// between shared and per-lane predecessors: every operand is a non-negative
// finite double (no -0.0, no NaN), for which max is order-independent down
// to the bit pattern.
//
// tests/test_trial_batch.cpp pins batch-vs-scalar bit-identity and the edge
// cases (empty batch, all pruned, mixed prune/survive compaction,
// checkpoint-spanning batches, counter exactness, strip widths).
#include "sched/evaluator.h"

#include <algorithm>
#include <limits>
#include <string>

namespace sehc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Evaluator::TrialBatch::TrialBatch(const Evaluator& eval)
    : eval_(&eval),
      kernel_(resolve_kernel(kernel_choice_from_env())),
      ops_(&batch_kernel_ops(kernel_)) {}

void Evaluator::TrialBatch::set_kernel(KernelChoice choice) {
  kernel_ = resolve_kernel(choice);
  ops_ = &batch_kernel_ops(kernel_);
  kernel_gauge_recorded_ = false;
}

void Evaluator::TrialBatch::begin_checkpoint(const SolutionString& base) {
  base_ = &base;
  lane_machine_.clear();
}

void Evaluator::TrialBatch::add_reassign(TaskId t, MachineId m) {
  SEHC_CHECK(lane_machine_.empty() || t == task_,
             "TrialBatch: every trial of one batch must reassign the same "
             "task");
  task_ = t;
  lane_machine_.push_back(m);
}

const std::vector<double>& Evaluator::TrialBatch::evaluate(double bound) {
  SEHC_ASSERT_MSG(base_ != nullptr, "TrialBatch: begin_checkpoint() not called");
  SEHC_ASSERT_MSG(base_->size() == eval_->num_tasks_,
                  "TrialBatch: base string size mismatch");
  const std::size_t n = size();
  // Batch of N counts exactly N trials — the evals currency stays exact.
  eval_->trial_count_ += n;
  results_.assign(n, kInf);
  if (n > 0) {
    if (!kernel_gauge_recorded_) {
      // Once per batch lifetime (and per set_kernel): the selected kernel
      // as a high-water gauge in whatever registry drives this run, so
      // bench artifacts and the serve metrics op can state which backend
      // actually executed.
      kernel_gauge_recorded_ = true;
      if (MetricsRegistry* reg = ambient_metrics()) {
        reg->gauge_max(std::string("kernel/") + kernel_name(kernel_), 1);
      }
    }
    sweep(bound);
    // Once per batch, after the sweep: plain member arithmetic only (the
    // --check-overhead gate holds the proof). The pruned count is tracked
    // where lanes retire, so no rescan of results_ is needed.
    metrics_.batches += 1;
    metrics_.trials += n;
    if (n > metrics_.max_batch) metrics_.max_batch = n;
    metrics_.batch_sizes.record(n);
    metrics_.pruned += pruned_count_;
  }
  lane_machine_.clear();
  return results_;
}

void Evaluator::TrialBatch::compact_lane(std::size_t lane, std::size_t last,
                                         std::size_t from, std::size_t upto) {
  const std::size_t batch = size();
  const std::size_t l = eval_->num_machines_;
  double* const al = avail_lanes_.data();
  double* const fl = finish_lanes_.data();
  for (std::size_t m = 0; m < l; ++m) al[m * batch + lane] = al[m * batch + last];
  // Only tasks at already-swept positions have live finish entries.
  const Segment* const segs = base_->segments().data();
  for (std::size_t p = from; p <= upto; ++p) {
    const TaskId t = segs[p].task;
    fl[t * batch + lane] = fl[t * batch + last];
  }
  makespan_[lane] = makespan_[last];
  lane_machine_[lane] = lane_machine_[last];
  lane_trial_[lane] = lane_trial_[last];
}

// Every trial reassigns the SAME task of the base string (SE's allocation
// scan). All lanes share the base's segment sequence and positions; only the
// machine at the edit position differs, so the whole sweep runs with shared
// predecessor metadata and contiguous trial-minor inner loops. Pruned lanes
// are retired by moving the last live lane's SoA columns into the freed
// slot (dense lanes stay dense).
void Evaluator::TrialBatch::sweep(double bound) {
  const Evaluator& ev = *eval_;
  const std::size_t k = ev.num_tasks_;
  const std::size_t l = ev.num_machines_;
  const std::size_t batch = size();
  const Segment* const segs = base_->segments().data();
  const std::size_t* const pos = base_->positions().data();
  const std::size_t from = ev.cp_prefix_;
  const TaskId edit_task = task_;
  const std::size_t edit_pos = pos[edit_task];
  SEHC_ASSERT_MSG(edit_pos >= from,
                  "TrialBatch: reassign edits the checkpoint prefix");

  avail_lanes_.resize(l * batch);
  finish_lanes_.resize(k * batch);
  makespan_.assign(batch, ev.cp_makespan_);
  ready_lanes_.resize(batch);
  lane_trial_.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) lane_trial_[i] = i;
  for (std::size_t m = 0; m < l; ++m) {
    std::fill_n(avail_lanes_.begin() + m * batch, batch, ev.cp_avail_[m]);
  }
  // Scalar entry check: a checkpoint already past the bound prunes all lanes.
  pruned_count_ = batch;
  if (ev.cp_makespan_ > bound) return;

  const double* const shared_finish = ev.finish_.data();
  double* const al = avail_lanes_.data();
  double* const fl = finish_lanes_.data();
  double* const ready = ready_lanes_.data();
  double* const ms = makespan_.data();

  std::size_t live = batch;
  for (std::size_t i = from; i < k && live > 0; ++i) {
    const TaskId t = segs[i].task;
    if (i == edit_pos) {
      // The edited segment: machine differs per lane, so each lane runs the
      // step on its own availability and transfer rows. Happens once per
      // sweep; the bound is checked for all lanes below.
      for (std::size_t lane = 0; lane < live; ++lane) {
        const Segment edit{t, lane_machine_[lane]};
        double* const fl_lane = fl + lane;
        double* const al_lane = al + lane;
        ms[lane] = ev.simulate(
            i, i + 1, ms[lane], kInf, [edit](std::size_t) { return edit; },
            [=](TaskId p) {
              const std::size_t at = pos[p];
              return Producer{
                  at >= from ? fl_lane[p * batch] : shared_finish[p],
                  segs[at].machine};
            },
            [=](MachineId m) -> double& { return al_lane[m * batch]; },
            [=](TaskId task, double, double fin) {
              fl_lane[task * batch] = fin;
            });
      }
    } else {
      const std::uint32_t lo = ev.pred_off_[t];
      const std::uint32_t hi = ev.pred_off_[t + 1];
      const MachineId m = segs[i].machine;
      // Predecessors fully inside the shared prefix contribute one scalar
      // ready time for all lanes; predecessors simulated in the suffix (or
      // produced by the edited task, whose machine varies) contribute one
      // contiguous lane-minor pass each.
      double ready0 = 0.0;
      bool lane_preds = false;
      for (std::uint32_t e = lo; e < hi; ++e) {
        const TaskId src = ev.pred_src_[e];
        if (pos[src] >= from) {
          lane_preds = true;
          continue;
        }
        const MachineId pm = segs[pos[src]].machine;
        ready0 = std::max(
            ready0, shared_finish[src] + ev.transfer_row(pm, m)[ev.pred_item_[e]]);
      }
      std::fill_n(ready, live, ready0);
      if (lane_preds) {
        for (std::uint32_t e = lo; e < hi; ++e) {
          const TaskId src = ev.pred_src_[e];
          if (pos[src] < from) continue;
          const double* const fsrc = fl + src * batch;
          if (src == edit_task) {
            // Transfer row depends on the per-lane machine of the edit.
            const DataId item = ev.pred_item_[e];
            for (std::size_t lane = 0; lane < live; ++lane) {
              const double tr = ev.transfer_row(lane_machine_[lane], m)[item];
              ready[lane] = std::max(ready[lane], fsrc[lane] + tr);
            }
          } else {
            // One shared transfer offset over a contiguous finish row: the
            // vectorizable max-accumulate strip (elementwise over
            // independent lanes, so bit-identical at any width).
            const MachineId pm = segs[pos[src]].machine;
            const double tr = ev.transfer_row(pm, m)[ev.pred_item_[e]];
            ops_->ready_maxadd(ready, fsrc, tr, live);
          }
        }
      }
      const double exec = ev.exec_[m * k + t];
      double* const am = al + m * batch;
      double* const ft = fl + t * batch;
      // Start/finish/makespan update as one width-W strip sweep.
      ops_->schedule_update(ready, am, ft, ms, exec, live);
    }
    // Retire lanes past the bound (scalar prunes inside the segment loop;
    // checking once per position yields the same +infinity results because
    // the running makespan is monotone).
    for (std::size_t lane = 0; lane < live;) {
      if (ms[lane] > bound) {
        const std::size_t last = live - 1;
        if (lane != last) compact_lane(lane, last, from, i);
        --live;
      } else {
        ++lane;
      }
    }
  }
  for (std::size_t lane = 0; lane < live; ++lane) {
    results_[lane_trial_[lane]] = ms[lane];
  }
  // Every retired lane left a +infinity result behind; the survivors wrote
  // theirs just above.
  pruned_count_ = batch - live;
}

}  // namespace sehc
