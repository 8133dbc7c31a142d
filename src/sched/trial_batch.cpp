// Evaluator::TrialBatch — SE's allocation scan as one structure-of-arrays
// sweep.
//
// The sweep is a loop interchange of the scalar reference path in
// evaluator.cpp (one trial_makespan() per trial string): positions sweep in
// the outer loop, lanes in the inner loop. Trials are mutually independent,
// so every trial's floating-point operation sequence is replayed unchanged
// and the results are bit-identical to one scalar call per trial, trial
// counter included. The sweep walks the base string without the edited
// task t from the evaluator's checkpoint. Until the sweep reaches its
// insertion point, a lane simulates just that string, so it carries the
// checkpoint rolled forward; there it runs t's step through the
// evaluator's simulate() and goes on with its own trial. Every other
// segment runs for all lanes at once as one fused SIMD strip op (simd.h):
// the sweep gathers the segment's predecessors once (a ready time for
// those in the checkpoint prefix, a finish row and a transfer time for each
// one the sweep simulates, a per-lane transfer row for the edited task),
// and the op computes every lane's ready time, start, finish, machine
// availability and makespan in one pass. Its max-reduction may take the
// predecessors in another order than the scalar step: every operand is a
// non-negative finite double (no -0.0, no NaN), for which max is
// order-independent down to the bit pattern.
//
// tests/test_trial_batch.cpp pins batch-vs-scalar bit-identity on every
// lane shape (reassigns, slides, chunked sweeps, bounds around the results,
// every residue of the strip widths, 0-4 simulated predecessors with and
// without the edited task); tests/test_allocation.cpp pins allocate_tasks
// against a scan that simulates every (position, machine) pair.
#include "sched/evaluator.h"

#include <algorithm>
#include <limits>
#include <string>

namespace sehc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// The lane store's size above which a batch sweeps in chunks.
constexpr std::size_t kLaneStoreBytes = std::size_t{1} << 20;
}  // namespace

Evaluator::TrialBatch::TrialBatch(const Evaluator& eval)
    : eval_(&eval),
      kernel_(resolve_kernel(kernel_choice_from_env())),
      ops_(&batch_kernel_ops(kernel_)) {
  std::size_t max_preds = 0;
  for (std::size_t t = 0; t < eval.num_tasks_; ++t) {
    max_preds = std::max<std::size_t>(
        max_preds, eval.pred_off_[t + 1] - eval.pred_off_[t]);
  }
  pred_finish_.resize(max_preds);
  pred_transfer_.resize(max_preds);
}

void Evaluator::TrialBatch::set_kernel(KernelChoice choice) {
  kernel_ = resolve_kernel(choice);
  ops_ = &batch_kernel_ops(kernel_);
  kernel_gauge_recorded_ = false;
}

void Evaluator::TrialBatch::begin_checkpoint(const SolutionString& base) {
  base_ = &base;
  clear();
}

void Evaluator::TrialBatch::add_reassign(TaskId t, MachineId m) {
  SEHC_CHECK(lane_machine_.empty() || t == task_,
             "TrialBatch: every trial of one batch must edit the same task");
  SEHC_CHECK(slide_pos_.empty(), "TrialBatch: reassigns must precede slides");
  task_ = t;
  lane_machine_.push_back(m);
}

void Evaluator::TrialBatch::add_slide(TaskId t, std::size_t pos,
                                      MachineId m) {
  SEHC_CHECK(lane_machine_.empty() || t == task_,
             "TrialBatch: every trial of one batch must edit the same task");
  SEHC_CHECK(slide_pos_.empty() || pos >= slide_pos_.back(),
             "TrialBatch: slides must come in non-decreasing position order");
  task_ = t;
  lane_machine_.push_back(m);
  slide_pos_.push_back(pos);
}

std::size_t Evaluator::TrialBatch::lane_capacity() const {
  const std::size_t lane_bytes =
      sizeof(double) * (eval_->num_tasks_ + eval_->num_machines_ + 2);
  return std::max(kLaneStoreBytes / lane_bytes, std::size_t{1});
}

const std::vector<double>& Evaluator::TrialBatch::evaluate(double bound) {
  SEHC_ASSERT_MSG(base_ != nullptr, "TrialBatch: begin_checkpoint() not called");
  SEHC_ASSERT_MSG(base_->size() == eval_->num_tasks_,
                  "TrialBatch: base string size mismatch");
  const std::size_t n = size();
  if (!slide_pos_.empty()) {
    // A slide must stay below t's first successor, so that every lane runs
    // t before the segments that read it.
    const std::size_t* const pos = base_->positions().data();
    std::size_t limit = base_->size();
    for (const TaskId v : eval_->workload_->graph().succs(task_)) {
      limit = std::min(limit, pos[v]);
    }
    SEHC_CHECK(slide_pos_.front() > pos[task_] && slide_pos_.back() < limit,
               "TrialBatch: a slide must move its task up inside its valid "
               "range");
  }
  // Batch of N counts exactly N trials — the evals currency stays exact.
  eval_->trial_count_ += n;
  results_.resize(n);
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
    const std::size_t chunk = lane_capacity();
    for (std::size_t first = 0; first < n; first += chunk) {
      sweep(first, std::min(chunk, n - first));
    }
    // The running makespan is monotone, so a final makespan above the bound
    // marks exactly the trials the scalar path prunes.
    std::uint64_t pruned = 0;
    for (double& len : results_) {
      if (len > bound) {
        len = kInf;
        ++pruned;
      }
    }
    // Once per batch, after the sweep: plain member arithmetic only (the
    // --check-overhead gate holds the proof).
    metrics_.batches += 1;
    metrics_.trials += n;
    if (n > metrics_.max_batch) metrics_.max_batch = n;
    metrics_.batch_sizes.record(n);
    metrics_.pruned += pruned;
  }
  clear();
  return results_;
}

// All lanes share the base's segment sequence and predecessor metadata; a
// lane differs only in where it inserts t and on which machine, so every
// segment but t runs with contiguous lane-minor inner loops.
void Evaluator::TrialBatch::sweep(std::size_t first, std::size_t count) {
  const Evaluator& ev = *eval_;
  const std::size_t k = ev.num_tasks_;
  const std::size_t l = ev.num_machines_;
  const Segment* const segs = base_->segments().data();
  const std::size_t* const pos = base_->positions().data();
  const std::size_t from = ev.cp_prefix_;
  const TaskId edit_task = task_;
  const std::size_t edit_pos = pos[edit_task];
  SEHC_ASSERT_MSG(edit_pos >= from,
                  "TrialBatch: the edited task lies in the checkpoint prefix");
  const std::size_t reassigns = size() - slide_pos_.size();
  // Where trial i inserts t, counted in segments of the string without t
  // before it: a reassign keeps t at edit_pos, a slide puts it behind the
  // segments that move down.
  const auto join_at = [&](std::size_t i) {
    return i < reassigns ? edit_pos : slide_pos_[i - reassigns];
  };

  avail_lanes_.resize(l * count);
  finish_lanes_.resize(k * count);
  makespan_.assign(count, ev.cp_makespan_);
  edit_transfer_.resize(count);
  for (std::size_t m = 0; m < l; ++m) {
    std::fill_n(avail_lanes_.begin() + m * count, count, ev.cp_avail_[m]);
  }

  const double* const shared_finish = ev.finish_.data();
  const MachineId* const lane_machine = lane_machine_.data() + first;
  double* const al = avail_lanes_.data();
  double* const fl = finish_lanes_.data();
  double* const ms = makespan_.data();

  // Lanes [0, joined) have inserted t. The others still simulate the string
  // without t: each carries the checkpoint, rolled forward to where the
  // sweep is, and starts its own trial from it.
  std::size_t joined = 0;
  for (std::size_t b = from;; ++b) {
    // The lanes that insert t before segment b of the string without t run
    // t's step on their own machine and transfer rows.
    for (; joined < count && join_at(first + joined) == b; ++joined) {
      const Segment edit{edit_task, lane_machine[joined]};
      double* const fl_lane = fl + joined;
      double* const al_lane = al + joined;
      ms[joined] = ev.simulate(
          0, 1, ms[joined], kInf, [edit](std::size_t) { return edit; },
          [=](TaskId p) {
            const std::size_t at = pos[p];
            return Producer{at >= from ? fl_lane[p * count] : shared_finish[p],
                            segs[at].machine};
          },
          [=](MachineId m) -> double& { return al_lane[m * count]; },
          [=](TaskId task, double, double fin) {
            fl_lane[task * count] = fin;
          });
    }
    if (b + 1 == k) break;  // the string without t has k - 1 segments
    const Segment seg = segs[b < edit_pos ? b : b + 1];
    const TaskId t = seg.task;
    const MachineId m = seg.machine;
    // Predecessors inside the evaluator's checkpoint prefix contribute one
    // ready time for all lanes; those the sweep simulates contribute a
    // finish row each, with one transfer time for all lanes, except the
    // edited task, which each lane runs on its own machine. (A successor of
    // t runs after every lane has inserted t: evaluate() checked the
    // slides.)
    SegmentStrip strip;
    strip.pred_finish = pred_finish_.data();
    strip.pred_transfer = pred_transfer_.data();
    for (std::uint32_t e = ev.pred_off_[t]; e < ev.pred_off_[t + 1]; ++e) {
      const TaskId src = ev.pred_src_[e];
      const DataId item = ev.pred_item_[e];
      const std::size_t at = pos[src];
      if (src == edit_task) {
        for (std::size_t lane = 0; lane < count; ++lane) {
          edit_transfer_[lane] = ev.transfer_row(lane_machine[lane], m)[item];
        }
        strip.edit_finish = fl + src * count;
        strip.edit_transfer = edit_transfer_.data();
      } else if (at >= from) {
        pred_finish_[strip.preds] = fl + src * count;
        pred_transfer_[strip.preds] =
            ev.transfer_row(segs[at].machine, m)[item];
        ++strip.preds;
      } else {
        strip.ready0 = std::max(
            strip.ready0,
            shared_finish[src] + ev.transfer_row(segs[at].machine, m)[item]);
      }
    }
    strip.exec = ev.exec_[m * k + t];
    strip.avail = al + m * count;
    strip.finish = fl + t * count;
    strip.makespan = ms;
    ops_->segment(strip, count);
  }
  std::copy(ms, ms + count, results_.begin() + first);
}

}  // namespace sehc
