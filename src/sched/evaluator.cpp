#include "sched/evaluator.h"

#include <algorithm>
#include <limits>

namespace sehc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Evaluator::Evaluator(const Workload& w)
    : workload_(&w),
      num_tasks_(w.num_tasks()),
      num_machines_(w.num_machines()),
      finish_(w.num_tasks(), 0.0),
      machine_avail_(w.num_machines(), 0.0) {
  const TaskGraph& g = w.graph();
  const std::size_t k = num_tasks_;
  const std::size_t p = w.num_items();

  // Flatten the incoming adjacency in in_edges() order so the max-reduction
  // over predecessors runs in exactly the order of the naive loop.
  pred_off_.resize(k + 1);
  pred_src_.reserve(p);
  pred_item_.reserve(p);
  for (TaskId t = 0; t < k; ++t) {
    pred_off_[t] = static_cast<std::uint32_t>(pred_src_.size());
    for (DataId d : g.in_edges(t)) {
      pred_src_.push_back(g.edge(d).src);
      pred_item_.push_back(d);
    }
  }
  pred_off_[k] = static_cast<std::uint32_t>(pred_src_.size());

  exec_ = w.exec_matrix().flat().data();
  // Machine-pair -> transfer row pointer table; the diagonal resolves to
  // this object's zero row so same-machine transfers cost 0.0 without a
  // branch. Only a predecessor edge reads it, so an edge-free workload
  // builds none: its l x l pointers could dwarf the document, while with
  // data items Tr already holds l(l-1)/2 numbers per item.
  if (p == 0) return;
  zero_row_.assign(p, 0.0);
  const std::size_t l = num_machines_;
  pair_row_.assign(l * l, zero_row_.data());
  const double* tr = w.transfer_matrix().flat().data();
  for (MachineId a = 0; a < l; ++a) {
    for (MachineId b = 0; b < l; ++b) {
      if (a == b) continue;
      pair_row_[a * l + b] = tr + pair_index(l, a, b) * p;
    }
  }
}

void Evaluator::evaluate_into(const SolutionString& s,
                              ScheduleTimes& out) const {
  SEHC_CHECK(s.size() == num_tasks_, "Evaluator: string size mismatch");
  ++trial_count_;
  out.start.assign(num_tasks_, 0.0);
  out.finish.assign(num_tasks_, 0.0);
  std::fill(machine_avail_.begin(), machine_avail_.end(), 0.0);

  const Segment* const segs = s.segments().data();
  const std::size_t* const pos = s.positions().data();
  double* const start = out.start.data();
  double* const finish = out.finish.data();
  double* const avail = machine_avail_.data();
  out.makespan = simulate(
      0, num_tasks_, 0.0, kInf, [segs](std::size_t i) { return segs[i]; },
      [&](TaskId p) { return Producer{finish[p], segs[pos[p]].machine}; },
      [avail](MachineId m) -> double& { return avail[m]; },
      [&](TaskId t, double st, double fin) {
        start[t] = st;
        finish[t] = fin;
      });
}

ScheduleTimes Evaluator::evaluate(const SolutionString& s) const {
  ScheduleTimes out;
  evaluate_into(s, out);
  return out;
}

double Evaluator::makespan(const SolutionString& s) const {
  SEHC_CHECK(s.size() == num_tasks_, "Evaluator: string size mismatch");
  ++trial_count_;
  std::fill(machine_avail_.begin(), machine_avail_.end(), 0.0);
  return run_string(s, 0, num_tasks_, 0.0, kInf, finish_.data(),
                    machine_avail_.data());
}

void Evaluator::reset_trial_state() const {
  // clear() keeps capacity: the buffers are re-filled by the next
  // begin_trials()/prepare() without reallocating, and ready()/the
  // checkpoint prefix report "no state" until then.
  cp_avail_.clear();
  cp_makespan_ = 0.0;
  cp_prefix_ = 0;
  prepared_.avail_rows.clear();
  prepared_.prefix_makespan.clear();
  prepared_.finish.clear();
  trial_count_ = 0;
}

void Evaluator::begin_trials(const SolutionString& s,
                             std::size_t prefix) const {
  SEHC_CHECK(s.size() == num_tasks_, "Evaluator: string size mismatch");
  SEHC_CHECK(prefix <= s.size(), "Evaluator: prefix out of range");
  cp_avail_.assign(num_machines_, 0.0);
  cp_makespan_ = run_string(s, 0, prefix, 0.0, kInf, finish_.data(),
                            cp_avail_.data());
  cp_prefix_ = prefix;
}

void Evaluator::extend_checkpoint(const SolutionString& s) const {
  SEHC_ASSERT_MSG(cp_prefix_ < s.size(),
                  "Evaluator::extend_checkpoint: checkpoint already full");
  cp_makespan_ = run_string(s, cp_prefix_, cp_prefix_ + 1, cp_makespan_, kInf,
                            finish_.data(), cp_avail_.data());
  ++cp_prefix_;
}

double Evaluator::trial_makespan(const SolutionString& s, double bound) const {
  SEHC_ASSERT_MSG(s.size() == num_tasks_,
                  "Evaluator::trial_makespan: string size mismatch");
  ++trial_count_;
  std::copy(cp_avail_.begin(), cp_avail_.end(), machine_avail_.begin());
  if (cp_makespan_ > bound) return kInf;
  return run_string(s, cp_prefix_, num_tasks_, cp_makespan_, bound,
                    finish_.data(), machine_avail_.data());
}

void Evaluator::prepare(const SolutionString& s) const {
  SEHC_CHECK(s.size() == num_tasks_, "Evaluator: string size mismatch");
  const std::size_t k = num_tasks_;
  const std::size_t l = num_machines_;
  if (prepared_.avail_rows.size() != (k + 1) * l) {
    prepared_.avail_rows.assign((k + 1) * l, 0.0);
    prepared_.prefix_makespan.assign(k + 1, 0.0);
    prepared_.finish.assign(k, 0.0);
  }
  std::fill_n(prepared_.avail_rows.begin(), l, 0.0);
  prepared_.prefix_makespan[0] = 0.0;
  if (k > 0) refresh_from(s, 0);
}

void Evaluator::refresh_from(const SolutionString& s, std::size_t from) const {
  SEHC_ASSERT_MSG(prepared_.ready(),
                  "Evaluator::refresh_from: prepare() not called");
  SEHC_ASSERT_MSG(from < s.size(), "Evaluator::refresh_from: bad position");
  const std::size_t l = num_machines_;
  const Segment* const segs = s.segments().data();
  const std::size_t* const pos = s.positions().data();
  double* const finish = prepared_.finish.data();
  double* const rows = prepared_.avail_rows.data();
  double* const prefix = prepared_.prefix_makespan.data();
  double* const avail = machine_avail_.data();

  // Row p+1 snapshots the machine state and running makespan once the
  // segment at position p is scheduled.
  std::copy_n(rows + from * l, l, avail);
  std::size_t row = from;
  double makespan = prefix[from];
  simulate(
      from, num_tasks_, makespan, kInf,
      [segs](std::size_t i) { return segs[i]; },
      [&](TaskId p) { return Producer{finish[p], segs[pos[p]].machine}; },
      [avail](MachineId m) -> double& { return avail[m]; },
      [&](TaskId t, double, double fin) {
        finish[t] = fin;
        makespan = std::max(makespan, fin);
        ++row;
        std::copy_n(avail, l, rows + row * l);
        prefix[row] = makespan;
      });
}

double Evaluator::prepared_trial(const SolutionString& s, std::size_t from,
                                 double bound) const {
  SEHC_ASSERT_MSG(prepared_.ready(),
                  "Evaluator::prepared_trial: prepare() not called");
  SEHC_ASSERT_MSG(s.size() == num_tasks_ && from <= num_tasks_,
                  "Evaluator::prepared_trial: bad arguments");
  ++trial_count_;
  const std::size_t l = num_machines_;
  std::copy_n(prepared_.avail_rows.data() + from * l, l,
              machine_avail_.begin());
  const double makespan = prepared_.prefix_makespan[from];
  if (makespan > bound) return kInf;

  // Predecessors below `from` are untouched by the trial: read their
  // prepared finish times. Predecessors at or above `from` were re-simulated
  // earlier in this very pass (the string is topological): read the trial
  // scratch.
  const Segment* const segs = s.segments().data();
  const std::size_t* const pos = s.positions().data();
  const double* const prepared = prepared_.finish.data();
  double* const finish = finish_.data();
  double* const avail = machine_avail_.data();
  return simulate(
      from, num_tasks_, makespan, bound,
      [segs](std::size_t i) { return segs[i]; },
      [&](TaskId p) {
        const std::size_t at = pos[p];
        return Producer{at >= from ? finish[p] : prepared[p], segs[at].machine};
      },
      [avail](MachineId m) -> double& { return avail[m]; },
      [finish](TaskId t, double, double fin) { finish[t] = fin; });
}

ScheduleTimes evaluate_schedule(const Workload& w, const SolutionString& s) {
  return Evaluator(w).evaluate(s);
}

}  // namespace sehc
