#include "heuristics/tabu.h"

#include <algorithm>
#include <limits>

namespace sehc {

namespace {

/// Moves per TrialBatch wave. Waves trade a little pruning tightness (the
/// shared bound is the incumbent at wave start, not per-sample) for the
/// batched sweep; the replay below shows the chosen move is unchanged.
constexpr std::size_t kWaveSize = 16;

}  // namespace

TabuEngine::TabuEngine(const Workload& workload, TabuParams params)
    : workload_(&workload), params_(params), eval_(workload), batch_(eval_) {
  SEHC_CHECK(params_.samples > 0, "TabuEngine: samples must be positive");
}

void TabuEngine::init() {
  const Workload& w = *workload_;
  rng_ = Rng(params_.seed);
  eval_.reset_trial_state();
  timer_.reset();

  current_ = random_initial_solution(w.graph(), w.num_machines(), rng_);
  current_len_ = eval_.makespan(current_);
  best_ = current_;
  best_len_ = current_len_;

  tabu_expiry_.assign(w.num_tasks() * w.num_tasks() * w.num_machines(), 0);

  // Incremental engine: the prepared state snapshots the machine state
  // before every position of `current`, so a sampled move that rewrites the
  // string from position p onward costs O(k - p) instead of a full O(k)
  // re-evaluation. The state is refreshed only when a move commits.
  eval_.prepare(current_);

  iteration_ = 0;
  initialized_ = true;
}

StepStats TabuEngine::step() {
  SEHC_CHECK(initialized_, "TabuEngine: init() not called");
  const Workload& w = *workload_;
  const TaskGraph& g = w.graph();
  const std::size_t machines = w.num_machines();
  const std::size_t positions = w.num_tasks();
  const auto attr_index = [&](TaskId task, std::size_t pos, MachineId machine) {
    return (task * positions + pos) * machines + machine;
  };

  // Pre-draw the whole neighborhood sample. The scalar loop evaluated each
  // move between draws by mutate/evaluate/undo, but `current_` is restored
  // before every draw and evaluation consumes no RNG — so drawing first and
  // evaluating later consumes the identical stream.
  sampled_.clear();
  for (std::size_t sample = 0; sample < params_.samples; ++sample) {
    SampledMove m;
    m.task = static_cast<TaskId>(rng_.below(w.num_tasks()));
    const ValidRange range = current_.valid_range(g, m.task);
    m.old_pos = current_.position_of(m.task);
    m.old_machine = current_.machine_of(m.task);
    m.new_pos = range.lo + static_cast<std::size_t>(rng_.below(range.size()));
    m.new_machine = static_cast<MachineId>(rng_.below(w.num_machines()));
    sampled_.push_back(m);
  }

  std::size_t chosen = sampled_.size();  // index into sampled_, or none
  double chosen_len = std::numeric_limits<double>::infinity();

  // Evaluate in TrialBatch waves: each wave's shared pruning bound is the
  // incumbent at wave start (tightened between waves). Within a wave the
  // bound is looser than the scalar per-sample bound, which cannot change
  // the outcome: an exact value above the evolving incumbent loses the
  // `len < chosen_len` test exactly as its pruned +infinity would, and
  // aspiration only gates the tabu skip of samples that fail that test
  // anyway. Moves are resolved virtually — `current_` is never touched.
  for (std::size_t w0 = 0; w0 < sampled_.size(); w0 += kWaveSize) {
    const std::size_t w1 = std::min(w0 + kWaveSize, sampled_.size());
    batch_.begin_prepared(current_);
    for (std::size_t i = w0; i < w1; ++i) {
      batch_.add_move(sampled_[i].task, sampled_[i].new_pos,
                      sampled_[i].new_machine);
    }
    const std::vector<double>& lens = batch_.evaluate(chosen_len);
    for (std::size_t i = w0; i < w1; ++i) {
      const SampledMove& m = sampled_[i];
      const double len = lens[i - w0];
      const bool aspirates = len < best_len_;
      if (!aspirates &&
          tabu_expiry_[attr_index(m.task, m.new_pos, m.new_machine)] >
              iteration_) {
        continue;
      }
      if (len < chosen_len) {
        chosen_len = len;
        chosen = i;
      }
    }
  }

  if (chosen < sampled_.size()) {  // everything sampled may have been tabu
    const SampledMove& m = sampled_[chosen];
    current_.move_task(m.task, m.new_pos);
    current_.set_machine(m.task, m.new_machine);
    current_len_ = chosen_len;
    tabu_expiry_[attr_index(m.task, m.old_pos, m.old_machine)] =
        iteration_ + params_.tenure;
    eval_.refresh_from(current_, std::min(m.old_pos, m.new_pos));

    if (current_len_ < best_len_) {
      best_len_ = current_len_;
      best_ = current_;
    }
  }

  ++iteration_;
  StepStats out;
  out.step = iteration_ - 1;
  out.current_makespan = current_len_;
  out.best_makespan = best_len_;
  out.evals_used = eval_.trial_count();
  out.elapsed_seconds = timer_.seconds();
  return out;
}

Schedule TabuEngine::best_schedule() const {
  SEHC_CHECK(initialized_, "TabuEngine: init() not called");
  return Schedule::from_solution(*workload_, best_);
}

}  // namespace sehc
