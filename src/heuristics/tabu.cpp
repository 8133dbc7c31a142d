#include "heuristics/tabu.h"

#include <algorithm>
#include <limits>

namespace sehc {

namespace {

/// One neighborhood sample: the forward move plus the reverse attribute
/// captured from the pre-move string.
struct Move {
  TaskId task = kInvalidTask;
  std::size_t new_pos = 0;
  MachineId new_machine = 0;
  std::size_t old_pos = 0;
  MachineId old_machine = 0;
};

}  // namespace

TabuEngine::TabuEngine(const Workload& workload, TabuParams params)
    : workload_(&workload), params_(params), eval_(workload) {
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

  // Each sample is drawn against the unchanged `current_`, applied,
  // trialled on the prepared snapshots and undone before the next draw. The
  // trial's pruning bound is the best admissible length so far: a trial
  // pruned above it cannot be chosen, since its true length fails
  // `len < chosen_len` exactly as its +infinity does, and aspiration only
  // gates the tabu skip of samples that fail that test anyway.
  Move chosen;
  double chosen_len = std::numeric_limits<double>::infinity();
  for (std::size_t sample = 0; sample < params_.samples; ++sample) {
    Move m;
    m.task = static_cast<TaskId>(rng_.below(w.num_tasks()));
    const ValidRange range = current_.valid_range(g, m.task);
    m.old_pos = current_.position_of(m.task);
    m.old_machine = current_.machine_of(m.task);
    m.new_pos = range.lo + static_cast<std::size_t>(rng_.below(range.size()));
    m.new_machine = static_cast<MachineId>(rng_.below(w.num_machines()));
    current_.move_task(m.task, m.new_pos);
    current_.set_machine(m.task, m.new_machine);
    const double len = eval_.prepared_trial(
        current_, std::min(m.old_pos, m.new_pos), chosen_len);
    current_.move_task(m.task, m.old_pos);
    current_.set_machine(m.task, m.old_machine);
    const bool aspirates = len < best_len_;
    if (!aspirates &&
        tabu_expiry_[attr_index(m.task, m.new_pos, m.new_machine)] >
            iteration_) {
      continue;
    }
    if (len < chosen_len) {
      chosen_len = len;
      chosen = m;
    }
  }

  if (chosen.task != kInvalidTask) {  // everything sampled may have been tabu
    const Move& m = chosen;
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
