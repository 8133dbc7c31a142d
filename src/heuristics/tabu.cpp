#include "heuristics/tabu.h"

#include <algorithm>
#include <limits>

namespace sehc {

TabuEngine::TabuEngine(const Workload& workload, TabuParams params)
    : Searcher(workload), params_(params) {
  SEHC_CHECK(params_.samples > 0, "TabuEngine: samples must be positive");
}

void TabuEngine::start() {
  rng_ = Rng(params_.seed);
  const Workload& w = workload();
  current_ = random_initial_solution(w.graph(), w.num_machines(), rng_);
  current_len_ = eval_.makespan(current_);
  keep_if_best(current_, current_len_);
  tabu_.clear();

  // Incremental engine: the prepared state snapshots the machine state
  // before every position of `current`, so a sampled move that rewrites the
  // string from position p onward costs O(k - p) instead of a full O(k)
  // re-evaluation. The state is refreshed only when a move commits.
  eval_.prepare(current_);
}

bool TabuEngine::is_tabu(const TaskMove& move) const {
  return std::any_of(tabu_.begin(), tabu_.end(), [&](const TabuEntry& e) {
    return e.task == move.task && e.pos == move.new_pos &&
           e.machine == move.new_machine;
  });
}

void TabuEngine::advance() {
  const Workload& w = workload();
  const TaskGraph& g = w.graph();
  // A reverse attribute committed at iteration j is tabu up to iteration
  // j + tenure - 1, and expires at j + tenure.
  const std::size_t iteration = steps_done();
  while (!tabu_.empty() && iteration - tabu_.front().step >= params_.tenure) {
    tabu_.pop_front();
  }

  // Each sample is drawn against the unchanged `current_`, applied,
  // trialled on the prepared snapshots and undone before the next draw. The
  // trial's pruning bound is the best admissible length so far: a trial
  // pruned above it cannot be chosen, since its true length fails
  // `len < chosen_len` exactly as its +infinity does, and aspiration only
  // gates the tabu skip of samples that fail that test anyway.
  TaskMove chosen;
  double chosen_len = std::numeric_limits<double>::infinity();
  for (std::size_t sample = 0; sample < params_.samples; ++sample) {
    TaskMove m;
    m.task = static_cast<TaskId>(rng_.below(w.num_tasks()));
    const ValidRange range = current_.valid_range(g, m.task);
    m.old_pos = current_.position_of(m.task);
    m.old_machine = current_.machine_of(m.task);
    m.new_pos = range.lo + static_cast<std::size_t>(rng_.below(range.size()));
    m.new_machine = static_cast<MachineId>(rng_.below(w.num_machines()));
    m.apply(current_);
    const double len =
        eval_.prepared_trial(current_, m.suffix_start(), chosen_len);
    m.undo(current_);
    const bool aspirates = len < best_makespan();
    if (!aspirates && is_tabu(m)) continue;
    if (len < chosen_len) {
      chosen_len = len;
      chosen = m;
    }
  }

  if (chosen.task != kInvalidTask) {  // everything sampled may have been tabu
    chosen.apply(current_);
    current_len_ = chosen_len;
    tabu_.push_back(
        {chosen.task, chosen.old_pos, chosen.old_machine, iteration});
    eval_.refresh_from(current_, chosen.suffix_start());
    keep_if_best(current_, current_len_);
  }
}

}  // namespace sehc
