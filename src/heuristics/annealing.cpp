#include "heuristics/annealing.h"

#include <cmath>
#include <limits>

namespace sehc {

namespace {

constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// One random neighborhood move, drawn but not yet applied. The draw order
/// (task, position, coin flip, machine) matches the historical in-place
/// mutation, so seeded runs reproduce the pre-incremental-engine results
/// byte for byte.
TaskMove propose_move(const SolutionString& s, const TaskGraph& g,
                      std::size_t num_machines, Rng& rng) {
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  TaskMove m{t, s.position_of(t), s.machine_of(t), 0, 0};
  const ValidRange range = s.valid_range(g, t);
  m.new_pos = range.lo + static_cast<std::size_t>(rng.below(range.size()));
  m.new_machine = rng.chance(0.5)
                      ? static_cast<MachineId>(rng.below(num_machines))
                      : m.old_machine;
  return m;
}

}  // namespace

SaEngine::SaEngine(const Workload& workload, SaParams params)
    : Searcher(workload), params_(params) {
  SEHC_CHECK(params_.cooling > 0.0 && params_.cooling < 1.0,
             "SaEngine: cooling must be in (0,1)");
  SEHC_CHECK(params_.steps_per_temp > 0,
             "SaEngine: steps_per_temp must be positive");
}

void SaEngine::start() {
  rng_ = Rng(params_.seed);
  const Workload& w = workload();
  current_ = random_initial_solution(w.graph(), w.num_machines(), rng_);
  current_len_ = eval_.makespan(current_);
  keep_if_best(current_, current_len_);

  // Incremental engine: trials re-simulate only [suffix_start, k) on top of
  // the prepared per-position snapshots. Annealing needs the exact length
  // of every trial (the Metropolis probability depends on the uphill
  // delta), so trials are never pruned; the saving is the skipped prefix.
  eval_.prepare(current_);

  // Calibrate T0 so an average uphill move is accepted with p ~ 0.8, from
  // a walk of 50 independent moves against the unchanged `current_`: each
  // is applied, trialled and undone before the next draw.
  double mean_uphill = 0.0;
  std::size_t uphill_count = 0;
  constexpr std::size_t kCalibrationMoves = 50;
  for (std::size_t i = 0; i < kCalibrationMoves; ++i) {
    const TaskMove move =
        propose_move(current_, w.graph(), w.num_machines(), rng_);
    move.apply(current_);
    const double len =
        eval_.prepared_trial(current_, move.suffix_start(), kNoBound);
    move.undo(current_);
    if (len > current_len_) {
      mean_uphill += len - current_len_;
      ++uphill_count;
    }
  }
  if (uphill_count > 0) mean_uphill /= static_cast<double>(uphill_count);
  temperature_ = mean_uphill > 0.0 ? -mean_uphill / std::log(0.8) : 1.0;
  since_cool_ = 0;
}

void SaEngine::advance() {
  const Workload& w = workload();

  const TaskMove move =
      propose_move(current_, w.graph(), w.num_machines(), rng_);
  move.apply(current_);
  const double len = eval_.prepared_trial(current_, move.suffix_start(),
                                          kNoBound);
  const double delta = len - current_len_;
  const bool accept =
      delta <= 0.0 ||
      (temperature_ > 0.0 && rng_.uniform() < std::exp(-delta / temperature_));
  if (accept) {
    current_len_ = len;
    eval_.refresh_from(current_, move.suffix_start());
    keep_if_best(current_, len);
  } else {
    move.undo(current_);
  }
  if (++since_cool_ >= params_.steps_per_temp) {
    since_cool_ = 0;
    temperature_ *= params_.cooling;
  }
}

}  // namespace sehc
