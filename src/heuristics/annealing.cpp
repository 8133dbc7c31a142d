#include "heuristics/annealing.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sehc {

namespace {

constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// One random neighborhood move, drawn but not yet applied. The draw order
/// (task, position, coin flip, machine) matches the historical in-place
/// mutation, so seeded runs reproduce the pre-incremental-engine results
/// byte for byte.
struct Move {
  TaskId task;
  std::size_t old_pos;
  MachineId old_machine;
  std::size_t new_pos;
  MachineId new_machine;

  /// First string position the move rewrites; the prepared trial starts
  /// simulating there.
  std::size_t suffix_start() const { return std::min(old_pos, new_pos); }
};

Move propose_move(const SolutionString& s, const TaskGraph& g,
                  std::size_t num_machines, Rng& rng) {
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  Move m{t, s.position_of(t), s.machine_of(t), 0, 0};
  const ValidRange range = s.valid_range(g, t);
  m.new_pos = range.lo + static_cast<std::size_t>(rng.below(range.size()));
  m.new_machine = rng.chance(0.5)
                      ? static_cast<MachineId>(rng.below(num_machines))
                      : m.old_machine;
  return m;
}

void apply_move(SolutionString& s, const Move& m) {
  s.move_task(m.task, m.new_pos);
  s.set_machine(m.task, m.new_machine);
}

void undo_move(SolutionString& s, const Move& m) {
  s.move_task(m.task, m.old_pos);
  s.set_machine(m.task, m.old_machine);
}

}  // namespace

SaEngine::SaEngine(const Workload& workload, SaParams params)
    : workload_(&workload), params_(params), eval_(workload), batch_(eval_) {
  SEHC_CHECK(params_.cooling > 0.0 && params_.cooling < 1.0,
             "SaEngine: cooling must be in (0,1)");
  SEHC_CHECK(params_.steps_per_temp > 0,
             "SaEngine: steps_per_temp must be positive");
}

void SaEngine::init() {
  const Workload& w = *workload_;
  rng_ = Rng(params_.seed);
  eval_.reset_trial_state();
  timer_.reset();

  current_ = random_initial_solution(w.graph(), w.num_machines(), rng_);
  current_len_ = eval_.makespan(current_);
  best_ = current_;
  best_len_ = current_len_;

  // Incremental engine: trials re-simulate only [suffix_start, k) on top of
  // the prepared per-position snapshots. Annealing needs the exact length
  // of every trial (the Metropolis probability depends on the uphill
  // delta), so trials are never pruned; the saving is the skipped prefix.
  eval_.prepare(current_);

  // Calibrate T0 so an average uphill move is accepted with p ~ 0.8. The
  // walk probes 50 independent moves against the unchanged `current_` (the
  // scalar loop applied and undid each one before the next draw), so all 50
  // can be pre-drawn and evaluated as one TrialBatch — same RNG stream, same
  // lengths bit for bit. The main Metropolis loop in step() stays scalar:
  // each proposal there depends on whether the previous one was accepted.
  double mean_uphill = 0.0;
  std::size_t uphill_count = 0;
  constexpr std::size_t kCalibrationMoves = 50;
  batch_.begin_prepared(current_);
  for (std::size_t i = 0; i < kCalibrationMoves; ++i) {
    const Move move = propose_move(current_, w.graph(), w.num_machines(), rng_);
    batch_.add_move(move.task, move.new_pos, move.new_machine);
  }
  for (const double len : batch_.evaluate(kNoBound)) {
    if (len > current_len_) {
      mean_uphill += len - current_len_;
      ++uphill_count;
    }
  }
  if (uphill_count > 0) mean_uphill /= static_cast<double>(uphill_count);
  temperature_ = mean_uphill > 0.0 ? -mean_uphill / std::log(0.8) : 1.0;

  since_cool_ = 0;
  iteration_ = 0;
  initialized_ = true;
}

StepStats SaEngine::step() {
  SEHC_CHECK(initialized_, "SaEngine: init() not called");
  const Workload& w = *workload_;

  const Move move = propose_move(current_, w.graph(), w.num_machines(), rng_);
  apply_move(current_, move);
  const double len = eval_.prepared_trial(current_, move.suffix_start(),
                                          kNoBound);
  const double delta = len - current_len_;
  const bool accept =
      delta <= 0.0 ||
      (temperature_ > 0.0 && rng_.uniform() < std::exp(-delta / temperature_));
  if (accept) {
    current_len_ = len;
    eval_.refresh_from(current_, move.suffix_start());
    if (len < best_len_) {
      best_len_ = len;
      best_ = current_;
    }
  } else {
    undo_move(current_, move);
  }
  if (++since_cool_ >= params_.steps_per_temp) {
    since_cool_ = 0;
    temperature_ *= params_.cooling;
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

Schedule SaEngine::best_schedule() const {
  SEHC_CHECK(initialized_, "SaEngine: init() not called");
  return Schedule::from_solution(*workload_, best_);
}

}  // namespace sehc
