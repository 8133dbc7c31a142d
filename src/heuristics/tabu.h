// Tabu search on the combined string encoding — a short-memory local
// search baseline complementing SA (uphill via memory rather than via
// temperature).
//
// Neighborhood: the best non-tabu single-task move among a sampled set of
// (task, position, machine) candidates per iteration; a move is committed
// even when uphill (classic tabu), the reverse attribute (task, old
// position, old machine) becomes tabu for `tenure` iterations, and
// aspiration overrides tabu when a move beats the best-known solution.
//
// TabuEngine implements the stepwise SearchEngine interface
// (search/engine.h): one step() is one tabu iteration (one sampled
// neighborhood scan plus the committed move).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/timer.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "sched/schedule.h"
#include "search/engine.h"

namespace sehc {

struct TabuParams {
  /// Iterations a reversed move stays forbidden.
  std::size_t tenure = 25;
  /// Candidate moves sampled per iteration.
  std::size_t samples = 24;
  std::uint64_t seed = 1;
};

class TabuEngine final : public SearchEngine {
 public:
  TabuEngine(const Workload& workload, TabuParams params);

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return "Tabu"; }
  void init() override;
  StepStats step() override;
  double best_makespan() const override { return best_len_; }
  std::size_t steps_done() const override { return iteration_; }
  std::size_t evals_used() const override { return eval_.trial_count(); }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  /// One pre-drawn neighborhood sample: the forward move plus the reverse
  /// attribute captured from the pre-move string.
  struct SampledMove {
    TaskId task = kInvalidTask;
    std::size_t new_pos = 0;
    MachineId new_machine = 0;
    std::size_t old_pos = 0;
    MachineId old_machine = 0;
  };

  const Workload* workload_;
  TabuParams params_;
  Evaluator eval_;
  // Neighborhood scans evaluate as TrialBatch waves over pre-drawn moves
  // (see tabu.cpp); both hoisted so step() allocates nothing at steady state.
  Evaluator::TrialBatch batch_;
  std::vector<SampledMove> sampled_;

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  Rng rng_{1};
  WallTimer timer_;
  SolutionString current_;
  SolutionString best_;
  double current_len_ = 0.0;
  double best_len_ = 0.0;
  std::size_t iteration_ = 0;  // completed iterations
  // Attribute-based tabu memory: expiry iteration per flattened
  // (task, position, machine) attribute.
  std::vector<std::size_t> tabu_expiry_;
};

}  // namespace sehc
