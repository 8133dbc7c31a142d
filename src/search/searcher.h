// The shared core of the six stepwise searchers (SE, GA, GSA, simulated
// annealing, tabu search, random search).
//
// A Searcher owns what every searcher needs to be driven and compared: the
// workload's Evaluator (whose trial counter is the `evals` currency), the
// engine's Rng, the incumbent (the best string found and its length), the
// step count and the run clock. It implements init(), step(),
// best_makespan(), steps_done(), evals_used(), elapsed_seconds() and
// best_schedule() once for all six, so every searcher counts steps, trials
// and time the same way. A searcher implements name(), start() and
// advance(), and offers each string it may keep to keep_if_best().
#pragma once

#include <limits>

#include "core/rng.h"
#include "core/timer.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "sched/schedule.h"
#include "search/engine.h"

namespace sehc {

class Searcher : public SearchEngine {
 public:
  /// Resets the evaluator's trial state, the clock and the step count,
  /// clears the incumbent, then start()s.
  void init() final;
  /// Throws sehc::Error before init(); advance()s, then counts the step.
  StepStats step() final;

  double best_makespan() const final { return best_len_; }
  std::size_t steps_done() const final { return steps_; }
  std::size_t evals_used() const final { return eval_.trial_count(); }
  double elapsed_seconds() const final { return timer_.seconds(); }
  /// Throws sehc::Error before init(), and before the first incumbent
  /// (random search has none until its first sample).
  Schedule best_schedule() const final;

 protected:
  /// The workload must outlive the searcher.
  explicit Searcher(const Workload& workload) : eval_(workload) {}

  const Workload& workload() const { return eval_.workload(); }

  /// Seeds rng_ and builds the start state (solution, population).
  virtual void start() = 0;
  /// One unit of work: an SE iteration, a generation, a move, a sample.
  virtual void advance() = 0;

  /// Makes `s` the incumbent when `len` is strictly shorter. The first
  /// string offered after init() is kept whatever its length (a makespan
  /// may overflow to +infinity).
  void keep_if_best(const SolutionString& s, double len) {
    if (len < best_len_ || best_.empty()) {
      best_len_ = len;
      best_ = s;
    }
  }

  Evaluator eval_;
  Rng rng_{1};

 private:
  void check_started() const {
    SEHC_CHECK(started_, name() + ": init() not called");
  }

  /// The incumbent, empty with length +infinity until one is kept.
  SolutionString best_;
  double best_len_ = std::numeric_limits<double>::infinity();
  WallTimer timer_;
  std::size_t steps_ = 0;
  bool started_ = false;
};

}  // namespace sehc
