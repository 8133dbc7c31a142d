// Anytime-curve capture: best schedule length as a function of a progress
// coordinate — real time for the paper's Figures 5-7 (SE vs GA under equal
// wall-clock budgets), or completed steps / evaluator trials for
// deterministic campaign cells (where curves must be a pure function of the
// cell coordinates so sharded runs merge byte-for-byte).
//
// One generic driver serves every searcher: run_anytime(engine, budget)
// drives any stepwise SearchEngine (SE, GA, GSA, tabu, annealing, random
// search — see search/engine.h) and records the curve on the budget's own
// axis. The per-searcher run_se/ga_anytime* helpers this replaces are gone.
#pragma once

#include <vector>

#include "search/engine.h"

namespace sehc {

/// One point of an anytime curve: the best makespan known at coordinate
/// `seconds` (wall-clock seconds, completed steps or evaluator trials,
/// depending on the capture axis; the field name is historical).
struct AnytimePoint {
  double seconds = 0.0;
  double best = 0.0;
};

/// Improvement recorder used inside sweep/campaign cells and by
/// run_anytime: record() appends a point only when it improves on the last
/// recorded best; finish() appends the terminal point unconditionally (so
/// every curve ends at the budget).
class CurveRecorder {
 public:
  /// Appends (x, best) iff the curve is empty or `best` improves on the
  /// last recorded best.
  void record(double x, double best) {
    if (curve_.empty() || best < curve_.back().best) curve_.push_back({x, best});
  }

  /// Appends the terminal point unconditionally.
  void finish(double x, double best) { curve_.push_back({x, best}); }

  const std::vector<AnytimePoint>& curve() const { return curve_; }
  std::vector<AnytimePoint> take() { return std::move(curve_); }

 private:
  std::vector<AnytimePoint> curve_;
};

/// Drives `engine` (init + steps) under `budget`, recording a point
/// whenever the best makespan improves, plus the unconditional terminal
/// point. The x axis is the budget's own currency:
///
///   * kSteps   — completed steps, 1-based; terminal at the steps actually
///                run (== the budget; 1 for a one-shot engine);
///   * kEvals   — cumulative evaluator trials; steps are atomic, so the
///                final step may overshoot the budget — its result counts
///                and the terminal x is clamped to the budget;
///   * kSeconds — wall-clock seconds as measured inside each step;
///                terminal at the seconds actually elapsed.
///
/// With step or eval budgets the curve is a pure function of the engine's
/// seed (bit-identical across machines, threads and shards).
///
/// When `deadline` is armed and expires before the budget is spent, the run
/// throws sehc::TimeoutError (the campaign layer's watchdog path: a
/// timed-out cell is quarantined, not persisted with a half-budget curve).
std::vector<AnytimePoint> run_anytime(SearchEngine& engine,
                                      const Budget& budget,
                                      const Deadline& deadline = {});

/// Step-function sample: the best value achieved at or before `seconds`.
/// Defined on every curve, including an empty one: with no point at or
/// before `seconds` (in particular on an empty curve) it returns +infinity
/// ("no solution known yet").
double value_at(const std::vector<AnytimePoint>& curve, double seconds);

/// Uniform checkpoint grid [step, 2*step, ..., budget] for tabulating
/// curves side by side. `points` == 0 is defined as the empty grid;
/// otherwise the budget must be positive and finite.
std::vector<double> time_grid(double budget_seconds, std::size_t points);

/// Samples value_at(curve, g) for every grid point; the fixed-width form
/// campaign records persist. Points before the curve's first improvement
/// sample as +infinity.
std::vector<double> sample_curve(const std::vector<AnytimePoint>& curve,
                                 const std::vector<double>& grid);

}  // namespace sehc
