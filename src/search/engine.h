// Unified stepwise search-engine core.
//
// Every iterative searcher in the library (SE, GA, GSA, tabu, simulated
// annealing, random search) implements one interface: construct, init(),
// then step() one unit of work at a time — an SE iteration, a GA/GSA
// generation, a tabu/annealing move, one random sample. All six derive from
// Searcher (search/searcher.h), which keeps their step, trial and incumbent
// bookkeeping in one place. Searchers never stop themselves: run_search
// (and run_anytime on top of it) is the one search loop, and every stop
// lives there — the Budget (step count,
// evaluator-trial count or wall-clock seconds, the three currencies the
// comparison suite uses), an observer's request and the Deadline. So any
// two searchers can be compared under *equal* budgets — the paper's
// central experimental requirement.
//
// Determinism contract: at a fixed seed, init() + N x step() is a pure
// function of N, so a step or eval budget reproduces the same schedules,
// stats and RNG streams bit for bit however the loop is driven; wall-clock
// budgets are the one currency whose stopping point depends on real time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "core/error.h"
#include "sched/schedule.h"

namespace sehc {

/// Cooperative wall-clock watchdog checked by run_search between engine
/// steps. A default-constructed Deadline is unlimited (the check is a
/// single branch); an armed one costs one steady_clock read per step —
/// engine steps are chunky (tens to thousands of evaluator trials), so the
/// driver's share of a search stays small (perfbench's search.driver_frac
/// measures it). This is external preemption: the Budget currencies say
/// how much work a search MAY do, a Deadline says when the caller stops
/// waiting (runaway cells, campaign watchdogs, serving timeouts).
class Deadline {
 public:
  /// Unlimited: never expires.
  Deadline() = default;

  /// Expires `seconds` of wall-clock time from now (must be positive and
  /// finite; throws sehc::Error otherwise).
  static Deadline after(double seconds);

  bool unlimited() const { return !armed_; }

  /// True once the wall clock has passed the deadline (always false for an
  /// unlimited deadline).
  bool expired() const { return armed_ && clock::now() >= at_; }

  /// The seconds the deadline was armed with (0 when unlimited). Used for
  /// diagnostics — deterministic, unlike a measured elapsed time.
  double budget_seconds() const { return budget_seconds_; }

 private:
  using clock = std::chrono::steady_clock;
  bool armed_ = false;
  clock::time_point at_{};
  double budget_seconds_ = 0.0;
};

/// Thrown by drivers (run_anytime, campaign cells) when a Deadline expires
/// mid-search. Distinct from Error so isolation layers can label the
/// failure as a timeout rather than a crash.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// A search budget in one of three currencies.
///
///   * kSteps   — engine steps (SE iterations == GA/GSA generations ==
///                tabu/annealing moves == random samples);
///   * kEvals   — evaluator trials (schedule simulations), the honest
///                apples-to-apples currency across engines whose steps do
///                wildly different amounts of work;
///   * kSeconds — wall-clock seconds (the paper's Figures 5-7 regime).
///
/// Budgets are enforced *between* steps: a step is atomic, so an engine may
/// overshoot an eval budget by the trials of its final step.
struct Budget {
  enum class Kind { kSteps, kEvals, kSeconds };

  Kind kind = Kind::kSteps;
  /// kSteps / kEvals count (unused for kSeconds).
  std::size_t count = 0;
  /// kSeconds budget (unused otherwise).
  double wall_seconds = 0.0;

  static Budget steps(std::size_t n);
  static Budget evals(std::size_t n);
  static Budget seconds(double s);

  /// The budget's end coordinate on its own axis (count or seconds).
  double axis_end() const;

  /// Throws sehc::Error unless the budget is positive.
  void validate() const;
};

/// Uniform per-step statistics every engine reports, the same four numbers
/// for every searcher (search/searcher.h fills them in once for all six).
/// Engines with richer per-step data (SE selection sizes and current
/// lengths, GA generation means, GSA temperatures) also record their own
/// trace (see their trace() accessors); this is what run_search and its
/// observers see.
struct StepStats {
  /// 0-based index of the step that just completed.
  std::size_t step = 0;
  /// Best makespan seen so far.
  double best_makespan = 0.0;
  /// Cumulative evaluator trials consumed since init().
  std::size_t evals_used = 0;
  /// Wall-clock seconds since init().
  double elapsed_seconds = 0.0;
};

/// Uniform observer hook: invoked by run_search after every step; return
/// false to stop the run early (a stall rule, a target makespan, ...).
using StepObserver = std::function<bool(const StepStats&)>;

/// The stepwise engine interface, driven by run_search(engine, budget).
/// init() may be called again to restart the engine from scratch with its
/// original seed. A searcher steps for as long as its driver asks: a
/// hand-written `while (!engine.done()) engine.step();` never ends.
class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  /// Stable identifier: the scheduler registry name the engine was built
  /// from ("SE", "GA", ..., "HEFT"; see heuristics/scheduler.h).
  virtual std::string name() const = 0;

  /// Builds the initial state (initial solution / population) from the
  /// engine's seed. Resets step/eval counters and the wall-clock origin.
  virtual void init() = 0;

  /// Executes one unit of work. init() must have been called.
  virtual StepStats step() = 0;

  /// True when the engine has nothing left to do. Only the one-shot
  /// schedulers (search/one_shot.h) ever are; the searchers step until
  /// run_search's budget, observer or deadline stops them.
  virtual bool done() const { return false; }

  virtual double best_makespan() const = 0;
  /// Completed steps since init().
  virtual std::size_t steps_done() const = 0;
  /// Evaluator trials consumed since init().
  virtual std::size_t evals_used() const = 0;
  /// Wall-clock seconds since init().
  virtual double elapsed_seconds() const = 0;
  /// Materializes the best solution found so far as a full schedule.
  virtual Schedule best_schedule() const = 0;
};

/// True once `engine` has consumed `budget` (checked between steps).
bool budget_exhausted(const Budget& budget, const SearchEngine& engine);

/// The x coordinate of `stats` on the budget's axis: completed steps
/// (1-based), cumulative evals, or elapsed seconds.
double budget_axis_value(const Budget& budget, const StepStats& stats);

/// Outcome of a driven search.
struct SearchResult {
  Schedule schedule;
  double best_makespan = 0.0;
  std::size_t steps = 0;
  std::size_t evals = 0;
  double seconds = 0.0;
  /// True when the run was preempted by the driver's Deadline rather than
  /// finishing its budget or stopping on an observer's request (or, for a
  /// one-shot engine, after its single step). The best-so-far fields
  /// above are still valid (init() always produces a complete solution).
  bool timed_out = false;
};

/// The search loop: init(), then step() until the budget is exhausted, the
/// observer returns false, the engine is done (one-shot engines only) or
/// `deadline` expires (checked cooperatively between steps — a step is
/// atomic, so preemption waits for the running step to finish). Invokes
/// `observer` (when set) after each step.
SearchResult run_search(SearchEngine& engine, const Budget& budget,
                        const StepObserver& observer = {},
                        const Deadline& deadline = {});

}  // namespace sehc
