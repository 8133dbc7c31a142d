// The scheduler registry: every matching-and-scheduling heuristic in the
// library, built by name as a stepwise SearchEngine (search/engine.h).
//
// The paper's survey references ([4] Braun et al., [5] Topcuoglu et al.)
// motivate the baseline set: list schedulers (HEFT, CPOP, DLS), levelized
// meta-task mappers (min-min, max-min, MCT, OLB) and generic iterative
// search (simulated annealing, tabu, random search) alongside SE and GA.
//
// make_search_engine is the one way to build any of the 13 schedulers.
// The six iterative searchers run under any Budget currency; the seven
// deterministic one-shot schedulers become degenerate single-step
// OneShotEngines (search/one_shot.h), so every harness — campaigns, the
// daemon, the CLI — drives them through the same run_search/run_anytime
// loop as flat baselines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ga/ga.h"
#include "hc/workload.h"
#include "heuristics/annealing.h"
#include "heuristics/gsa.h"
#include "heuristics/tabu.h"
#include "sched/schedule.h"
#include "se/se.h"
#include "search/engine.h"

namespace sehc {

/// One row of the registry.
struct SchedulerInfo {
  /// Stable identifier used in specs, tables and requests ("SE", "HEFT").
  const char* name;
  /// Engine steps per unit of a shared iteration budget: the comparison
  /// suite gives SA 50 moves and Tabu/Random 10 steps per SE iteration or
  /// GA generation; every other scheduler takes 1.
  std::size_t steps_per_iteration;
  /// The plain schedule function of a one-shot scheduler; null for the six
  /// stepwise searchers.
  Schedule (*one_shot)(const Workload&);
};

/// Every registered name, in presentation order (SE, GA, GSA, HEFT, CPOP,
/// DLS, MinMin, MaxMin, MCT, OLB, SA, Tabu, Random).
std::vector<std::string> scheduler_names();

/// The registry row for `name`, or null for an unknown name.
const SchedulerInfo* find_scheduler(const std::string& name);

/// The comparison-suite SE configuration (selection bias, trace flags) —
/// the single source of truth make_search_engine builds SE from.
SeParams comparison_se_params(std::uint64_t seed, std::size_t y_limit = 0);

/// Same for the GA baseline.
GaParams comparison_ga_params(std::uint64_t seed);

/// Same for GSA (paper ref [8]).
GsaParams comparison_gsa_params(std::uint64_t seed);

/// Same for tabu search (tenure 25, 24 samples per iteration).
TabuParams comparison_tabu_params(std::uint64_t seed);

/// Same for simulated annealing, whose cooling ladder is derived from the
/// budget so a run sweeps ~200 temperature levels: max(1, n / 200) moves
/// per level for a step or eval budget of n (one SA move is one trial),
/// and 100 for a wall-clock budget, which has no deterministic move count.
SaParams comparison_sa_params(const Budget& budget, std::uint64_t seed);

/// Builds the engine for any registered scheduler under any budget
/// currency. The six searchers use the comparison-suite parameters
/// (comparison_*_params); the budget itself is enforced by the caller's
/// run_search/run_anytime, and only SA's cooling ladder depends on it. A
/// one-shot scheduler's single step is its whole run under any valid
/// budget. Throws sehc::Error for an invalid budget or an unknown name
/// (the message lists every registered name). `se_y_limit` is SE's Y
/// parameter (paper §4.5, 0 = all machines) and is ignored by every other
/// scheduler.
std::unique_ptr<SearchEngine> make_search_engine(const std::string& name,
                                                 const Workload& w,
                                                 const Budget& budget,
                                                 std::uint64_t seed,
                                                 std::size_t se_y_limit = 0);

}  // namespace sehc
