#include "heuristics/scheduler.h"

#include <algorithm>
#include <limits>

#include "heuristics/cpop.h"
#include "heuristics/dls.h"
#include "heuristics/heft.h"
#include "heuristics/level_mappers.h"
#include "heuristics/random_search.h"
#include "search/one_shot.h"

namespace sehc {

namespace {

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

constexpr SchedulerInfo kSchedulers[] = {
    {"SE", 1, nullptr},
    {"GA", 1, nullptr},
    {"GSA", 1, nullptr},
    {"HEFT", 1, &heft_schedule},
    {"CPOP", 1, &cpop_schedule},
    {"DLS", 1, &dls_schedule},
    {"MinMin", 1, &minmin_schedule},
    {"MaxMin", 1, &maxmin_schedule},
    {"MCT", 1, &mct_schedule},
    {"OLB", 1, &olb_schedule},
    // SA, tabu and random search get budgets comparable to SE's move count.
    {"SA", 50, nullptr},
    {"Tabu", 10, nullptr},
    {"Random", 10, nullptr},
};

}  // namespace

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const SchedulerInfo& info : kSchedulers) names.emplace_back(info.name);
  return names;
}

const SchedulerInfo* find_scheduler(const std::string& name) {
  for (const SchedulerInfo& info : kSchedulers) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

SeParams comparison_se_params(std::size_t iterations, std::uint64_t seed,
                              std::size_t y_limit) {
  SeParams p;
  p.max_iterations = iterations;
  p.seed = seed;
  p.y_limit = y_limit;
  // Comparison-suite configuration, matching the figure benches: slightly
  // negative bias measurably dominates the non-negative range in this
  // implementation (see bench/ablation_bias).
  p.bias = -0.1;
  p.record_trace = false;
  return p;
}

GaParams comparison_ga_params(std::size_t generations, std::uint64_t seed) {
  GaParams p;
  p.max_generations = generations;
  p.seed = seed;
  p.record_trace = false;
  return p;
}

GsaParams comparison_gsa_params(std::size_t generations, std::uint64_t seed) {
  GsaParams p;
  p.max_generations = generations;
  p.seed = seed;
  p.record_trace = false;
  return p;
}

TabuParams comparison_tabu_params(std::size_t iterations, std::uint64_t seed) {
  TabuParams p;
  p.iterations = iterations;
  p.seed = seed;
  return p;
}

SaParams comparison_sa_params(std::size_t iterations, std::uint64_t seed) {
  SaParams p;
  p.iterations = iterations;
  p.seed = seed;
  return p;
}

std::unique_ptr<SearchEngine> make_search_engine(const std::string& name,
                                                 const Workload& w,
                                                 const Budget& budget,
                                                 std::uint64_t seed,
                                                 std::size_t se_y_limit) {
  budget.validate();
  const bool steps_mode = budget.kind == Budget::Kind::kSteps;
  const std::size_t step_cap = steps_mode ? budget.count : kUnbounded;

  if (name == "SE") {
    SeParams p = comparison_se_params(step_cap, seed, se_y_limit);
    if (budget.kind == Budget::Kind::kSeconds) {
      p.time_limit_seconds = budget.wall_seconds;
    }
    return std::make_unique<SeEngine>(w, p);
  }
  if (name == "GA") {
    GaParams p = comparison_ga_params(step_cap, seed);
    if (budget.kind == Budget::Kind::kSeconds) {
      p.time_limit_seconds = budget.wall_seconds;
    }
    return std::make_unique<GaEngine>(w, p);
  }
  if (name == "GSA") {
    GsaParams p = comparison_gsa_params(step_cap, seed);
    if (budget.kind == Budget::Kind::kSeconds) {
      p.time_limit_seconds = budget.wall_seconds;
    }
    return std::make_unique<GsaEngine>(w, p);
  }
  if (name == "SA") {
    SaParams p = comparison_sa_params(step_cap, seed);
    // SA's auto cooling ladder divides the step cap by 200; with an
    // unbounded cap the ladder must come from the budget instead: an eval
    // budget maps ~1:1 to moves, a wall-clock budget has no deterministic
    // move count, so a fixed 100-move rung keeps cooling well-defined.
    if (budget.kind == Budget::Kind::kEvals) {
      p.steps_per_temp = std::max<std::size_t>(1, budget.count / 200);
    } else if (budget.kind == Budget::Kind::kSeconds) {
      p.steps_per_temp = 100;
    }
    return std::make_unique<SaEngine>(w, p);
  }
  if (name == "Tabu") {
    return std::make_unique<TabuEngine>(w, comparison_tabu_params(step_cap,
                                                                  seed));
  }
  if (name == "Random") {
    return std::make_unique<RandomSearchEngine>(w, step_cap, seed);
  }
  const SchedulerInfo* info = find_scheduler(name);
  if (info == nullptr) {
    std::string known;
    for (const SchedulerInfo& row : kSchedulers) {
      known += known.empty() ? "" : ", ";
      known += row.name;
    }
    throw Error("make_search_engine: unknown scheduler '" + name +
                "' (expected one of " + known + ")");
  }
  return std::make_unique<OneShotEngine>(info->name, w, info->one_shot);
}

}  // namespace sehc
