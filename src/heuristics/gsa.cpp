#include "heuristics/gsa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/stats.h"
#include "dag/topo.h"
#include "ga/operators.h"

namespace sehc {

namespace {

/// First string position where two equal-length solutions differ, or their
/// size when identical (see the GA engine's twin helper).
std::size_t first_difference(const SolutionString& a, const SolutionString& b) {
  const auto sa = a.segments();
  const auto sb = b.segments();
  for (std::size_t pos = 0; pos < sa.size(); ++pos) {
    if (sa[pos] != sb[pos]) return pos;
  }
  return sa.size();
}

}  // namespace

GsaEngine::GsaEngine(const Workload& workload, GsaParams params)
    : workload_(&workload), params_(params), eval_(workload), batch_(eval_) {
  SEHC_CHECK(params_.population >= 2, "GsaEngine: population must be >= 2");
  SEHC_CHECK(params_.cooling > 0.0 && params_.cooling < 1.0,
             "GsaEngine: cooling must be in (0,1)");
  SEHC_CHECK(params_.initial_acceptance > 0.0 &&
                 params_.initial_acceptance < 1.0,
             "GsaEngine: initial_acceptance must be in (0,1)");
}

void GsaEngine::init() {
  const Workload& w = *workload_;
  const TaskGraph& g = w.graph();
  rng_ = Rng(params_.seed);
  eval_.reset_trial_state();
  timer_.reset();

  pop_.clear();
  lengths_.clear();
  pop_.reserve(params_.population);
  lengths_.reserve(params_.population);
  for (std::size_t i = 0; i < params_.population; ++i) {
    std::vector<MachineId> assignment(w.num_tasks());
    for (auto& m : assignment)
      m = static_cast<MachineId>(rng_.below(w.num_machines()));
    auto order = random_topological_order(g, rng_);
    SEHC_CHECK(order.has_value(), "GsaEngine: cyclic graph");
    pop_.emplace_back(*order, assignment);
    lengths_.push_back(eval_.makespan(pop_.back()));
  }

  const auto best_it = std::min_element(lengths_.begin(), lengths_.end());
  best_makespan_ = *best_it;
  best_solution_ = pop_[static_cast<std::size_t>(best_it - lengths_.begin())];

  // Calibrate T0 so a typical population-spread delta is accepted with the
  // configured probability.
  const Accumulator spread = summarize(lengths_);
  const double typical_delta = std::max(spread.stddev(), 1e-9);
  temperature_ = -typical_delta / std::log(params_.initial_acceptance);

  generation_ = 0;
  trace_.clear();
  initialized_ = true;
}

StepStats GsaEngine::step() {
  SEHC_CHECK(initialized_, "GsaEngine: init() not called");
  const Workload& w = *workload_;
  const TaskGraph& g = w.graph();

  // A mutation-only child differs from its parent only from its first
  // changed position on: prepare the parent and evaluate the child's suffix
  // through the batched kernel. Evaluation consumes no RNG, so results stay
  // bit-identical to full re-evaluation.
  auto suffix_makespan = [&](const SolutionString& child, std::size_t parent) {
    const std::size_t from = first_difference(child, pop_[parent]);
    if (from == child.size()) return lengths_[parent];  // mutation was a no-op
    eval_.prepare(pop_[parent]);
    batch_.begin_prepared(pop_[parent]);
    batch_.add_string(child, from);
    return batch_.evaluate(std::numeric_limits<double>::infinity()).front();
  };

  std::size_t accepted = 0;
  std::size_t offspring = 0;
  // One Metropolis-mediated mating per pair slot per generation.
  for (std::size_t slot = 0; slot + 1 < pop_.size(); slot += 2) {
    const std::size_t ia = rng_.index(pop_.size());
    const std::size_t ib = rng_.index(pop_.size());
    SolutionString& ca = child_a_;
    SolutionString& cb = child_b_;
    const bool crossed = rng_.chance(params_.crossover_prob);
    if (crossed) {
      crossover(pop_[ia], pop_[ib], rng_, ca, cb);
    } else {
      ca = pop_[ia];
      cb = pop_[ib];
    }
    bool mutated_a = false;
    bool mutated_b = false;
    if (rng_.chance(params_.mutation_prob)) {
      mutated_a = true;
      matching_mutation(ca, w.num_machines(), rng_);
      scheduling_mutation(ca, g, rng_);
    }
    if (rng_.chance(params_.mutation_prob)) {
      mutated_b = true;
      matching_mutation(cb, w.num_machines(), rng_);
      scheduling_mutation(cb, g, rng_);
    }
    // Untouched children are verbatim clones of their source parent:
    // reuse the cached length. Mutation-only children differ from their
    // parent in a suffix only: evaluate via the prepared snapshots.
    // Crossover children are re-simulated in full. Lengths are read
    // before either Metropolis test can overwrite a population slot.
    const double len_a = crossed    ? eval_.makespan(ca)
                         : mutated_a ? suffix_makespan(ca, ia)
                                     : lengths_[ia];
    const double len_b = crossed    ? eval_.makespan(cb)
                         : mutated_b ? suffix_makespan(cb, ib)
                                     : lengths_[ib];

    // Metropolis survivor test: child vs the parent in its slot. An
    // accepted child is swapped in, and the child buffer takes the old
    // parent's storage for the next mating.
    auto metropolis = [&](SolutionString& child, double child_len,
                          std::size_t parent_idx) {
      ++offspring;
      const double delta = child_len - lengths_[parent_idx];
      const bool accept =
          delta <= 0.0 ||
          (temperature_ > 0.0 &&
           rng_.uniform() < std::exp(-delta / temperature_));
      if (!accept) return;
      ++accepted;
      std::swap(pop_[parent_idx], child);
      lengths_[parent_idx] = child_len;
      if (child_len < best_makespan_) {
        best_makespan_ = child_len;
        best_solution_ = pop_[parent_idx];
      }
    };
    metropolis(ca, len_a, ia);
    metropolis(cb, len_b, ib);
  }

  temperature_ *= params_.cooling;

  GsaIterationStats stats;
  stats.generation = generation_;
  stats.best_makespan = best_makespan_;
  stats.temperature = temperature_;
  stats.accept_rate =
      offspring == 0 ? 0.0
                     : static_cast<double>(accepted) /
                           static_cast<double>(offspring);
  stats.elapsed_seconds = timer_.seconds();
  if (params_.record_trace) trace_.push_back(stats);
  ++generation_;

  StepStats out;
  out.step = generation_ - 1;
  out.current_makespan = best_makespan_;
  out.best_makespan = best_makespan_;
  out.evals_used = eval_.trial_count();
  out.elapsed_seconds = stats.elapsed_seconds;
  return out;
}

Schedule GsaEngine::best_schedule() const {
  SEHC_CHECK(initialized_, "GsaEngine: init() not called");
  return Schedule::from_solution(*workload_, best_solution_);
}

}  // namespace sehc
