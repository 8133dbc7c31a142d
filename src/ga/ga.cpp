#include "ga/ga.h"

#include <algorithm>
#include <numeric>

#include "dag/topo.h"
#include "ga/operators.h"

namespace sehc {

GaEngine::GaEngine(const Workload& workload, GaParams params)
    : workload_(&workload), params_(params), eval_(workload), batch_(eval_) {
  SEHC_CHECK(params_.population >= 2, "GaEngine: population must be >= 2");
  SEHC_CHECK(params_.elite < params_.population,
             "GaEngine: elite must be < population");
  SEHC_CHECK(params_.crossover_prob >= 0.0 && params_.crossover_prob <= 1.0,
             "GaEngine: crossover_prob in [0,1]");
  SEHC_CHECK(params_.mutation_prob >= 0.0 && params_.mutation_prob <= 1.0,
             "GaEngine: mutation_prob in [0,1]");
}

namespace {

/// First string position where two equal-length solutions differ (task or
/// machine), or their size when identical. A mutation-only child differs
/// from its parent only at positions >= this, so the evaluator's prepared
/// per-parent snapshots apply (suffix-only re-evaluation, bit-identical).
std::size_t first_difference(const SolutionString& a, const SolutionString& b) {
  const auto sa = a.segments();
  const auto sb = b.segments();
  for (std::size_t pos = 0; pos < sa.size(); ++pos) {
    if (sa[pos] != sb[pos]) return pos;
  }
  return sa.size();
}

/// Roulette-wheel pick: probability proportional to (worst - len) + eps.
std::size_t roulette(const std::vector<double>& lengths, double worst,
                     Rng& rng) {
  // eps keeps even the worst chromosome selectable (Wang et al. require a
  // strictly positive fitness for every individual).
  const double eps = worst > 0.0 ? 1e-3 * worst : 1e-9;
  double total = 0.0;
  for (double len : lengths) total += (worst - len) + eps;
  double spin = rng.uniform() * total;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    spin -= (worst - lengths[i]) + eps;
    if (spin <= 0.0) return i;
  }
  return lengths.size() - 1;
}

}  // namespace

void GaEngine::init() {
  const Workload& w = *workload_;
  const TaskGraph& g = w.graph();
  rng_ = Rng(params_.seed);
  eval_.reset_trial_state();
  timer_.reset();

  // Initial population: random assignment + random topological order.
  pop_.clear();
  pop_.reserve(params_.population);
  for (std::size_t i = 0; i < params_.population; ++i) {
    std::vector<MachineId> assignment(w.num_tasks());
    for (auto& m : assignment)
      m = static_cast<MachineId>(rng_.below(w.num_machines()));
    auto order = random_topological_order(g, rng_);
    SEHC_CHECK(order.has_value(), "GaEngine: cyclic graph");
    pop_.emplace_back(*order, assignment);
  }

  lengths_.assign(pop_.size(), 0.0);
  for (std::size_t i = 0; i < pop_.size(); ++i)
    lengths_[i] = eval_.makespan(pop_[i]);

  const auto best_it = std::min_element(lengths_.begin(), lengths_.end());
  best_makespan_ = *best_it;
  best_solution_ = pop_[static_cast<std::size_t>(best_it - lengths_.begin())];

  generation_ = 0;
  stall_ = 0;
  stop_requested_ = false;
  trace_.clear();
  initialized_ = true;
}

bool GaEngine::done() const {
  SEHC_CHECK(initialized_, "GaEngine: init() not called");
  return stop_requested_ || generation_ >= params_.max_generations ||
         (params_.stall_generations > 0 &&
          stall_ >= params_.stall_generations) ||
         timer_.seconds() >= params_.time_limit_seconds;
}

StepStats GaEngine::step() {
  SEHC_CHECK(initialized_, "GaEngine: init() not called");
  const Workload& w = *workload_;
  const TaskGraph& g = w.graph();

  // Rank indices by length for elitism.
  std::vector<std::size_t> rank(pop_.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    return lengths_[a] < lengths_[b];
  });
  const double worst = lengths_[rank.back()];

  // Incremental evaluation: elites and untouched clones keep their cached
  // lengths; crossover children are re-simulated in full; mutation-only
  // children are evaluated from their first difference with the parent
  // via the evaluator's prepared per-parent snapshots (grouped by parent
  // so each parent is prepared once). All three paths are bit-identical
  // to full re-evaluation.
  //
  // The next generation is built in next_, whose strings (the generation
  // before last) are overwritten in place, then swapped with pop_.
  constexpr std::uint8_t kClean = 0, kFull = 1, kSuffix = 2;
  const std::size_t n = pop_.size();
  next_.resize(n);
  next_lengths_.assign(n, 0.0);
  std::vector<std::uint8_t> next_dirty(n, kClean);
  std::vector<std::size_t> next_parent(n, 0);  // meaningful for kSuffix only
  std::size_t filled = 0;
  for (std::size_t e = 0; e < params_.elite; ++e, ++filled) {
    next_[filled] = pop_[rank[e]];
    next_lengths_[filled] = lengths_[rank[e]];
    next_parent[filled] = rank[e];
  }

  while (filled < n) {
    const std::size_t ia = roulette(lengths_, worst, rng_);
    const std::size_t ib = roulette(lengths_, worst, rng_);
    const SolutionString& pa = pop_[ia];
    const SolutionString& pb = pop_[ib];
    // The last slot of an odd fill has room for one child; the other is
    // still built (its mutation draws are part of the stream) in spare_.
    const bool room_for_b = filled + 1 < n;
    SolutionString& ca = next_[filled];
    SolutionString& cb = room_for_b ? next_[filled + 1] : spare_;
    const bool crossed = rng_.chance(params_.crossover_prob);
    if (crossed) {
      crossover(pa, pb, rng_, ca, cb);
    } else {
      ca = pa;
      cb = pb;
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
    next_lengths_[filled] = crossed || mutated_a ? 0.0 : lengths_[ia];
    next_dirty[filled] = crossed ? kFull : mutated_a ? kSuffix : kClean;
    next_parent[filled] = ia;
    ++filled;
    if (room_for_b) {
      next_lengths_[filled] = crossed || mutated_b ? 0.0 : lengths_[ib];
      next_dirty[filled] = crossed ? kFull : mutated_b ? kSuffix : kClean;
      next_parent[filled] = ib;
      ++filled;
    }
  }

  if (params_.verify_invariants) {
    for (const auto& chrom : next_) {
      SEHC_ASSERT_MSG(chrom.is_valid(g),
                      "GA generation produced an invalid chromosome");
    }
  }

  // Evaluate before the parents are replaced. Suffix evaluations are
  // grouped by parent: the parent is prepared once and its mutation-only
  // children form one TrialBatch on top of that prepared state. Evaluation
  // consumes no RNG, so the grouping does not perturb the stream, and the
  // batch is bit-identical to per-child prepared trials.
  for (std::size_t i = 0; i < next_.size(); ++i) {
    if (next_dirty[i] == kFull) next_lengths_[i] = eval_.makespan(next_[i]);
  }
  std::vector<std::size_t> suffix_children;
  for (std::size_t i = 0; i < next_.size(); ++i) {
    if (next_dirty[i] == kSuffix) suffix_children.push_back(i);
  }
  std::stable_sort(suffix_children.begin(), suffix_children.end(),
                   [&](std::size_t a, std::size_t b) {
                     return next_parent[a] < next_parent[b];
                   });
  std::vector<std::size_t> batched;  // children pending in batch_, in order
  for (std::size_t g = 0; g < suffix_children.size();) {
    const std::size_t parent = next_parent[suffix_children[g]];
    std::size_t g_end = g;
    while (g_end < suffix_children.size() &&
           next_parent[suffix_children[g_end]] == parent) {
      ++g_end;
    }
    batched.clear();
    for (std::size_t j = g; j < g_end; ++j) {
      const std::size_t i = suffix_children[j];
      const std::size_t from = first_difference(next_[i], pop_[parent]);
      if (from == next_[i].size()) {
        next_lengths_[i] = lengths_[parent];  // mutation was a no-op
        continue;
      }
      if (batched.empty()) {
        // Prepare lazily: a group of no-op mutations needs no state.
        eval_.prepare(pop_[parent]);
        batch_.begin_prepared(pop_[parent]);
      }
      batch_.add_string(next_[i], from);
      batched.push_back(i);
    }
    if (!batched.empty()) {
      const std::vector<double>& lens =
          batch_.evaluate(std::numeric_limits<double>::infinity());
      for (std::size_t j = 0; j < batched.size(); ++j) {
        next_lengths_[batched[j]] = lens[j];
      }
    }
    g = g_end;
  }

  pop_.swap(next_);
  lengths_.swap(next_lengths_);
  const auto best_it = std::min_element(lengths_.begin(), lengths_.end());
  const double gen_best = *best_it;
  const double gen_mean =
      std::accumulate(lengths_.begin(), lengths_.end(), 0.0) /
      static_cast<double>(lengths_.size());
  if (gen_best < best_makespan_) {
    best_makespan_ = gen_best;
    best_solution_ = pop_[static_cast<std::size_t>(best_it - lengths_.begin())];
    stall_ = 0;
  } else {
    ++stall_;
  }

  GaIterationStats stats;
  stats.generation = generation_;
  stats.best_makespan = best_makespan_;
  stats.gen_best_makespan = gen_best;
  stats.gen_mean_makespan = gen_mean;
  stats.elapsed_seconds = timer_.seconds();
  if (params_.record_trace) trace_.push_back(stats);
  ++generation_;
  if (observer_ && !observer_(stats)) stop_requested_ = true;

  StepStats out;
  out.step = generation_ - 1;
  out.current_makespan = gen_best;
  out.best_makespan = best_makespan_;
  out.evals_used = eval_.trial_count();
  out.elapsed_seconds = stats.elapsed_seconds;
  return out;
}

Schedule GaEngine::best_schedule() const {
  SEHC_CHECK(initialized_, "GaEngine: init() not called");
  return Schedule::from_solution(*workload_, best_solution_);
}

GaResult GaEngine::run() {
  init();
  while (!done()) step();
  GaResult result;
  result.best_solution = best_solution_;
  result.best_makespan = best_makespan_;
  result.trace = std::move(trace_);
  trace_.clear();
  result.generations = generation_;
  result.seconds = timer_.seconds();
  result.schedule = Schedule::from_solution(*workload_, result.best_solution);
  return result;
}

}  // namespace sehc
