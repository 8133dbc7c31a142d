// Differential suite for the incremental trial-evaluation engine.
//
// Every optimization in the engine (rolling checkpoints, exact pruning, the
// CSR hot path, the prepared per-position snapshots) claims BIT-IDENTICAL
// results to a naive full re-evaluation. This file checks them against the
// independent naive reference in naive_reference.h — the pre-engine
// evaluation loop with its in_edges() -> edge(d) double indirection — and
// asserts equality of makespans, schedules, per-iteration statistics, and
// RNG stream positions (i.e. tie-break sampling behavior) across randomized
// workloads drawn from all workload classes and y_limit settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/rng.h"
#include "core/stats.h"
#include "dag/topo.h"
#include "ga/ga.h"
#include "ga/operators.h"
#include "heuristics/annealing.h"
#include "heuristics/gsa.h"
#include "heuristics/tabu.h"
#include "naive_reference.h"
#include "se/allocation.h"
#include "se/se.h"
#include "string_ops_reference.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The pre-engine allocation step: full suffix re-simulation from range.lo
/// for every (position, machine) combination, no checkpoint rolling, no
/// pruning. Identical RNG usage to allocate_tasks.
AllocationStats reference_allocate(const Workload& w,
                                   const MachineCandidates& candidates,
                                   const std::vector<TaskId>& selected,
                                   SolutionString& s, Rng& rng) {
  AllocationStats stats;
  const TaskGraph& g = w.graph();
  for (TaskId t : selected) {
    const std::size_t original_pos = s.position_of(t);
    const MachineId original_machine = s.machine_of(t);
    double best_len = kInf;
    std::size_t best_pos = original_pos;
    MachineId best_machine = original_machine;
    std::size_t ties = 0;
    const ValidRange range = s.valid_range(g, t);
    for (std::size_t pos = range.lo; pos <= range.hi; ++pos) {
      s.move_task(t, pos);
      for (MachineId m : candidates.of(t)) {
        s.set_machine(t, m);
        const double len = naive_makespan(w, s);
        ++stats.combinations_tried;
        if (len < best_len) {
          best_len = len;
          best_pos = pos;
          best_machine = m;
          ties = 1;
        } else if (len == best_len) {
          ++ties;
          if (rng.below(ties) == 0) {
            best_pos = pos;
            best_machine = m;
          }
        }
      }
      s.set_machine(t, original_machine);
    }
    s.move_task(t, best_pos);
    s.set_machine(t, best_machine);
    if (best_pos != original_pos || best_machine != original_machine) {
      ++stats.tasks_moved;
    }
  }
  return stats;
}

std::vector<WorkloadParams> workload_classes() {
  std::vector<WorkloadParams> out;
  for (Level conn : {Level::kLow, Level::kMedium, Level::kHigh}) {
    for (double ccr : {0.1, 1.0}) {
      WorkloadParams p;
      p.tasks = 28;
      p.machines = 5;
      p.connectivity = conn;
      p.heterogeneity = conn == Level::kMedium ? Level::kHigh : Level::kLow;
      p.ccr = ccr;
      out.push_back(p);
    }
  }
  WorkloadParams consistent;
  consistent.tasks = 30;
  consistent.machines = 6;
  consistent.consistency = Consistency::kConsistent;
  out.push_back(consistent);
  return out;
}

TEST(IncrementalEval, EvaluateMatchesNaiveBitForBit) {
  for (WorkloadParams p : workload_classes()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      p.seed = seed;
      const Workload w = make_workload(p);
      Evaluator eval(w);
      Rng rng(seed * 17 + 3);
      for (int i = 0; i < 4; ++i) {
        const SolutionString s =
            random_initial_solution(w.graph(), w.num_machines(), rng);
        const ScheduleTimes got = eval.evaluate(s);
        const ScheduleTimes want = naive_evaluate(w, s);
        ASSERT_EQ(got.makespan, want.makespan) << p.describe();
        ASSERT_EQ(eval.makespan(s), want.makespan) << p.describe();
        for (TaskId t = 0; t < w.num_tasks(); ++t) {
          ASSERT_EQ(got.start[t], want.start[t]);
          ASSERT_EQ(got.finish[t], want.finish[t]);
        }
      }
    }
  }
}

TEST(IncrementalEval, RollingCheckpointTrialsMatchNaive) {
  // Replay the allocation enumeration for every task: roll the checkpoint
  // forward position by position and check each (position, machine) trial
  // against a from-scratch naive evaluation of the very same string.
  for (WorkloadParams p : workload_classes()) {
    p.seed = 11;
    const Workload w = make_workload(p);
    const TaskGraph& g = w.graph();
    Evaluator eval(w);
    Rng rng(29);
    SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    for (TaskId t = 0; t < w.num_tasks(); t += 5) {
      const std::size_t original_pos = s.position_of(t);
      const MachineId original_machine = s.machine_of(t);
      const ValidRange range = s.valid_range(g, t);
      eval.begin_trials(s, range.lo);
      s.move_task(t, range.lo);
      for (std::size_t pos = range.lo;; ++pos) {
        ASSERT_EQ(eval.checkpoint_prefix(), pos);
        for (MachineId m = 0; m < w.num_machines(); ++m) {
          s.set_machine(t, m);
          ASSERT_EQ(eval.trial_makespan(s, kInf), naive_makespan(w, s))
              << p.describe() << " t=" << t << " pos=" << pos;
        }
        s.set_machine(t, original_machine);
        if (pos == range.hi) break;
        s.move_task(t, pos + 1);
        eval.extend_checkpoint(s);
      }
      s.move_task(t, original_pos);
    }
  }
}

TEST(IncrementalEval, PrunedTrialsAreExactUpToTheBound) {
  WorkloadParams p;
  p.tasks = 30;
  p.machines = 5;
  p.connectivity = Level::kHigh;
  p.ccr = 1.0;
  p.seed = 7;
  const Workload w = make_workload(p);
  Evaluator eval(w);
  Rng rng(41);
  SolutionString s =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  const TaskId t = 4;
  const ValidRange range = s.valid_range(w.graph(), t);
  eval.begin_trials(s, range.lo);
  s.move_task(t, range.lo);
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    s.set_machine(t, m);
    const double exact = naive_makespan(w, s);
    // A bound at, above, and far above the exact value returns it exactly
    // (strict pruning keeps ties distinguishable)...
    ASSERT_EQ(eval.trial_makespan(s, exact), exact);
    ASSERT_EQ(eval.trial_makespan(s, exact * 2), exact);
    ASSERT_EQ(eval.trial_makespan(s, kInf), exact);
    // ...while a bound strictly below it prunes to +infinity.
    ASSERT_EQ(eval.trial_makespan(s, exact * 0.5), kInf);
    ASSERT_EQ(eval.trial_makespan(s, std::nextafter(exact, 0.0)), kInf);
  }
}

TEST(IncrementalEval, PreparedTrialsMatchNaiveUnderRandomSingleMoves) {
  for (WorkloadParams p : workload_classes()) {
    p.seed = 23;
    const Workload w = make_workload(p);
    const TaskGraph& g = w.graph();
    Evaluator eval(w);
    Rng rng(57);
    SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    eval.prepare(s);
    for (int trial = 0; trial < 200; ++trial) {
      const TaskId t = static_cast<TaskId>(rng.below(w.num_tasks()));
      const std::size_t old_pos = s.position_of(t);
      const MachineId old_machine = s.machine_of(t);
      const ValidRange range = s.valid_range(g, t);
      const std::size_t new_pos =
          range.lo + static_cast<std::size_t>(rng.below(range.size()));
      const MachineId new_machine =
          static_cast<MachineId>(rng.below(w.num_machines()));
      s.move_task(t, new_pos);
      s.set_machine(t, new_machine);
      const std::size_t from = std::min(old_pos, new_pos);
      const double exact = naive_makespan(w, s);
      ASSERT_EQ(eval.prepared_trial(s, from, kInf), exact) << p.describe();
      ASSERT_EQ(eval.prepared_trial(s, from, exact), exact);
      if (exact > 0.0) {
        ASSERT_EQ(eval.prepared_trial(s, from, std::nextafter(exact, 0.0)),
                  kInf);
      }
      if (trial % 3 == 0) {
        // Commit the move: the refreshed snapshots must stay exact. A trial
        // of the unchanged string from any position reads exactly one
        // snapshot row, so sweeping every start position checks every row.
        eval.refresh_from(s, from);
        for (std::size_t at = 0; at <= s.size(); ++at) {
          ASSERT_EQ(eval.prepared_trial(s, at, kInf), exact)
              << p.describe() << " trial=" << trial << " at=" << at;
        }
      } else {
        s.move_task(t, old_pos);
        s.set_machine(t, old_machine);
      }
    }
  }
}

TEST(IncrementalEval, AllocationMatchesReferenceIncludingTieStatistics) {
  for (WorkloadParams p : workload_classes()) {
    for (std::uint64_t seed : {1u, 5u}) {
      for (std::size_t y : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        p.seed = seed;
        const Workload w = make_workload(p);
        Evaluator eval(w);
        Evaluator::TrialBatch batch(eval);
        const MachineCandidates candidates(w, y);
        std::vector<TaskId> all(w.num_tasks());
        for (TaskId t = 0; t < w.num_tasks(); ++t) all[t] = t;

        Rng init(seed * 3 + 1);
        const SolutionString base =
            random_initial_solution(w.graph(), w.num_machines(), init);

        SolutionString got = base;
        SolutionString want = base;
        Rng rng_got(seed + 100), rng_want(seed + 100);
        const AllocationStats stats_got =
            allocate_tasks(w, eval, candidates, all, got, rng_got, batch);
        const AllocationStats stats_want =
            reference_allocate(w, candidates, all, want, rng_want);

        ASSERT_EQ(got, want) << p.describe() << " y=" << y;
        ASSERT_EQ(stats_got.tasks_moved, stats_want.tasks_moved);
        ASSERT_EQ(stats_got.combinations_tried, stats_want.combinations_tried);
        // Identical reservoir sampling implies identical RNG positions: the
        // next draw from both streams must coincide.
        ASSERT_EQ(rng_got.bits(), rng_want.bits());
      }
    }
  }
}

/// Pre-engine tabu search: full naive evaluation per sampled move.
double reference_tabu_best(const Workload& w, const TabuParams& params,
                           std::size_t iterations) {
  Rng rng(params.seed);
  const TaskGraph& g = w.graph();
  SolutionString current =
      random_initial_solution(g, w.num_machines(), rng);
  double best_len = naive_makespan(w, current);
  std::vector<double> expiry(
      w.num_tasks() * w.num_tasks() * w.num_machines(), 0.0);
  auto idx = [&](TaskId t, std::size_t pos, MachineId m) {
    return (t * w.num_tasks() + pos) * w.num_machines() + m;
  };
  for (std::size_t iteration = 0; iteration < iterations; ++iteration) {
    TaskId chosen_task = kInvalidTask;
    std::size_t chosen_pos = 0;
    MachineId chosen_machine = 0;
    std::size_t rev_pos = 0;
    MachineId rev_machine = 0;
    double chosen_len = kInf;
    for (std::size_t sample = 0; sample < params.samples; ++sample) {
      const TaskId t = static_cast<TaskId>(rng.below(w.num_tasks()));
      const ValidRange range = current.valid_range(g, t);
      const std::size_t old_pos = current.position_of(t);
      const MachineId old_machine = current.machine_of(t);
      const std::size_t pos =
          range.lo + static_cast<std::size_t>(rng.below(range.size()));
      const MachineId m = static_cast<MachineId>(rng.below(w.num_machines()));
      current.move_task(t, pos);
      current.set_machine(t, m);
      const double len = naive_makespan(w, current);
      current.move_task(t, old_pos);
      current.set_machine(t, old_machine);
      const bool aspirates = len < best_len;
      if (!aspirates &&
          expiry[idx(t, pos, m)] > static_cast<double>(iteration)) {
        continue;
      }
      if (len < chosen_len) {
        chosen_len = len;
        chosen_task = t;
        chosen_pos = pos;
        chosen_machine = m;
        rev_pos = old_pos;
        rev_machine = old_machine;
      }
    }
    if (chosen_task == kInvalidTask) continue;
    current.move_task(chosen_task, chosen_pos);
    current.set_machine(chosen_task, chosen_machine);
    expiry[idx(chosen_task, rev_pos, rev_machine)] =
        static_cast<double>(iteration + params.tenure);
    if (chosen_len < best_len) best_len = chosen_len;
  }
  return best_len;
}

TEST(IncrementalEval, TabuMatchesNaiveReference) {
  for (WorkloadParams p : workload_classes()) {
    p.seed = 13;
    const Workload w = make_workload(p);
    TabuParams tp;
    tp.samples = 10;
    tp.seed = 99;
    TabuEngine engine(w, tp);
    const SearchResult got = run_search(engine, Budget::steps(60));
    ASSERT_EQ(got.best_makespan, reference_tabu_best(w, tp, 60))
        << p.describe();
  }
}

/// Pre-engine simulated annealing: in-place random move + full naive
/// evaluation. RNG draw order matches SaEngine exactly.
double reference_anneal_best(const Workload& w, const SaParams& params,
                             std::size_t iterations) {
  Rng rng(params.seed);
  const TaskGraph& g = w.graph();
  SolutionString current =
      random_initial_solution(g, w.num_machines(), rng);
  double current_len = naive_makespan(w, current);
  double best_len = current_len;

  struct Undo {
    TaskId task;
    std::size_t old_pos;
    MachineId old_machine;
  };
  auto random_move = [&](SolutionString& s) {
    const TaskId t = static_cast<TaskId>(rng.below(s.size()));
    const Undo undo{t, s.position_of(t), s.machine_of(t)};
    const ValidRange range = s.valid_range(g, t);
    s.move_task(t, range.lo + static_cast<std::size_t>(
                                  rng.below(range.size())));
    if (rng.chance(0.5)) {
      s.set_machine(t, static_cast<MachineId>(rng.below(w.num_machines())));
    }
    return undo;
  };
  auto undo_move = [&](SolutionString& s, const Undo& u) {
    s.move_task(u.task, u.old_pos);
    s.set_machine(u.task, u.old_machine);
  };

  double mean_uphill = 0.0;
  std::size_t uphill_count = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const Undo undo = random_move(current);
    const double len = naive_makespan(w, current);
    if (len > current_len) {
      mean_uphill += len - current_len;
      ++uphill_count;
    }
    undo_move(current, undo);
  }
  if (uphill_count > 0) mean_uphill /= static_cast<double>(uphill_count);
  double temperature =
      mean_uphill > 0.0 ? -mean_uphill / std::log(0.8) : 1.0;

  std::size_t since_cool = 0;
  for (std::size_t iteration = 0; iteration < iterations; ++iteration) {
    const Undo undo = random_move(current);
    const double len = naive_makespan(w, current);
    const double delta = len - current_len;
    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng.uniform() < std::exp(-delta / temperature));
    if (accept) {
      current_len = len;
      if (len < best_len) best_len = len;
    } else {
      undo_move(current, undo);
    }
    if (++since_cool >= params.steps_per_temp) {
      since_cool = 0;
      temperature *= params.cooling;
    }
  }
  return best_len;
}

TEST(IncrementalEval, AnnealingMatchesNaiveReference) {
  for (WorkloadParams p : workload_classes()) {
    p.seed = 31;
    const Workload w = make_workload(p);
    SaParams ap;
    ap.steps_per_temp = 2;  // ~200 temperature levels over 400 moves
    ap.seed = 77;
    SaEngine engine(w, ap);
    const SearchResult got = run_search(engine, Budget::steps(400));
    ASSERT_EQ(got.best_makespan, reference_anneal_best(w, ap, 400))
        << p.describe();
  }
}

/// Pre-engine GA: the same generational loop with every chromosome fully
/// re-evaluated by the naive evaluator each generation — no cached lengths
/// for elites/clones, no prepared-snapshot suffix evaluation for
/// mutation-only children, and the two separate crossovers of
/// string_ops_reference.h instead of the fused one. RNG draw order matches
/// GaEngine exactly (evaluation consumes no randomness).
double reference_ga_best(const Workload& w, const GaParams& params,
                         std::size_t generations) {
  const TaskGraph& g = w.graph();
  Rng rng(params.seed);

  auto roulette = [](const std::vector<double>& lengths, double worst,
                     Rng& r) {
    const double eps = worst > 0.0 ? 1e-3 * worst : 1e-9;
    double total = 0.0;
    for (double len : lengths) total += (worst - len) + eps;
    double spin = r.uniform() * total;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      spin -= (worst - lengths[i]) + eps;
      if (spin <= 0.0) return i;
    }
    return lengths.size() - 1;
  };

  std::vector<SolutionString> pop;
  pop.reserve(params.population);
  for (std::size_t i = 0; i < params.population; ++i) {
    std::vector<MachineId> assignment(w.num_tasks());
    for (auto& m : assignment)
      m = static_cast<MachineId>(rng.below(w.num_machines()));
    auto order = random_topological_order(g, rng);
    pop.emplace_back(*order, assignment);
  }
  std::vector<double> lengths(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i)
    lengths[i] = naive_makespan(w, pop[i]);

  double best = *std::min_element(lengths.begin(), lengths.end());
  for (std::size_t generation = 0; generation < generations; ++generation) {
    std::vector<std::size_t> rank(pop.size());
    std::iota(rank.begin(), rank.end(), 0);
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
      return lengths[a] < lengths[b];
    });
    const double worst = lengths[rank.back()];

    std::vector<SolutionString> next;
    next.reserve(pop.size());
    for (std::size_t e = 0; e < params.elite; ++e) next.push_back(pop[rank[e]]);
    while (next.size() < pop.size()) {
      const std::size_t ia = roulette(lengths, worst, rng);
      const std::size_t ib = roulette(lengths, worst, rng);
      SolutionString ca = pop[ia];
      SolutionString cb = pop[ib];
      if (rng.chance(params.crossover_prob)) {
        std::tie(ca, cb) = reference::scheduling_crossover(pop[ia], pop[ib], rng);
        std::tie(ca, cb) = reference::matching_crossover(ca, cb, rng);
      }
      if (rng.chance(params.mutation_prob)) {
        matching_mutation(ca, w.num_machines(), rng);
        scheduling_mutation(ca, g, rng);
      }
      if (rng.chance(params.mutation_prob)) {
        matching_mutation(cb, w.num_machines(), rng);
        scheduling_mutation(cb, g, rng);
      }
      next.push_back(std::move(ca));
      if (next.size() < pop.size()) next.push_back(std::move(cb));
    }
    pop = std::move(next);
    for (std::size_t i = 0; i < pop.size(); ++i)
      lengths[i] = naive_makespan(w, pop[i]);
    best = std::min(best, *std::min_element(lengths.begin(), lengths.end()));
  }
  return best;
}

TEST(IncrementalEval, GaMatchesNaiveReference) {
  for (WorkloadParams p : workload_classes()) {
    p.seed = 17;
    const Workload w = make_workload(p);
    GaParams gp;
    gp.population = 16;
    // High mutation with moderate crossover exercises the mutation-only
    // suffix-evaluation path (prepared per-parent snapshots) heavily.
    gp.crossover_prob = 0.5;
    gp.mutation_prob = 0.5;
    gp.seed = 23;
    gp.record_trace = false;
    GaEngine engine(w, gp);
    const SearchResult got = run_search(engine, Budget::steps(25));
    ASSERT_EQ(got.best_makespan, reference_ga_best(w, gp, 25)) << p.describe();
  }
}

/// Pre-engine GSA: the same Metropolis-mediated generational loop with
/// every touched child evaluated by the naive evaluator (no cached clone
/// lengths, no prepared-parent suffix evaluation) and crossed by the two
/// separate crossovers of string_ops_reference.h.
double reference_gsa_best(const Workload& w, const GsaParams& params,
                          std::size_t generations) {
  const TaskGraph& g = w.graph();
  Rng rng(params.seed);

  std::vector<SolutionString> pop;
  std::vector<double> lengths;
  for (std::size_t i = 0; i < params.population; ++i) {
    std::vector<MachineId> assignment(w.num_tasks());
    for (auto& m : assignment)
      m = static_cast<MachineId>(rng.below(w.num_machines()));
    auto order = random_topological_order(g, rng);
    pop.emplace_back(*order, assignment);
    lengths.push_back(naive_makespan(w, pop.back()));
  }
  double best = *std::min_element(lengths.begin(), lengths.end());

  const Accumulator spread = summarize(lengths);
  const double typical_delta = std::max(spread.stddev(), 1e-9);
  double temperature = -typical_delta / std::log(params.initial_acceptance);

  for (std::size_t generation = 0; generation < generations; ++generation) {
    for (std::size_t slot = 0; slot + 1 < pop.size(); slot += 2) {
      const std::size_t ia = rng.index(pop.size());
      const std::size_t ib = rng.index(pop.size());
      SolutionString ca = pop[ia];
      SolutionString cb = pop[ib];
      const bool crossed = rng.chance(params.crossover_prob);
      if (crossed) {
        std::tie(ca, cb) = reference::scheduling_crossover(pop[ia], pop[ib], rng);
        std::tie(ca, cb) = reference::matching_crossover(ca, cb, rng);
      }
      bool touched_a = crossed;
      bool touched_b = crossed;
      if (rng.chance(params.mutation_prob)) {
        touched_a = true;
        matching_mutation(ca, w.num_machines(), rng);
        scheduling_mutation(ca, g, rng);
      }
      if (rng.chance(params.mutation_prob)) {
        touched_b = true;
        matching_mutation(cb, w.num_machines(), rng);
        scheduling_mutation(cb, g, rng);
      }
      const double len_a = touched_a ? naive_makespan(w, ca) : lengths[ia];
      const double len_b = touched_b ? naive_makespan(w, cb) : lengths[ib];

      auto metropolis = [&](SolutionString&& child, double child_len,
                            std::size_t parent_idx) {
        const double delta = child_len - lengths[parent_idx];
        const bool accept =
            delta <= 0.0 ||
            (temperature > 0.0 &&
             rng.uniform() < std::exp(-delta / temperature));
        if (!accept) return;
        pop[parent_idx] = std::move(child);
        lengths[parent_idx] = child_len;
        best = std::min(best, child_len);
      };
      metropolis(std::move(ca), len_a, ia);
      metropolis(std::move(cb), len_b, ib);
    }
    temperature *= params.cooling;
  }
  return best;
}

TEST(IncrementalEval, GsaMatchesNaiveReference) {
  for (WorkloadParams p : workload_classes()) {
    p.seed = 19;
    const Workload w = make_workload(p);
    GsaParams gp;
    gp.population = 16;
    gp.crossover_prob = 0.5;   // leaves room for mutation-only children
    gp.mutation_prob = 0.5;
    gp.seed = 29;
    gp.record_trace = false;
    GsaEngine engine(w, gp);
    const SearchResult got = run_search(engine, Budget::steps(25));
    ASSERT_EQ(got.best_makespan, reference_gsa_best(w, gp, 25)) << p.describe();
  }
}

}  // namespace
}  // namespace sehc
