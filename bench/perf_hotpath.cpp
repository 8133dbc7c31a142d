// Hot-path throughput benchmark for the incremental trial-evaluation
// engine, and the start of the repo's performance trajectory.
//
// Two measurements per paper-scale workload class (k ~ 90-100 tasks, the
// sizes behind the paper's Figures 3-7):
//
//   * trials/sec of the SE allocation enumeration, under two engines that
//     produce bit-identical placements:
//       - "baseline": the pre-engine implementation — every (position,
//         machine) trial re-simulates the whole suffix from the bottom of
//         the task's valid range through the graph's in_edges() -> edge(d)
//         double indirection, with no checkpoint rolling and no pruning
//         (NaiveTrialEvaluator, the differential tests' naive reference in
//         tests/naive_reference.h);
//       - "incremental": rolling checkpoints + exact pruning + the CSR hot
//         path — the scalar reference trial loop;
//       - "batch_trials": the SoA sweep — allocate_tasks() driving
//         Evaluator::TrialBatch with the scalar strip loops forced;
//       - "simd_trials": the shipped hot path — the same sweep under the
//         SIMD strip kernel selected by --kernel=auto|scalar|simd (default:
//         the SEHC_KERNEL env override, then runtime CPU detection). All
//         four modes must commit bit-identical final strings (asserted per
//         pass on the final makespans) and identical pruned-lane counts;
//         --check-overhead TOL fails the run when the batch falls below
//         (1 - TOL) x the scalar incremental throughput or the SIMD strips
//         fall below (1 - TOL) x the scalar strips.
//   * time-to-target: wall seconds until a full SeEngine run first reaches
//     a makespan within 5% of its final best (read off the recorded trace).
//
// The search loop's own cost is not measured here: perfbench's per-layer
// search.driver_frac reads it from inside real campaign cells.
//
// Results go to stdout (human table) and to a JSON file (--out, default
// BENCH_hotpath.json) that CI uploads as an artifact, so future PRs can
// compare against the committed baseline.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/rng.h"
#include "core/timer.h"
#include "naive_reference.h"
#include "obs/metrics.h"
#include "sched/simd.h"
#include "se/allocation.h"
#include "se/se.h"
#include "workload/generator.h"

namespace {

using namespace sehc;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ClassSpec {
  const char* name;
  WorkloadParams params;
};

std::vector<ClassSpec> paper_scale_classes() {
  std::vector<ClassSpec> out;
  {
    WorkloadParams p;
    p.tasks = 100;
    p.machines = 20;
    p.connectivity = Level::kHigh;
    p.heterogeneity = Level::kMedium;
    p.ccr = 1.0;
    p.seed = 5;
    out.push_back({"high_connectivity_ccr1", p});
  }
  {
    WorkloadParams p;
    p.tasks = 90;
    p.machines = 20;
    p.connectivity = Level::kLow;
    p.heterogeneity = Level::kHigh;
    p.ccr = 0.1;
    p.seed = 9;
    out.push_back({"low_connectivity_high_het", p});
  }
  {
    WorkloadParams p;
    p.tasks = 100;
    p.machines = 20;
    p.connectivity = Level::kMedium;
    p.heterogeneity = Level::kMedium;
    p.ccr = 0.5;
    p.seed = 13;
    out.push_back({"medium_everything", p});
  }
  return out;
}

/// One full allocation pass over every task, in the given engine mode.
/// Returns the number of (position, machine) combinations simulated.
/// Both modes commit identical placements.
template <bool Incremental, typename Eval>
std::size_t allocation_pass(const Workload& w, Eval& eval,
                            const MachineCandidates& candidates,
                            SolutionString& s, Rng& rng) {
  const TaskGraph& g = w.graph();
  std::size_t combinations = 0;
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    const std::size_t original_pos = s.position_of(t);
    const MachineId original_machine = s.machine_of(t);
    double best_len = kInf;
    std::size_t best_pos = original_pos;
    MachineId best_machine = original_machine;
    std::size_t ties = 0;
    const ValidRange range = s.valid_range(g, t);
    eval.begin_trials(s, range.lo);
    s.move_task(t, range.lo);
    for (std::size_t pos = range.lo;; ++pos) {
      for (MachineId m : candidates.of(t)) {
        s.set_machine(t, m);
        double len;
        if constexpr (Incremental) {
          len = eval.trial_makespan(s, best_len);
        } else {
          len = eval.trial_makespan(s);
        }
        ++combinations;
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
      if (pos == range.hi) break;
      s.move_task(t, pos + 1);
      if constexpr (Incremental) eval.extend_checkpoint(s);
    }
    s.move_task(t, best_pos);
    s.set_machine(t, best_machine);
  }
  return combinations;
}

struct ThroughputResult {
  std::size_t trials = 0;
  double seconds = 0.0;
  double trials_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
  }
};

template <bool Incremental, typename Eval>
ThroughputResult measure_throughput(const Workload& w, std::size_t passes,
                                    std::vector<double>& finals) {
  Eval eval(w);
  Evaluator check(w);  // finals audited with one shared evaluator type
  const MachineCandidates candidates(w, 0);
  ThroughputResult out;
  for (std::size_t rep = 0; rep < passes; ++rep) {
    // Fresh deterministic starting point per pass; every engine mode sees
    // the same sequence of strings (their commits are bit-identical).
    Rng rng(1000 + rep);
    SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    WallTimer timer;
    out.trials +=
        allocation_pass<Incremental>(w, eval, candidates, s, rng);
    out.seconds += timer.seconds();
    finals.push_back(check.makespan(s));
  }
  return out;
}

/// The shipped hot path: allocate_tasks() driving Evaluator::TrialBatch over
/// every task (one SoA sweep per trial position), under the given strip
/// kernel. Must commit strings bit-identical to the scalar passes above.
ThroughputResult measure_batch_throughput(
    const Workload& w, std::size_t passes, KernelChoice kernel,
    std::vector<double>& finals,
    Evaluator::TrialBatch::BatchMetrics& metrics) {
  Evaluator eval(w);
  Evaluator check(w);
  Evaluator::TrialBatch batch(eval);
  batch.set_kernel(kernel);
  const MachineCandidates candidates(w, 0);
  std::vector<TaskId> all_tasks(w.num_tasks());
  std::iota(all_tasks.begin(), all_tasks.end(), TaskId{0});
  ThroughputResult out;
  for (std::size_t rep = 0; rep < passes; ++rep) {
    Rng rng(1000 + rep);
    SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    WallTimer timer;
    out.trials +=
        allocate_tasks(w, eval, candidates, all_tasks, s, rng, batch)
            .combinations_tried;
    out.seconds += timer.seconds();
    finals.push_back(check.makespan(s));
  }
  metrics = batch.metrics();
  return out;
}

struct TargetResult {
  double best = 0.0;
  double total_seconds = 0.0;
  double time_to_target = 0.0;  // first time best <= 1.05 * final best
  std::size_t iterations = 0;
};

TargetResult measure_time_to_target(const Workload& w, std::size_t iters) {
  SeParams sp;
  sp.seed = 3;
  SeEngine engine(w, sp);
  const SearchResult r = run_search(engine, Budget::steps(iters));
  TargetResult out;
  out.best = r.best_makespan;
  out.total_seconds = r.seconds;
  out.iterations = r.steps;
  const double target = 1.05 * r.best_makespan;
  out.time_to_target = r.seconds;
  for (const SeIterationStats& it : engine.trace()) {
    if (it.best_makespan <= target) {
      out.time_to_target = it.elapsed_seconds;
      break;
    }
  }
  return out;
}

int run(int argc, char** argv) {
  const Options opts(argc, argv,
                     {"passes", "iters", "out", "check-overhead", "kernel"});
  const auto passes =
      static_cast<std::size_t>(opts.get_int("passes", static_cast<std::int64_t>(scaled(6, 1))));
  const auto iters =
      static_cast<std::size_t>(opts.get_int("iters", static_cast<std::int64_t>(scaled(60, 3))));
  const std::string out_path = opts.get("out", "BENCH_hotpath.json");
  // Ambient registry for the run: every run_search() call inside the
  // measurements records its engine spans/counters here, and the merged
  // snapshot lands at the bottom of the JSON artifact.
  MetricsRegistry registry;
  const MetricsScope metrics_scope(&registry);
  // --check-overhead TOL: fail (exit 1) when the batch kernel falls more
  // than TOL below the scalar incremental loop, or the SIMD strips more
  // than TOL below the scalar strips, on any class (CI smoke passes a loose
  // bound to absorb runner noise on its tiny budgets).
  const bool check_overhead = opts.has("check-overhead");
  const double overhead_tol = opts.get_double("check-overhead", 0.05);
  // --kernel=auto|scalar|simd selects the strip kernel of the simd_trials
  // measurement (and overrides the SEHC_KERNEL env default). batch_trials
  // always forces the scalar strips so the pair isolates exactly the SIMD
  // gain; everything else in the process (the SE run behind time-to-target)
  // rides the env default like any other consumer.
  KernelChoice kernel_choice = kernel_choice_from_env();
  if (opts.has("kernel")) {
    const std::string flag = opts.get("kernel", "auto");
    const std::optional<KernelChoice> parsed = parse_kernel_choice(flag);
    if (!parsed) {
      std::fprintf(stderr, "--kernel must be one of auto|scalar|simd\n");
      return 1;
    }
    kernel_choice = *parsed;
  }
  const SimdKernel simd_kernel = resolve_kernel(kernel_choice);

  std::printf("=== perf_hotpath: SE allocation trials/sec, pre-engine baseline "
              "vs incremental engine vs SoA trial batch (scalar + %s strips) "
              "(%zu passes, %zu SE iterations) ===\n\n",
              kernel_name(simd_kernel), passes, iters);

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"perf_hotpath\",\n");
  std::fprintf(json, "  \"unit\": \"trials_per_sec\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\",\n", kernel_name(simd_kernel));
  std::fprintf(json, "  \"passes\": %zu,\n  \"se_iterations\": %zu,\n",
               passes, iters);
  std::fprintf(json, "  \"results\": [\n");

  const auto classes = paper_scale_classes();
  bool first = true;
  bool checks_ok = true;
  for (const ClassSpec& spec : classes) {
    const Workload w = make_workload(spec.params);
    std::vector<double> naive_finals, inc_finals, batch_finals, simd_finals;
    const ThroughputResult naive =
        measure_throughput<false, NaiveTrialEvaluator>(w, passes, naive_finals);
    const ThroughputResult inc =
        measure_throughput<true, Evaluator>(w, passes, inc_finals);
    Evaluator::TrialBatch::BatchMetrics batch_metrics;
    const ThroughputResult batch = measure_batch_throughput(
        w, passes, KernelChoice::kScalar, batch_finals, batch_metrics);
    Evaluator::TrialBatch::BatchMetrics simd_metrics;
    const ThroughputResult simd = measure_batch_throughput(
        w, passes, kernel_choice, simd_finals, simd_metrics);
    const TargetResult target = measure_time_to_target(w, iters);
    const double speedup = naive.trials_per_sec() > 0.0
                               ? inc.trials_per_sec() / naive.trials_per_sec()
                               : 0.0;
    const double batch_speedup =
        inc.trials_per_sec() > 0.0
            ? batch.trials_per_sec() / inc.trials_per_sec()
            : 0.0;
    const double simd_speedup =
        batch.trials_per_sec() > 0.0
            ? simd.trials_per_sec() / batch.trials_per_sec()
            : 0.0;
    if (naive_finals != inc_finals || inc_finals != batch_finals ||
        batch_finals != simd_finals || naive.trials != inc.trials ||
        inc.trials != batch.trials || batch.trials != simd.trials ||
        batch_metrics.pruned != simd_metrics.pruned) {
      // All four modes run the identical allocation policy from identical
      // seeds; any divergence in committed strings, trial counts or pruned
      // lanes is a correctness bug, not noise.
      std::fprintf(stderr,
                   "trial modes diverged on %s: per-pass final makespans, "
                   "trial counts or pruned counts differ across "
                   "baseline/incremental/batch/simd\n",
                   spec.name);
      checks_ok = false;
    }
    if (check_overhead && batch_speedup < 1.0 - overhead_tol) {
      // The batch kernel exists to be faster; falling below the scalar
      // incremental loop means a regression in the SoA sweep.
      std::fprintf(stderr,
                   "batch_trials: batch kernel at %.3fx of scalar "
                   "incremental on %s (tolerance %.0f%%)\n",
                   batch_speedup, spec.name, overhead_tol * 100.0);
      checks_ok = false;
    }
    if (check_overhead && simd_speedup < 1.0 - overhead_tol) {
      // The SIMD strips run the same sweep; they must never fall below the
      // scalar strips (when the CPU has no vector unit the two coincide).
      std::fprintf(stderr,
                   "simd_trials: %s strips at %.3fx of scalar strips on %s "
                   "(tolerance %.0f%%)\n",
                   kernel_name(simd_kernel), simd_speedup, spec.name,
                   overhead_tol * 100.0);
      checks_ok = false;
    }

    std::printf("%-28s k=%zu l=%zu\n", spec.name, w.num_tasks(),
                w.num_machines());
    std::printf("  baseline    %12.0f trials/sec (%zu trials, %.3fs)\n",
                naive.trials_per_sec(), naive.trials, naive.seconds);
    std::printf("  incremental %12.0f trials/sec (%zu trials, %.3fs)\n",
                inc.trials_per_sec(), inc.trials, inc.seconds);
    std::printf("  batch       %12.0f trials/sec (%zu trials, %.3fs)\n",
                batch.trials_per_sec(), batch.trials, batch.seconds);
    std::printf("  simd (%s) %10.0f trials/sec (%zu trials, %.3fs)\n",
                kernel_name(simd_kernel), simd.trials_per_sec(), simd.trials,
                simd.seconds);
    const double pruned_rate =
        batch_metrics.trials > 0
            ? static_cast<double>(batch_metrics.pruned) /
                  static_cast<double>(batch_metrics.trials)
            : 0.0;
    std::printf("  batch sizes %12llu batches, p50=%llu max=%llu, "
                "pruned=%.3f\n",
                static_cast<unsigned long long>(batch_metrics.batches),
                static_cast<unsigned long long>(
                    batch_metrics.batch_sizes.quantile(0.50)),
                static_cast<unsigned long long>(batch_metrics.max_batch),
                pruned_rate);
    std::printf("  speedup     %12.2fx incremental/baseline, %.2fx "
                "batch/incremental, %.2fx simd/batch\n",
                speedup, batch_speedup, simd_speedup);
    std::printf("  SE run      best=%.2f in %.3fs; within 5%% after "
                "%.3fs\n\n",
                target.best, target.total_seconds, target.time_to_target);

    if (!first) std::fprintf(json, ",\n");
    first = false;
    std::fprintf(json, "    {\n");
    std::fprintf(json, "      \"workload\": \"%s\",\n", spec.name);
    std::fprintf(json, "      \"tasks\": %zu,\n      \"machines\": %zu,\n",
                 w.num_tasks(), w.num_machines());
    std::fprintf(json, "      \"baseline_trials_per_sec\": %.1f,\n",
                 naive.trials_per_sec());
    std::fprintf(json, "      \"incremental_trials_per_sec\": %.1f,\n",
                 inc.trials_per_sec());
    std::fprintf(json, "      \"speedup\": %.3f,\n", speedup);
    std::fprintf(json, "      \"batch_trials\": {\n");
    std::fprintf(json, "        \"trials_per_sec\": %.1f,\n",
                 batch.trials_per_sec());
    std::fprintf(json, "        \"speedup_vs_incremental\": %.3f,\n",
                 batch_speedup);
    std::fprintf(json, "        \"batches\": %llu,\n",
                 static_cast<unsigned long long>(batch_metrics.batches));
    std::fprintf(json, "        \"batch_size_p50\": %llu,\n",
                 static_cast<unsigned long long>(
                     batch_metrics.batch_sizes.quantile(0.50)));
    std::fprintf(json, "        \"batch_size_max\": %llu,\n",
                 static_cast<unsigned long long>(batch_metrics.max_batch));
    std::fprintf(json, "        \"pruned_rate\": %.4f\n", pruned_rate);
    std::fprintf(json, "      },\n");
    std::fprintf(json, "      \"simd_trials\": {\n");
    std::fprintf(json, "        \"kernel\": \"%s\",\n",
                 kernel_name(simd_kernel));
    std::fprintf(json, "        \"trials_per_sec\": %.1f,\n",
                 simd.trials_per_sec());
    std::fprintf(json, "        \"speedup_vs_batch\": %.3f\n", simd_speedup);
    std::fprintf(json, "      },\n");
    std::fprintf(json, "      \"trials\": %zu,\n", inc.trials);
    std::fprintf(json, "      \"se_best_makespan\": %.17g,\n", target.best);
    std::fprintf(json, "      \"se_seconds\": %.4f,\n", target.total_seconds);
    std::fprintf(json, "      \"se_time_to_5pct_seconds\": %.4f\n",
                 target.time_to_target);
    std::fprintf(json, "    }");
  }
  std::fprintf(json, "\n  ],\n");
  // The run's merged observability snapshot: engine step/eval/improvement
  // counters and per-engine spans from every run_search() the measurements
  // drove. Counts are deterministic; the phases' ms values are wall-clock.
  std::fprintf(json, "  \"metrics\":\n%s\n}\n",
               registry.snapshot().to_json(2).c_str());
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());
  if (!checks_ok) {
    std::fprintf(stderr, "perf_hotpath check FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
