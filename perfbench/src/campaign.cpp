// campaign-equal-evals: the paper's equal-effort comparison. One thread;
// run_campaign drives the equal-evals-grid spec (8 classes x SE/GA/GSA/SA/
// Tabu/Random, one shared trial budget, evals-axis curves) at a reduced
// budget into a fresh file-backed store with its metrics sidecar. One op is
// one cell.
#include <bit>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/content_hash.h"
#include "exp/campaign.h"
#include "exp/result_store.h"
#include "exp/sweep.h"
#include "exp/trace_io.h"
#include "core/table.h"
#include "sched/bounds.h"
#include "trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Evaluator trials per cell (the built-in spec's 200k, reduced tenfold).
constexpr std::size_t kEvalBudget = 20000;
constexpr std::size_t kTinyEvalBudget = 500;
/// Cells per --seconds, sized so the timed phase lasts about --seconds on a
/// 4-core x86-64 guest with AVX2. The grid grows in whole repetitions of
/// its 48 (class x engine) cells.
constexpr double kCellsPerSecond = 9.0;

/// A makespan as the store persists it (four decimals), so a recomputed
/// value compares bit for bit with a record.
double stored(double makespan) {
  return sehc::parse_csv_double(sehc::format_fixed(makespan, 4), "makespan");
}

std::size_t eval_budget(const Options& opts) {
  return opts.tiny ? kTinyEvalBudget : kEvalBudget;
}

/// The built-in equal-evals-grid with its own classes; only --tiny shrinks
/// their size (k=16, l=4).
sehc::CampaignSpec make_spec(const Options& opts, std::size_t repetitions,
                             std::uint64_t base_seed) {
  sehc::CampaignSpec spec = sehc::make_builtin_campaign("equal-evals-grid");
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    sehc::WorkloadParams& params = spec.classes[c].params;
    if (opts.tiny) {
      params.tasks = 16;
      params.machines = 4;
    }
    // Only used with one repetition (more derive instance seeds from the
    // grid coordinates); pinned to the workload seed either way.
    params.seed = sehc::derive_seed(base_seed, {c});
  }
  spec.repetitions = repetitions;
  spec.eval_budget = eval_budget(opts);
  spec.base_seed = base_seed;
  return spec;
}

std::size_t repetitions(const Options& opts, std::size_t row_cells) {
  const double cells = opts.seconds * kCellsPerSecond;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(cells / static_cast<double>(row_cells))));
}

struct State {
  std::string dir;
  std::string store_path;
};

/// A fresh store directory plus a warm-up campaign: one cell of every
/// engine on the first class, at the timed budget, in its own store.
State set_up(const Options& opts, const std::string& name) {
  State state;
  state.dir = opts.rundir + "/" + name;
  std::filesystem::remove_all(state.dir);
  std::filesystem::create_directories(state.dir);
  state.store_path = state.dir + "/store.csv";

  sehc::CampaignSpec warm = make_spec(opts, 1, sehc::derive_seed(opts.seed, {7}));
  warm.classes.resize(1);
  sehc::ResultStore warm_store =
      sehc::ResultStore::open(state.dir + "/warmup.csv", warm.store_schema());
  sehc::CampaignRunOptions run;
  run.threads = 1;
  const auto summary = sehc::run_campaign(warm, warm_store, run);
  SEHC_CHECK(summary.failed_cells == 0, "perfbench: warm-up cells failed");
  return state;
}

struct Pass {
  double wall_seconds = 0.0;
  std::vector<double> latency_ms;
  sehc::CampaignRunSummary summary;
  std::vector<sehc::CampaignRecord> records;
};

Pass run_pass(const sehc::CampaignSpec& spec, const State& state) {
  Pass pass;
  sehc::ResultStore store =
      sehc::ResultStore::open(state.store_path, spec.store_schema());
  sehc::CampaignRunOptions run;
  run.threads = 1;
  Clock::time_point last = Clock::now();
  run.progress = [&](std::size_t, std::size_t) {
    const Clock::time_point now = Clock::now();
    pass.latency_ms.push_back(std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
  };
  const Clock::time_point start = Clock::now();
  pass.summary = sehc::run_campaign(spec, store, run);
  pass.wall_seconds = seconds_since(start);
  pass.records = sehc::campaign_records(store);
  return pass;
}

/// The generator parameters of a record's instance.
sehc::WorkloadParams cell_params(const sehc::CampaignSpec& spec,
                                 const sehc::CampaignRecord& rec) {
  sehc::WorkloadParams params;
  for (const auto& c : spec.classes) {
    if (c.name == rec.class_name) params = c.params;
  }
  params.seed = rec.workload_seed;
  return params;
}

sehc::Workload cell_workload(const sehc::CampaignSpec& spec,
                             const sehc::CampaignRecord& rec) {
  return sehc::make_workload(cell_params(spec, rec));
}

/// Re-solves `rec`'s cell outside the campaign; the schedule must be valid
/// and reproduce the record's makespan (at the store's precision) and evals.
void re_solve(const sehc::CampaignSpec& spec, const sehc::CampaignRecord& rec,
              Report& report) {
  const sehc::Workload w = cell_workload(spec, rec);
  Tracer off;
  const sehc::SearchResult again =
      traced_search(off, rec.scheduler, w, sehc::Budget::evals(spec.eval_budget),
                    rec.scheduler_seed);
  const std::string why = check_schedule(w, again.schedule, again.best_makespan);
  if (!why.empty()) report.fail(rec.cell, "re-solve: " + why);
  if (std::bit_cast<std::uint64_t>(stored(again.best_makespan)) !=
          std::bit_cast<std::uint64_t>(rec.makespan) ||
      again.evals != rec.evals) {
    report.fail(rec.cell, "re-solve of " + rec.scheduler + " gave makespan " +
                              json_number(again.best_makespan) + ", record " +
                              json_number(rec.makespan));
  }
}

/// Every cell must be present and not quarantined, spend at least its
/// budget, and land at or above the instance's lower bound. The last cell
/// of each engine is re-solved, after every other cell has run in the
/// process, and must reproduce its record bit for bit. (Each cell also
/// validates its own schedule; an invalid one is quarantined and counted
/// here as a failed op.) Returns the digest of the cells' instances.
std::string check(const Options& opts, const sehc::CampaignSpec& spec, Pass& pass,
                  Report& report) {
  const std::size_t cells = spec.grid().num_cells();
  for (const auto& q : pass.summary.quarantined) {
    report.fail(q.cell, "quarantined: " + q.error);
  }
  if (opts.corrupt_op >= 0) {
    for (auto& rec : pass.records) {
      if (rec.cell == static_cast<std::size_t>(opts.corrupt_op)) {
        rec.makespan = corrupted(rec.makespan);
      }
    }
  }
  std::vector<bool> seen(cells, false);
  std::string inputs;
  for (const auto& rec : pass.records) {
    if (rec.cell >= cells) continue;
    seen[rec.cell] = true;
    if (rec.evals < spec.eval_budget) {
      report.fail(rec.cell, "spent " + std::to_string(rec.evals) +
                                " evals of a " + std::to_string(spec.eval_budget) +
                                " budget");
    }
    const sehc::Workload w = cell_workload(spec, rec);
    inputs += inputs_digest({&w});
    const double lb = sehc::makespan_lower_bound(w);
    if (!(rec.makespan >= lb * (1.0 - 1e-9))) {
      report.fail(rec.cell, "makespan " + json_number(rec.makespan) +
                                " below the lower bound " + json_number(lb));
    }
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (!seen[c]) report.fail(c, "no record");
  }
  std::map<std::string, const sehc::CampaignRecord*> last;
  for (const auto& rec : pass.records) {
    const sehc::CampaignRecord*& slot = last[rec.scheduler];
    if (slot == nullptr || rec.cell > slot->cell) slot = &rec;
  }
  for (const auto& [scheduler, rec] : last) re_solve(spec, *rec, report);
  return bits_digest({static_cast<double>(sehc::content_hash64(inputs))});
}

/// The traced run replays every cell's engine calls directly (the cells
/// themselves run inside run_campaign, out of the spans' reach) and checks
/// each replay against its record bit for bit. Returns the replay's wall
/// seconds.
double replay(const sehc::CampaignSpec& spec, const Pass& pass, Tracer& tracer,
              Report& report, std::map<std::string, std::uint64_t>& evals) {
  const Clock::time_point start = Clock::now();
  for (const auto& rec : pass.records) {
    ScopedSpan op(tracer, "op", static_cast<std::int64_t>(rec.cell));
    sehc::Workload w;
    {
      ScopedSpan gen(tracer, "workload.generate");
      w = cell_workload(spec, rec);
    }
    const sehc::SearchResult r =
        traced_search(tracer, rec.scheduler, w,
                      sehc::Budget::evals(spec.eval_budget), rec.scheduler_seed);
    evals[rec.scheduler] += r.evals;
    {
      ScopedSpan validate(tracer, "sched.validate");
      const std::string why = check_schedule(w, r.schedule, r.best_makespan);
      if (!why.empty()) report.fail(rec.cell, "replay: " + why);
    }
    if (std::bit_cast<std::uint64_t>(stored(r.best_makespan)) !=
            std::bit_cast<std::uint64_t>(rec.makespan) ||
        r.evals != rec.evals) {
      report.fail(rec.cell, "replay differs from the record");
    }
  }
  return seconds_since(start);
}

}  // namespace

Report run_campaign_equal_evals(const Options& opts) {
  Report report;
  EndToEnd e2e;
  const std::size_t row_cells = make_spec(opts, 1, opts.seed).grid().num_cells();
  const sehc::CampaignSpec spec =
      make_spec(opts, repetitions(opts, row_cells), opts.seed);
  const State state = repeated_setup(
      [&](std::size_t i) { return set_up(opts, "campaign-" + std::to_string(i)); },
      e2e.setup_seconds);

  Pass pass = run_pass(spec, state);
  const std::size_t cells = spec.grid().num_cells();
  report.set_attempted(cells);
  const std::string inputs = check(opts, spec, pass, report);
  std::vector<double> makespans;
  for (const auto& rec : pass.records) {
    makespans.push_back(rec.makespan);
    // Trials counted toward each cell's budget: SE's overshoot past it is
    // not work the comparison asked for.
    e2e.evals += static_cast<double>(std::min<std::uint64_t>(rec.evals, spec.eval_budget));
  }
  e2e.wall_seconds = pass.wall_seconds;
  e2e.ops = pass.records.size();
  e2e.latency_ms = pass.latency_ms;
  report.meta("inputs", json_string(inputs));
  report.meta("digest", json_string(bits_digest(makespans)));
  report.meta("cells", std::to_string(cells));
  report.meta("eval_budget", std::to_string(spec.eval_budget));
  report.meta("repetitions", std::to_string(spec.repetitions));

  if (opts.trace) {
    // The same replay untraced, then traced: their rates differ only by
    // the tracing.
    Tracer off;
    std::map<std::string, std::uint64_t> untraced_evals;
    const double untraced_seconds = replay(spec, pass, off, report, untraced_evals);
    Tracer tracer(true);
    std::map<std::string, std::uint64_t> replay_evals;
    const double replay_seconds = replay(spec, pass, tracer, report, replay_evals);
    // Probe the layers on each class's first instance.
    std::vector<sehc::WorkloadParams> probes;
    for (const auto& rec : pass.records) {
      if (rec.repetition == 0 && rec.scheduler == spec.schedulers.front()) {
        probes.push_back(cell_params(spec, rec));
      }
    }
    run_layer_probes(tracer, probes, opts.seed);

    double record_seconds = 0.0;
    for (const auto& rec : pass.records) record_seconds += rec.seconds;
    const double n = static_cast<double>(std::max<std::size_t>(1, pass.records.size()));
    const double untraced_rate = n / untraced_seconds;
    const double traced_rate = n / replay_seconds;
    add_layer_metrics(
        report, tracer,
        {{"exp.cell_overhead_ms", (pass.wall_seconds - record_seconds) / n * 1e3},
         {"exp.failed_cells", static_cast<double>(pass.summary.failed_cells)},
         {"exp.retried_cells", static_cast<double>(pass.summary.retried_cells)},
         {"trace.overhead_ops_per_s", traced_rate - untraced_rate}});
    report.meta("untraced_ops_per_s", json_number(untraced_rate));
    report.meta("traced_ops_per_s", json_number(traced_rate));

    // Cross-check the replay against the campaign's own telemetry: the
    // sidecar's per-engine eval counters, and the record seconds.
    std::map<std::string, std::uint64_t> sidecar_evals;
    for (const auto& row : pass.summary.metrics) {
      const std::string prefix = "engine/";
      const std::string suffix = "/evals";
      if (row.kind == "counter" && row.name.rfind(prefix, 0) == 0 &&
          row.name.size() > prefix.size() + suffix.size() &&
          row.name.compare(row.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        sidecar_evals[row.name.substr(prefix.size(),
                                      row.name.size() - prefix.size() - suffix.size())] +=
            row.count;
      }
    }
    std::ostringstream log;
    log << "replay cross-check: sidecar evals "
        << (sidecar_evals == replay_evals ? "match" : "DIFFER")
        << " the replay; record seconds " << record_seconds
        << " s, untraced replay " << untraced_seconds << " s, traced replay "
        << replay_seconds << " s\n";
    report.log(log.str());
    if (sidecar_evals != replay_evals) {
      report.fail(0, "metrics sidecar eval counts differ from the replay");
    }
    report.log(self_time_table(tracer));
    tracer.write_csv(opts.workdir + "/campaign-equal-evals-seed" +
                     std::to_string(opts.seed) + ".spans.csv");
  } else {
    add_end_to_end(report, e2e);
  }
  return report;
}

}  // namespace perfbench
