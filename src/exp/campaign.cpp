#include "exp/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/error.h"
#include "core/options.h"
#include "core/table.h"
#include "core/timer.h"
#include "exp/anytime.h"
#include "heuristics/scheduler.h"
#include "obs/phase.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {

namespace {

/// The record columns of a campaign store; `seconds` is the one volatile
/// (wall-clock) column and always comes last.
const std::vector<std::string>& campaign_columns() {
  static const std::vector<std::string> columns{
      "class",        "scheduler",  "rep",
      "workload_seed", "scheduler_seed", "makespan",
      "lower_bound",  "evals",      "curve",
      "seconds"};
  return columns;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

}  // namespace

SweepGrid CampaignSpec::grid() const {
  return SweepGrid({{"class", classes.size()},
                    {"rep", repetitions},
                    {"scheduler", schedulers.size()}});
}

std::string CampaignSpec::canonical_string() const {
  std::ostringstream os;
  os << "campaign-spec v1\n";
  os << "name=" << name << '\n';
  os << "base_seed=" << base_seed << '\n';
  os << "repetitions=" << repetitions << '\n';
  os << "iterations=" << iterations << '\n';
  os << "time_budget=" << format_fixed(time_budget_seconds, 6) << '\n';
  // Appended only when set so pre-eval-budget spec hashes are unchanged.
  if (eval_budget > 0) os << "eval_budget=" << eval_budget << '\n';
  os << "curve_points=" << curve_points << '\n';
  os << "schedulers=" << join(schedulers, ',') << '\n';
  for (const CampaignClass& c : classes) {
    const WorkloadParams& p = c.params;
    os << "class=" << c.name << "|tasks=" << p.tasks
       << "|machines=" << p.machines << "|conn=" << to_string(p.connectivity)
       << "|het=" << to_string(p.heterogeneity)
       << "|cons=" << to_string(p.consistency)
       << "|ccr=" << format_fixed(p.ccr, 6)
       << "|mean_exec=" << format_fixed(p.mean_exec, 6)
       << "|seed=" << p.seed << '\n';
  }
  return os.str();
}

std::uint64_t CampaignSpec::hash() const {
  return content_hash64(canonical_string());
}

StoreSchema CampaignSpec::store_schema() const {
  StoreSchema schema;
  schema.kind = "campaign";
  schema.spec_hash = hash();
  std::ostringstream line;
  // budget_s echoes the same 6-decimal form canonical_string() hashes, so
  // the analysis layer's grid reconstruction from this line is exact to
  // spec identity (two budgets equal at 6 decimals ARE the same spec).
  line << "name=" << name << " classes=" << classes.size()
       << " schedulers=" << join(schedulers, ';')
       << " reps=" << repetitions << " iters=" << iterations
       << " budget_s=" << format_fixed(time_budget_seconds, 6);
  // Echoed only when set, so spec lines (and the reports that print them)
  // of pre-eval-budget specs are byte-identical. The analysis layer's grid
  // reconstruction keys on this token for the evals axis.
  if (eval_budget > 0) line << " evals=" << eval_budget;
  line << " curve_points=" << curve_points << " base_seed=" << base_seed;
  schema.spec_line = line.str();
  schema.columns = campaign_columns();
  schema.volatile_columns = 1;  // seconds
  return schema;
}

void CampaignSpec::validate() const {
  SEHC_CHECK(!classes.empty(), "CampaignSpec: no workload classes");
  SEHC_CHECK(!schedulers.empty(), "CampaignSpec: no schedulers");
  SEHC_CHECK(repetitions > 0, "CampaignSpec: repetitions must be >= 1");
  SEHC_CHECK(iterations > 0 || time_budget_seconds > 0.0 || eval_budget > 0,
             "CampaignSpec: need an iteration, time or eval budget");
  SEHC_CHECK(time_budget_seconds >= 0.0,
             "CampaignSpec: time budget must be >= 0");
  SEHC_CHECK(time_budget_seconds == 0.0 || eval_budget == 0,
             "CampaignSpec: time and eval budgets are mutually exclusive");

  std::vector<std::string> seen;
  for (const std::string& s : schedulers) {
    SEHC_CHECK(find_scheduler(s) != nullptr,
               "CampaignSpec: unknown scheduler '" + s + "'");
    SEHC_CHECK(std::find(seen.begin(), seen.end(), s) == seen.end(),
               "CampaignSpec: duplicate scheduler '" + s + "'");
    seen.push_back(s);
  }

  std::vector<std::string> class_names;
  for (const CampaignClass& c : classes) {
    SEHC_CHECK(!c.name.empty(), "CampaignSpec: class with empty name");
    SEHC_CHECK(c.name.find('\n') == std::string::npos,
               "CampaignSpec: class name must be a single line");
    SEHC_CHECK(std::find(class_names.begin(), class_names.end(), c.name) ==
                   class_names.end(),
               "CampaignSpec: duplicate class name '" + c.name + "'");
    class_names.push_back(c.name);
  }
}

std::vector<std::size_t> ShardPlan::cells(std::size_t num_cells) const {
  validate();
  std::vector<std::size_t> owned;
  owned.reserve(num_cells / count + 1);
  for (std::size_t c = index; c < num_cells; c += count) owned.push_back(c);
  return owned;
}

void ShardPlan::validate() const {
  SEHC_CHECK(count >= 1, "ShardPlan: count must be >= 1");
  SEHC_CHECK(index < count, "ShardPlan: index must be < count");
}

std::optional<ShardPlan> ShardPlan::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto index = parse_whole<std::size_t>(text.substr(0, slash));
  const auto count = parse_whole<std::size_t>(text.substr(slash + 1));
  if (!index || !count || *index >= *count) return std::nullopt;
  return ShardPlan{*index, *count};
}

StoreRow CampaignRecord::to_row() const {
  std::vector<std::string> curve_parts;
  curve_parts.reserve(curve.size());
  for (const double v : curve) curve_parts.push_back(format_fixed(v, 4));
  StoreRow row;
  row.cell = cell;
  row.fields = {class_name,
                scheduler,
                std::to_string(repetition),
                std::to_string(workload_seed),
                std::to_string(scheduler_seed),
                format_fixed(makespan, 4),
                format_fixed(lower_bound, 4),
                std::to_string(evals),
                join(curve_parts, ';'),
                format_fixed(seconds, 6)};
  return row;
}

CampaignRecord CampaignRecord::from_row(const StoreRow& row) {
  // Shard stores carry every column; canonical stores (write_canonical /
  // `sehc_campaign merge` output) drop the trailing volatile `seconds`
  // column. Accept both widths so the analysis layer reads merged
  // canonical tables directly.
  const std::size_t full = campaign_columns().size();
  SEHC_CHECK(row.fields.size() == full || row.fields.size() == full - 1,
             "CampaignRecord: row has " + std::to_string(row.fields.size()) +
                 " fields, expected " + std::to_string(full) +
                 " (shard store) or " + std::to_string(full - 1) +
                 " (canonical store)");
  const std::string ctx = "CampaignRecord";
  CampaignRecord rec;
  rec.cell = row.cell;
  rec.class_name = row.fields[0];
  rec.scheduler = row.fields[1];
  rec.repetition = static_cast<std::size_t>(parse_csv_u64(row.fields[2], ctx));
  rec.workload_seed = parse_csv_u64(row.fields[3], ctx);
  rec.scheduler_seed = parse_csv_u64(row.fields[4], ctx);
  rec.makespan = parse_csv_double(row.fields[5], ctx);
  rec.lower_bound = parse_csv_double(row.fields[6], ctx);
  rec.evals = parse_csv_u64(row.fields[7], ctx);
  const std::string& curve = row.fields[8];
  std::string::size_type pos = 0;
  while (pos < curve.size()) {
    auto sep = curve.find(';', pos);
    if (sep == std::string::npos) sep = curve.size();
    rec.curve.push_back(parse_csv_double(curve.substr(pos, sep - pos), ctx));
    pos = sep + 1;
  }
  rec.seconds =
      row.fields.size() == full ? parse_csv_double(row.fields[9], ctx) : 0.0;
  return rec;
}

namespace {

/// Clears the process-global torn-write hook when a chaos run unwinds.
struct TornHookGuard {
  bool active = false;
  ~TornHookGuard() {
    if (active) set_torn_write_hook({});
  }
};

}  // namespace

CampaignRunSummary run_store_grid(
    const SweepGrid& grid, ResultStore& store, const CampaignRunOptions& options,
    std::uint64_t base_seed,
    const std::function<std::vector<std::string>(const SweepCell&,
                                                 const CellContext&)>& row_fn) {
  options.shard.validate();
  SEHC_CHECK(options.cell_timeout_seconds >= 0.0,
             "run_store_grid: cell timeout must be >= 0");
  WallTimer timer;

  CampaignRunSummary summary;
  summary.total_cells = grid.num_cells();
  const std::vector<std::size_t> owned =
      options.shard.cells(summary.total_cells);
  summary.shard_cells = owned.size();

  std::vector<std::size_t> pending;
  pending.reserve(owned.size());
  for (const std::size_t cell : owned) {
    if (!store.contains(cell)) pending.push_back(cell);
  }
  summary.resumed_cells = summary.shard_cells - pending.size();
  if (options.max_cells > 0 && pending.size() > options.max_cells) {
    pending.resize(options.max_cells);
  }

  TornHookGuard torn_guard;
  if (options.fault_plan.has_torn_write()) {
    const FaultPlan plan = options.fault_plan;
    set_torn_write_hook(
        [plan](std::size_t cell) { return plan.torn_write(cell); });
    torn_guard.active = true;
  }

  std::string quarantine_path = options.quarantine_path;
  if (quarantine_path.empty() && !store.path().empty()) {
    quarantine_path = default_quarantine_path(store.path());
  }
  QuarantineLog quarantine(quarantine_path);
  std::string metrics_path = options.metrics_path;
  if (metrics_path.empty() && !store.path().empty()) {
    metrics_path = default_metrics_path(store.path());
  }
  MetricsSidecarLog metrics_log(metrics_path, store.schema().spec_hash);
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> retried{0};

  SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  sweep_options.base_seed = base_seed;
  if (options.progress || options.progress_quarantined) {
    sweep_options.progress = [&](std::size_t done, std::size_t total) {
      if (options.progress) options.progress(done, total);
      if (options.progress_quarantined) {
        options.progress_quarantined(done, total, failed.load());
      }
    };
  }
  const std::size_t attempts = options.cell_retries + 1;
  sweep_for_each(grid, pending, sweep_options, [&](const SweepCell& cell) {
    // Each cell records into its own registry, installed as the thread's
    // ambient sink so the engine layer's run_search counters land here.
    // Deterministic fields of the snapshot are pure functions of
    // (spec, cell, fault plan) — a retried cell that succeeds reports the
    // same counts as a first-try success plus the extra "cell" span visits.
    MetricsRegistry cell_metrics;
    const MetricsScope metrics_scope(&cell_metrics);
    std::string last_error;
    std::optional<StoreRow> row;
    for (std::size_t attempt = 0; attempt < attempts && !row; ++attempt) {
      CellContext ctx;
      ctx.attempt = attempt;
      if (options.cell_timeout_seconds > 0.0) {
        ctx.deadline = Deadline::after(options.cell_timeout_seconds);
      }
      try {
        // One span per attempt: a throwing attempt still records its visit
        // (SpanScope closes during unwinding), so quarantined cells keep
        // their attempt spans in the sidecar.
        SpanScope cell_span(&cell_metrics, "cell");
        apply_cell_fault(options.fault_plan, cell.index, attempt,
                         ctx.deadline);
        row = StoreRow{cell.index, row_fn(cell, ctx)};
        if (attempt > 0) retried.fetch_add(1);
      } catch (const std::exception& e) {
        // Fail-fast mode: rethrow immediately; the sweep layer attaches the
        // cell's coordinates before propagating to the caller.
        if (options.strict) throw;
        last_error = e.what();
      }
      if (!row && attempt + 1 < attempts && options.retry_backoff_ms > 0) {
        // Deterministic exponential backoff: base * 2^attempt ms. Timing
        // never feeds results (cell seeds are coordinate-derived), so the
        // sleep only spaces out retries against transient contention.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            options.retry_backoff_ms << attempt));
      }
    }
    if (!row) {
      QuarantineRecord record;
      record.cell = cell.index;
      record.coords = describe_coords(grid, cell.coords);
      if (options.cell_label) record.label = options.cell_label(cell);
      record.attempts = attempts;
      record.error = last_error;
      quarantine.append(std::move(record));
      failed.fetch_add(1);
    }
    // The metrics rows go down before the store row: a resume reruns every
    // cell the store lacks, so a kill between the two writes loses nothing.
    // A failed store write fails the run; it is not the cell's fault.
    metrics_log.append(cell.index, cell_metrics.snapshot());
    if (row) store.append(std::move(*row));
  });

  quarantine.finalize();
  metrics_log.finalize();
  summary.failed_cells = failed.load();
  summary.retried_cells = retried.load();
  summary.executed_cells = pending.size() - summary.failed_cells;
  summary.quarantined = quarantine.sorted_records();
  summary.quarantine_path = quarantine.path();
  summary.metrics = metrics_log.sorted_rows();
  summary.metrics_path = metrics_log.path();
  summary.seconds = timer.seconds();
  return summary;
}

namespace {

/// Executes one campaign cell and returns its record. Every scheduler runs
/// as the engine make_search_engine builds, through the generic anytime
/// driver — the same loop for iteration, eval and wall-clock budgets, so
/// curve capture never changes a makespan bit. An iteration budget gives
/// each engine its registry share (SE/GA/GSA and the one-shots: iterations
/// steps; SA/tabu/random: the suite's x50/x10 scalings), so the shared grid
/// of a step-budget spec reads as equal budget fractions.
CampaignRecord run_campaign_cell(const CampaignSpec& spec,
                                 const SweepCell& cell,
                                 const CellContext& ctx) {
  const std::size_t class_idx = cell.at(0);
  const std::size_t rep = cell.at(1);
  const std::string& scheduler_name = spec.schedulers[cell.at(2)];

  CampaignRecord rec;
  rec.cell = cell.index;
  rec.class_name = spec.classes[class_idx].name;
  rec.scheduler = scheduler_name;
  rec.repetition = rep;
  rec.scheduler_seed = cell.seed;

  WorkloadParams params = spec.classes[class_idx].params;
  // One repetition keeps the class's pinned instance (paper figures); more
  // repetitions derive every instance seed from the (class, rep)
  // coordinates so all schedulers of a cell column see the same instance.
  rec.workload_seed = spec.repetitions == 1
                          ? params.seed
                          : derive_seed(spec.base_seed, {class_idx, rep});
  params.seed = rec.workload_seed;
  const Workload w = make_workload(params);
  rec.lower_bound = makespan_lower_bound(w);

  const SchedulerInfo& info = *find_scheduler(scheduler_name);
  const Budget budget =
      spec.eval_budget > 0 ? Budget::evals(spec.eval_budget)
      : spec.time_budget_seconds > 0.0
          ? Budget::seconds(spec.time_budget_seconds)
          : Budget::steps(spec.iterations * info.steps_per_iteration);
  const std::vector<double> grid =
      time_grid(budget.axis_end(), spec.curve_points);

  WallTimer timer;
  const std::unique_ptr<SearchEngine> engine =
      make_search_engine(scheduler_name, w, budget, cell.seed);
  const std::vector<AnytimePoint> curve =
      run_anytime(*engine, budget, ctx.deadline);
  rec.makespan = engine->best_makespan();
  rec.evals = engine->evals_used();
  // A one-shot's schedule does not depend on the budget, so its curve is
  // flat at its makespan on every axis (its single step would otherwise
  // sample as +infinity at step-axis grid points below 1).
  rec.curve = info.one_shot != nullptr
                  ? std::vector<double>(grid.size(), rec.makespan)
                  : sample_curve(curve, grid);
  const Schedule schedule = engine->best_schedule();
  rec.seconds = timer.seconds();

  const auto violations = validate_schedule(w, schedule);
  SEHC_CHECK(violations.empty(),
             "run_campaign: " + scheduler_name +
                 " produced an invalid schedule in cell " +
                 std::to_string(cell.index) + ": " + violations.front());
  return rec;
}

}  // namespace

CampaignRunSummary run_campaign(const CampaignSpec& spec, ResultStore& store,
                                const CampaignRunOptions& options) {
  spec.validate();
  SEHC_CHECK(store.schema().compatible_with(spec.store_schema()),
             "run_campaign: store '" + store.path() +
                 "' does not match this spec (open it with "
                 "spec.store_schema())");
  CampaignRunOptions run_options = options;
  if (!run_options.cell_label) {
    // Resolve cell coordinates to spec names so quarantine records read as
    // experiment identities, not just grid indices.
    run_options.cell_label = [&spec](const SweepCell& cell) {
      return "class=" + spec.classes[cell.at(0)].name +
             " rep=" + std::to_string(cell.at(1)) +
             " scheduler=" + spec.schedulers[cell.at(2)];
    };
  }
  return run_store_grid(
      spec.grid(), store, run_options, spec.base_seed,
      [&](const SweepCell& cell, const CellContext& ctx) {
        return run_campaign_cell(spec, cell, ctx).to_row().fields;
      });
}

std::vector<CampaignRecord> campaign_records(const ResultStore& store) {
  SEHC_CHECK(store.schema().kind == "campaign",
             "campaign_records: store kind is '" + store.schema().kind +
                 "', not 'campaign'");
  std::vector<CampaignRecord> records;
  for (const StoreRow& row : store.sorted_rows()) {
    records.push_back(CampaignRecord::from_row(row));
  }
  return records;
}

namespace {

std::string level_token(Level level) { return to_string(level); }

std::string ccr_token(double ccr) { return format_fixed(ccr, 1); }

CampaignClass make_class(std::string name, std::size_t tasks,
                         std::size_t machines, Level conn, Level het,
                         double ccr, Consistency cons) {
  CampaignClass c;
  c.name = std::move(name);
  c.params.tasks = tasks;
  c.params.machines = machines;
  c.params.connectivity = conn;
  c.params.heterogeneity = het;
  c.params.ccr = ccr;
  c.params.consistency = cons;
  return c;
}

CampaignSpec make_fig_campaign(const std::string& name,
                               WorkloadParams (*factory)(std::uint64_t),
                               std::uint64_t seed, double budget_seconds) {
  CampaignSpec spec;
  spec.name = name;
  spec.classes.push_back({name, factory(seed)});
  spec.schedulers = {"SE", "GA"};
  spec.repetitions = 1;
  spec.iterations = 0;
  spec.time_budget_seconds = budget_seconds;
  spec.curve_points = 20;
  spec.base_seed = seed;
  return spec;
}

}  // namespace

std::vector<std::string> builtin_campaign_names() {
  return {"paper-class-grid", "equal-evals-grid", "scaled-class-grid",
          "consistency-grid", "fig5-anytime",     "fig6-anytime",
          "fig7-anytime",     "baselines",        "se-y-study",
          "se-bias-study",    "se-init-study"};
}

namespace {

/// The paper's 8-class cube (conn x het x CCR at 100 tasks / 20 machines),
/// shared by paper-class-grid and equal-evals-grid.
std::vector<CampaignClass> paper_cube_classes() {
  std::vector<CampaignClass> classes;
  for (Level conn : {Level::kLow, Level::kHigh}) {
    for (Level het : {Level::kLow, Level::kHigh}) {
      for (double ccr : {0.1, 1.0}) {
        classes.push_back(make_class(
            level_token(conn) + "-" + level_token(het) + "-" + ccr_token(ccr),
            100, 20, conn, het, ccr, Consistency::kInconsistent));
      }
    }
  }
  return classes;
}

}  // namespace

CampaignSpec make_builtin_campaign(const std::string& name) {
  if (name == "paper-class-grid") {
    // The §5.3 extension grid: SE vs GA across connectivity x heterogeneity
    // x CCR under an equal iteration budget.
    CampaignSpec spec;
    spec.name = name;
    spec.classes = paper_cube_classes();
    spec.schedulers = {"SE", "GA"};
    spec.repetitions = 3;
    spec.iterations = 150;
    return spec;
  }
  if (name == "equal-evals-grid") {
    // The first apples-to-apples equal-evaluation-count comparison across
    // every stepwise searcher: each cell stops once its cumulative
    // evaluator-trial count reaches the budget, no matter how those trials
    // are spent (SE allocation scans, GA/GSA generations, tabu samples, SA
    // moves, random draws). Deterministic; curves sample on the evals axis.
    CampaignSpec spec;
    spec.name = name;
    spec.classes = paper_cube_classes();
    spec.schedulers = {"SE", "GA", "GSA", "SA", "Tabu", "Random"};
    spec.repetitions = 5;
    spec.iterations = 0;
    spec.eval_budget = 200000;
    spec.curve_points = 20;
    return spec;
  }
  if (name == "scaled-class-grid") {
    // The ROADMAP's 10-100x scale-up: the full 3x3x3 class cube, 10 seeds,
    // with HEFT as the deterministic anchor next to SE and GA — 810 cells
    // vs the paper grid's 24.
    CampaignSpec spec;
    spec.name = name;
    for (Level conn : {Level::kLow, Level::kMedium, Level::kHigh}) {
      for (Level het : {Level::kLow, Level::kMedium, Level::kHigh}) {
        for (double ccr : {0.1, 0.5, 1.0}) {
          spec.classes.push_back(make_class(
              level_token(conn) + "-" + level_token(het) + "-" + ccr_token(ccr),
              100, 20, conn, het, ccr, Consistency::kInconsistent));
        }
      }
    }
    spec.schedulers = {"SE", "GA", "HEFT"};
    spec.repetitions = 10;
    spec.iterations = 150;
    return spec;
  }
  if (name == "consistency-grid") {
    // Machine-consistency scenarios (Braun et al. suite structure): how SE
    // and the baselines react when machines are totally ordered.
    CampaignSpec spec;
    spec.name = name;
    for (Consistency cons :
         {Consistency::kInconsistent, Consistency::kConsistent,
          Consistency::kSemiConsistent}) {
      for (Level conn : {Level::kLow, Level::kHigh}) {
        for (double ccr : {0.1, 1.0}) {
          spec.classes.push_back(make_class(
              std::string(to_string(cons)) + "-" + level_token(conn) + "-" +
                  ccr_token(ccr),
              100, 20, conn, Level::kMedium, ccr, cons));
        }
      }
    }
    spec.schedulers = {"SE", "GA", "HEFT", "MinMin"};
    spec.repetitions = 10;
    spec.iterations = 150;
    return spec;
  }
  if (name == "fig5-anytime") {
    return make_fig_campaign(name, &paper_fig5_high_connectivity, 42, 4.0);
  }
  if (name == "fig6-anytime") {
    return make_fig_campaign(name, &paper_fig6_ccr1, 42, 4.0);
  }
  if (name == "fig7-anytime") {
    return make_fig_campaign(name, &paper_fig7_low_everything, 42, 4.0);
  }
  if (name == "baselines") {
    // Every registered scheduler on the three figure workloads and the
    // small paper instance, pinned at seed 42: the paper's two heuristics
    // inside the baseline landscape of its survey references [4][5].
    CampaignSpec spec;
    spec.name = name;
    spec.classes = {{"high-conn", paper_fig5_high_connectivity(42)},
                    {"ccr1", paper_fig6_ccr1(42)},
                    {"low-all", paper_fig7_low_everything(42)},
                    {"small", paper_small(42)}};
    spec.schedulers = scheduler_names();
    spec.repetitions = 1;
    spec.iterations = 150;
    return spec;
  }
  // SE's parameter studies: each configuration is a registry name
  // (heuristics/scheduler.h), 5 derived instances per class, or the class's
  // pinned seed-42 instance with --seeds 1.
  if (name == "se-y-study") {
    // §5.2 / Figure 4: allocation breadth Y at low and high heterogeneity,
    // with the best-so-far curve over the iterations.
    return {.name = name,
            .classes = {{"low-het", paper_large_low_heterogeneity(42)},
                        {"high-het", paper_large_high_heterogeneity(42)}},
            .schedulers = {"SE[Y=5]", "SE[Y=9]", "SE[Y=12]"},
            .repetitions = 5, .iterations = 250, .curve_points = 30};
  }
  if (name == "se-bias-study") {
    // §4.4: the selection bias B on a small and a large instance; plain SE
    // is B = -0.1.
    return {.name = name,
            .classes = {{"small", paper_small(42)},
                        {"large", paper_large_high_connectivity(42)}},
            .schedulers = {"SE[B=-0.3]", "SE[B=-0.2]", "SE", "SE[B=0]",
                           "SE[B=0.05]", "SE[B=0.1]"},
            .repetitions = 5, .iterations = 120};
  }
  if (name == "se-init-study") {
    // A random or a HEFT start x Y in {2, 5, all}, at the large-problem
    // bias default_bias(100) = 0.05, with HEFT alone as the flat baseline.
    return {.name = name,
            .classes = {{"high-conn", paper_fig5_high_connectivity(42)},
                        {"low-all", paper_fig7_low_everything(42)}},
            .schedulers = {"SE[Y=2,B=0.05]", "SE[Y=2,B=0.05,init=HEFT]",
                           "SE[Y=5,B=0.05]", "SE[Y=5,B=0.05,init=HEFT]",
                           "SE[B=0.05]", "SE[B=0.05,init=HEFT]", "HEFT"},
            .repetitions = 5, .iterations = 100};
  }
  throw Error("make_builtin_campaign: unknown campaign '" + name +
              "' (known: " + join(builtin_campaign_names(), ',') + ")");
}

}  // namespace sehc
