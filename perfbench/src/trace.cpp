#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/error.h"
#include "core/rng.h"
#include "dag/topo.h"
#include "exp/sweep.h"
#include "hc/workload_io.h"
#include "heuristics/scheduler.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              process_start())
      .count();
}

/// Span names per engine (span names are static strings, never built per
/// span).
struct EngineSpans {
  const char* engine;
  const char* key;
  const char* init;
  const char* step;
  const char* search;
};
constexpr EngineSpans kEngineSpans[] = {
    {"SE", "se", "se.init", "se.step", "search.se"},
    {"GA", "ga", "ga.init", "ga.step", "search.ga"},
    {"GSA", "gsa", "gsa.init", "gsa.step", "search.gsa"},
    {"SA", "sa", "sa.init", "sa.step", "search.sa"},
    {"Tabu", "tabu", "tabu.init", "tabu.step", "search.tabu"},
    {"Random", "random", "random.init", "random.step", "search.random"},
};

const EngineSpans& engine_spans(const std::string& engine) {
  for (const EngineSpans& e : kEngineSpans) {
    if (engine == e.engine) return e;
  }
  SEHC_CHECK(false, "perfbench: no span names for engine " + engine);
  return kEngineSpans[0];
}

/// Records init() and step() as spans: a = evals the call consumed, flag =
/// the step improved the best makespan.
class TracedEngine final : public sehc::SearchEngine {
 public:
  TracedEngine(std::unique_ptr<sehc::SearchEngine> inner, Tracer& tracer,
               const EngineSpans& names)
      : inner_(std::move(inner)), tracer_(tracer), names_(names) {}

  std::string name() const override { return inner_->name(); }
  void init() override {
    ScopedSpan span(tracer_, names_.init);
    inner_->init();
    span.span()->a = static_cast<double>(inner_->evals_used());
  }
  sehc::StepStats step() override {
    const std::size_t evals = inner_->evals_used();
    const double best = inner_->best_makespan();
    ScopedSpan span(tracer_, names_.step);
    const sehc::StepStats stats = inner_->step();
    span.span()->a = static_cast<double>(stats.evals_used - evals);
    span.span()->flag = stats.best_makespan < best;
    return stats;
  }
  bool done() const override { return inner_->done(); }
  double best_makespan() const override { return inner_->best_makespan(); }
  std::size_t steps_done() const override { return inner_->steps_done(); }
  std::size_t evals_used() const override { return inner_->evals_used(); }
  double elapsed_seconds() const override { return inner_->elapsed_seconds(); }
  sehc::Schedule best_schedule() const override {
    return inner_->best_schedule();
  }

 private:
  std::unique_ptr<sehc::SearchEngine> inner_;
  Tracer& tracer_;
  const EngineSpans& names_;
};

/// Aggregate of every span sharing a name.
struct Agg {
  std::size_t spans = 0;
  double calls = 0.0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double a = 0.0;
  double b = 0.0;
  double flags = 0.0;
  double self_share_sum = 0.0;  // sum of per-span self/total

  double total_ms() const { return total_ns * 1e-6; }
  double per_call_ms() const { return calls > 0 ? total_ms() / calls : 0.0; }
  double per_span_ms() const { return spans > 0 ? total_ms() / spans : 0.0; }
  double per_second(double count) const {
    return total_ns > 0 ? count / (total_ns * 1e-9) : 0.0;
  }
};

std::map<std::string, Agg> aggregate(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Agg& g = by_name[s.name];
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    const double self = std::max(0.0, total - child_ns[i]);
    ++g.spans;
    g.calls += s.calls;
    g.total_ns += total;
    g.self_ns += self;
    g.a += s.a;
    g.b += s.b;
    g.flags += s.flag ? 1.0 : 0.0;
    g.self_share_sum += total > 0 ? self / total : 0.0;
  }
  return by_name;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The SE allocation scan's evaluator traffic without its commits: every
/// task of `s`, every position of its valid range, all machines as one
/// checkpoint-mode reassign batch pruned against the running best.
void trial_batch_scan(const sehc::Workload& w, const sehc::Evaluator& eval,
                      sehc::Evaluator::TrialBatch& batch,
                      sehc::SolutionString s) {
  const sehc::TaskGraph& g = w.graph();
  for (sehc::TaskId t = 0; t < w.num_tasks(); ++t) {
    const std::size_t original = s.position_of(t);
    const sehc::ValidRange range = s.valid_range(g, t);
    double best = std::numeric_limits<double>::infinity();
    eval.begin_trials(s, range.lo);
    s.move_task(t, range.lo);
    batch.begin_checkpoint(s);
    for (std::size_t pos = range.lo;; ++pos) {
      for (sehc::MachineId m = 0; m < w.num_machines(); ++m) {
        batch.add_reassign(t, m);
      }
      for (double len : batch.evaluate(best)) best = std::min(best, len);
      if (pos == range.hi) break;
      s.move_task(t, pos + 1);
      eval.extend_checkpoint(s);
    }
    s.move_task(t, original);
  }
}

}  // namespace

std::int32_t Tracer::open(const char* name, std::int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op >= 0 || stack_.empty() ? op : spans_[stack_.back()].op;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  // Spans nest (ScopedSpan); an inner span still open here was left by an
  // exception and ends with its parent.
  const std::int64_t end = now_ns();
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = end;
    if (top == index) break;
  }
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream os(path);
  SEHC_CHECK(os.good(), "perfbench: cannot write " + path);
  os << "name,start_ns,end_ns,parent,op,calls,a,b,flag\n";
  for (const Span& s : spans_) {
    os << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
       << ',' << s.op << ',' << s.calls << ',' << s.a << ',' << s.b << ','
       << (s.flag ? 1 : 0) << '\n';
  }
}

sehc::SearchResult traced_search(Tracer& tracer, const std::string& engine,
                                 const sehc::Workload& w,
                                 const sehc::Budget& budget,
                                 std::uint64_t seed) {
  if (!tracer.enabled()) {
    auto e = sehc::make_search_engine(engine, w, budget, seed);
    return sehc::run_search(*e, budget);
  }
  const EngineSpans& names = engine_spans(engine);
  std::unique_ptr<sehc::SearchEngine> inner;
  {
    ScopedSpan construct(tracer, "search.make_engine");
    inner = sehc::make_search_engine(engine, w, budget, seed);
  }
  TracedEngine traced(std::move(inner), tracer, names);
  ScopedSpan run(tracer, names.search);
  sehc::SearchResult result = sehc::run_search(traced, budget);
  // a = evals, b = evals beyond an eval budget (0 for other currencies).
  run.span()->a = static_cast<double>(result.evals);
  if (budget.kind == sehc::Budget::Kind::kEvals && result.evals > budget.count) {
    run.span()->b = static_cast<double>(result.evals - budget.count);
  }
  return result;
}

void run_layer_probes(Tracer& tracer,
                      const std::vector<sehc::WorkloadParams>& instances,
                      std::uint64_t seed) {
  constexpr std::uint32_t kTopo = 200;
  constexpr std::uint32_t kRandom = 100;
  constexpr std::uint32_t kMakespan = 1000;
  double sink = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    sehc::Workload w;
    {
      ScopedSpan s(tracer, "workload.generate");
      w = sehc::make_workload(instances[i]);
    }
    std::string text;
    {
      ScopedSpan s(tracer, "hc.serialize");
      text = sehc::workload_to_string(w);
    }
    {
      ScopedSpan s(tracer, "hc.parse");
      sink += static_cast<double>(sehc::workload_from_string(text).num_tasks());
    }
    {
      ScopedSpan s(tracer, "dag.topo");
      for (std::uint32_t r = 0; r < kTopo; ++r) {
        sink += static_cast<double>(sehc::topological_order(w.graph())->front());
      }
      s.span()->calls = kTopo;
    }
    sehc::Rng rng(sehc::derive_seed(seed, {i}));
    std::vector<sehc::SolutionString> solutions;
    {
      ScopedSpan s(tracer, "sched.random_solution");
      for (std::uint32_t r = 0; r < kRandom; ++r) {
        solutions.push_back(
            sehc::random_initial_solution(w.graph(), w.num_machines(), rng));
      }
      s.span()->calls = kRandom;
    }
    const sehc::Evaluator eval(w);
    {
      ScopedSpan s(tracer, "sched.makespan");
      for (std::uint32_t r = 0; r < kMakespan; ++r) {
        sink += eval.makespan(solutions[r % kRandom]);
      }
      s.span()->calls = kMakespan;
    }
    sehc::Evaluator::TrialBatch batch(eval);
    {
      // a = trials, b = trials retired by the pruning bound.
      ScopedSpan s(tracer, "sched.trial_batch");
      trial_batch_scan(w, eval, batch, solutions.front());
      s.span()->a = static_cast<double>(batch.metrics().trials);
      s.span()->b = static_cast<double>(batch.metrics().pruned);
    }
  }
  SEHC_CHECK(std::isfinite(sink), "perfbench: probe results are not finite");
}

void add_layer_metrics(Report& report, const Tracer& spans,
                       const std::map<std::string, double>& extras) {
  const std::map<std::string, Agg> agg = aggregate(spans.spans());
  auto get = [&agg](const std::string& name) {
    const auto it = agg.find(name);
    return it == agg.end() ? Agg{} : it->second;
  };
  auto extra = [&extras](const std::string& name) {
    const auto it = extras.find(name);
    return it == extras.end() ? 0.0 : it->second;
  };

  const Agg trials = get("sched.trial_batch");
  report.add("sched.trials_per_s", trials.per_second(trials.a), "1/s");
  report.add("sched.pruned_frac", ratio(trials.b, trials.a), "frac");
  const Agg makespan = get("sched.makespan");
  report.add("sched.makespan_per_s", makespan.per_second(makespan.calls), "1/s");
  report.add("sched.random_solution_us",
             get("sched.random_solution").per_call_ms() * 1e3, "us");
  report.add("dag.topo_us", get("dag.topo").per_call_ms() * 1e3, "us");

  const Agg se_step = get("se.step");
  report.add("se.init_ms", get("se.init").per_span_ms(), "ms");
  report.add("se.step_ms", se_step.per_span_ms(), "ms");
  report.add("se.evals_per_step", ratio(se_step.a, se_step.spans), "count");
  report.add("se.improve_frac", ratio(se_step.flags, se_step.spans), "frac");

  double engines_ns = 0.0;
  for (const EngineSpans& e : kEngineSpans) {
    engines_ns += get(e.init).total_ns + get(e.step).total_ns;
  }
  for (const EngineSpans& e : kEngineSpans) {
    const Agg init = get(e.init);
    const Agg step = get(e.step);
    const Agg search = get(e.search);
    const std::string key = e.key;
    if (key != "se") report.add(key + ".init_ms", init.per_span_ms(), "ms");
    report.add(key + ".step_us", step.per_span_ms() * 1e3, "us");
    report.add(key + ".evals_per_s",
               ratio(init.a + step.a, (init.total_ns + step.total_ns) * 1e-9),
               "1/s");
    report.add(key + ".time_frac",
               ratio(init.total_ns + step.total_ns, engines_ns), "frac");
    report.add(key + ".evals_over_budget", ratio(search.b, search.spans),
               "count");
  }

  double search_ns = 0.0;
  double driver_ns = 0.0;
  for (const EngineSpans& e : kEngineSpans) {
    search_ns += get(e.search).total_ns;
    driver_ns += get(e.search).self_ns;
  }
  report.add("search.driver_frac", ratio(driver_ns, search_ns), "frac");

  report.add("exp.cell_overhead_ms", extra("exp.cell_overhead_ms"), "ms");
  report.add("exp.failed_cells", extra("exp.failed_cells"), "count");
  report.add("exp.retried_cells", extra("exp.retried_cells"), "count");

  report.add("workload.generate_ms", get("workload.generate").per_call_ms(), "ms");
  report.add("hc.serialize_ms", get("hc.serialize").per_call_ms(), "ms");
  report.add("hc.parse_ms", get("hc.parse").per_call_ms(), "ms");

  // serve.hit / serve.miss spans: a = the reply's queue_ms, b = solve_ms.
  const Agg hit = get("serve.hit");
  const Agg miss = get("serve.miss");
  report.add("serve.hit_ms", hit.per_span_ms(), "ms");
  report.add("serve.miss_ms", miss.per_span_ms(), "ms");
  report.add("serve.queue_ms", ratio(miss.a, miss.spans), "ms");
  report.add("serve.solve_ms", ratio(miss.b, miss.spans), "ms");
  report.add("serve.server_ms",
             ratio(hit.total_ms() + miss.total_ms() - miss.a - miss.b,
                   static_cast<double>(hit.spans + miss.spans)),
             "ms");
  report.add("serve.request_parse_ms", get("serve.request_parse").per_call_ms(),
             "ms");
  report.add("serve.canonical_ms", get("serve.canonical").per_call_ms(), "ms");
  report.add("serve.hit_frac", extra("serve.hit_frac"), "frac");
  report.add("serve.workload_cache_hit_frac",
             extra("serve.workload_cache_hit_frac"), "frac");
  report.add("serve.coalesced", extra("serve.coalesced"), "count");
  report.add("serve.queue_peak", extra("serve.queue_peak"), "count");
  report.add("serve.shed", extra("serve.shed"), "count");

  report.add("trace.overhead_ops_per_s", extra("trace.overhead_ops_per_s"), "1/s");
  const Agg op = get("op");
  report.add("trace.uncovered_frac", ratio(op.self_share_sum, op.spans), "frac");
}

std::string self_time_table(const Tracer& spans) {
  const std::map<std::string, Agg> agg = aggregate(spans.spans());
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %10s %12s %12s\n", "span", "calls",
                "total_ms", "self_ms");
  os << line;
  for (const auto& [name, g] : agg) {
    std::snprintf(line, sizeof line, "%-24s %10.0f %12.3f %12.3f\n",
                  name.c_str(), g.calls, g.total_ms(), g.self_ns * 1e-6);
    os << line;
  }
  return os.str();
}

}  // namespace perfbench
