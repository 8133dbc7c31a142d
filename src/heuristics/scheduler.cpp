#include "heuristics/scheduler.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

#include "heuristics/cpop.h"
#include "heuristics/dls.h"
#include "heuristics/heft.h"
#include "heuristics/level_mappers.h"
#include "heuristics/random_search.h"
#include "search/one_shot.h"

namespace sehc {

namespace {

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

/// A name find_scheduler accepts: its registry row and, for SE, the
/// comparison parameters with the name's overrides.
struct ParsedName {
  const SchedulerInfo* info = nullptr;
  SeParams se = comparison_se_params(0);
  bool heft_init = false;
};

/// `text` as a T when it is exactly what to_chars prints for that value,
/// so each value has one spelling.
template <typename T>
std::optional<T> parse_exact(std::string_view text) {
  T value{};
  const char* last = text.data() + text.size();
  if (std::from_chars(text.data(), last, value).ec != std::errc()) return {};
  char back[32];
  const char* back_end = std::to_chars(back, std::end(back), value).ptr;
  if (std::string_view(back, back_end) != text) return {};
  return value;
}

/// The one parser behind find_scheduler and make_search_engine (the
/// grammar is in scheduler.h).
std::optional<ParsedName> parse_scheduler_name(std::string_view name) {
  const std::size_t open = name.find('[');
  ParsedName parsed;
  for (const SchedulerInfo& info : kSchedulers) {
    if (name.substr(0, open) == info.name) parsed.info = &info;
  }
  if (parsed.info == nullptr) return std::nullopt;
  if (open == std::string_view::npos) return parsed;
  if (name.substr(0, open) != "SE" || !name.ends_with(']')) return std::nullopt;
  const std::string_view params = name.substr(open + 1, name.size() - open - 2);
  static constexpr std::string_view kKeys[] = {"Y=", "B=", "init="};
  std::size_t key = 0;  // keys come in kKeys order, each at most once
  for (std::size_t pos = 0; pos <= params.size(); ++key) {
    const std::string_view item =
        params.substr(pos, params.find(',', pos) - pos);
    pos += item.size() + 1;
    while (key < std::size(kKeys) && !item.starts_with(kKeys[key])) ++key;
    if (key == std::size(kKeys)) return std::nullopt;
    const std::string_view value = item.substr(kKeys[key].size());
    if (key == 0) {
      parsed.se.y_limit = parse_exact<std::size_t>(value).value_or(0);
      if (parsed.se.y_limit == 0) return std::nullopt;
    } else if (key == 1) {
      // Finite, and neither -0 (a second spelling of 0) nor the default,
      // which a value that does not parse falls back to.
      const double b = parse_exact<double>(value).value_or(parsed.se.bias);
      if (!std::isfinite(b) || (b == 0.0 && std::signbit(b)) ||
          b == parsed.se.bias) {
        return std::nullopt;
      }
      parsed.se.bias = b;
    } else {
      parsed.heft_init = value == "HEFT";
      if (!parsed.heft_init) return std::nullopt;
    }
  }
  return parsed;
}

}  // namespace

const SchedulerInfo* find_scheduler(const std::string& name) {
  const std::optional<ParsedName> parsed = parse_scheduler_name(name);
  return parsed ? parsed->info : nullptr;
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  for (const SchedulerInfo& info : kSchedulers) names.emplace_back(info.name);
  return names;
}

SeParams comparison_se_params(std::uint64_t seed) {
  SeParams p;
  p.seed = seed;
  // Comparison-suite configuration: slightly negative bias measurably
  // dominates the non-negative range in this implementation (see the
  // se-bias-study campaign).
  p.bias = -0.1;
  p.record_trace = false;
  return p;
}

GaParams comparison_ga_params(std::uint64_t seed) {
  GaParams p;
  p.seed = seed;
  p.record_trace = false;
  return p;
}

GsaParams comparison_gsa_params(std::uint64_t seed) {
  GsaParams p;
  p.seed = seed;
  p.record_trace = false;
  return p;
}

TabuParams comparison_tabu_params(std::uint64_t seed) {
  TabuParams p;
  p.seed = seed;
  return p;
}

SaParams comparison_sa_params(const Budget& budget, std::uint64_t seed) {
  SaParams p;
  p.seed = seed;
  if (budget.kind != Budget::Kind::kSeconds) {
    p.steps_per_temp = std::max<std::size_t>(1, budget.count / 200);
  }
  return p;
}

std::unique_ptr<SearchEngine> make_search_engine(const std::string& name,
                                                 const Workload& w,
                                                 const Budget& budget,
                                                 std::uint64_t seed) {
  budget.validate();
  const std::optional<ParsedName> parsed = parse_scheduler_name(name);
  if (!parsed) {
    std::string known;
    for (const SchedulerInfo& row : kSchedulers) {
      known += known.empty() ? "" : ", ";
      known += row.name;
    }
    throw Error("make_search_engine: unknown scheduler '" + name +
                "' (expected one of " + known + ", or SE[...])");
  }
  if (parsed->info->name == std::string_view("SE")) {
    SeParams p = parsed->se;
    p.seed = seed;
    p.name = name;
    if (parsed->heft_init) {
      return std::make_unique<SeEngine>(w, p, heft_schedule(w).to_solution(w));
    }
    return std::make_unique<SeEngine>(w, p);
  }
  if (name == "GA") {
    return std::make_unique<GaEngine>(w, comparison_ga_params(seed));
  }
  if (name == "GSA") {
    return std::make_unique<GsaEngine>(w, comparison_gsa_params(seed));
  }
  if (name == "SA") {
    return std::make_unique<SaEngine>(w, comparison_sa_params(budget, seed));
  }
  if (name == "Tabu") {
    return std::make_unique<TabuEngine>(w, comparison_tabu_params(seed));
  }
  if (name == "Random") {
    return std::make_unique<RandomSearchEngine>(w, seed);
  }
  return std::make_unique<OneShotEngine>(parsed->info->name, w,
                                         parsed->info->one_shot);
}

}  // namespace sehc
