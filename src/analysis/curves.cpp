#include "analysis/curves.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.h"

namespace sehc {

void CurveBundle::validate() const {
  for (std::size_t i = 1; i < grid.size(); ++i) {
    SEHC_CHECK(grid[i - 1] < grid[i],
               "CurveBundle: grid must be strictly ascending");
  }
  if (grid.empty()) {
    SEHC_CHECK(rows.empty(), "CurveBundle: rows without a grid");
    return;
  }
  for (const std::vector<double>& row : rows) {
    SEHC_CHECK(row.size() == grid.size(),
               "CurveBundle: row has " + std::to_string(row.size()) +
                   " samples, grid has " + std::to_string(grid.size()));
  }
}

std::vector<double> mean_curve(const CurveBundle& bundle) {
  bundle.validate();
  SEHC_CHECK(!bundle.rows.empty(), "mean_curve: bundle has no curves");
  const double n = static_cast<double>(bundle.rows.size());
  std::vector<double> mean;
  mean.reserve(bundle.grid.size());
  for (std::size_t i = 0; i < bundle.grid.size(); ++i) {
    double sum = 0.0;
    for (const std::vector<double>& row : bundle.rows) sum += row[i];
    mean.push_back(sum / n);  // +inf row => +inf mean, by design
  }
  return mean;
}

Crossing first_crossing(std::span<const double> grid,
                        std::span<const double> challenger,
                        std::span<const double> baseline) {
  SEHC_CHECK(challenger.size() == grid.size() && baseline.size() == grid.size(),
             "first_crossing: curves must be sampled on the grid");
  Crossing crossing;
  // Scan backwards: find the longest suffix where challenger <= baseline,
  // then the first strict win inside it is the sustained overtake.
  std::size_t suffix = grid.size();
  while (suffix > 0 && challenger[suffix - 1] <= baseline[suffix - 1]) {
    --suffix;
  }
  for (std::size_t i = suffix; i < grid.size(); ++i) {
    if (challenger[i] < baseline[i]) {
      crossing.crosses = true;
      crossing.index = i;
      crossing.x = grid[i];
      break;
    }
  }
  return crossing;
}

double curve_auc(std::span<const double> grid,
                 std::span<const double> values) {
  SEHC_CHECK(values.size() == grid.size(),
             "curve_auc: curve must be sampled on the grid");
  double area = 0.0;
  double prev_x = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SEHC_CHECK(i == 0 || grid[i - 1] < grid[i],
               "curve_auc: grid must be strictly ascending");
    area += values[i] * (grid[i] - prev_x);
    prev_x = grid[i];
  }
  return area;
}

PerformanceProfile performance_profile(
    const std::vector<std::string>& solvers,
    const std::vector<std::vector<double>>& costs,
    const std::vector<double>& taus) {
  SEHC_CHECK(!solvers.empty(), "performance_profile: no solvers");
  SEHC_CHECK(!taus.empty(), "performance_profile: no tau breakpoints");
  for (std::size_t t = 0; t < taus.size(); ++t) {
    SEHC_CHECK(taus[t] >= 1.0, "performance_profile: taus must be >= 1");
    SEHC_CHECK(t == 0 || taus[t - 1] < taus[t],
               "performance_profile: taus must be ascending");
  }
  for (const auto& row : costs) {
    SEHC_CHECK(row.size() == solvers.size(),
               "performance_profile: cost row width != solver count");
  }

  PerformanceProfile profile;
  profile.solvers = solvers;
  profile.taus = taus;
  profile.fraction.assign(solvers.size(),
                          std::vector<double>(taus.size(), 0.0));

  std::vector<std::vector<std::size_t>> within(
      solvers.size(), std::vector<std::size_t>(taus.size(), 0));
  for (const std::vector<double>& row : costs) {
    double best = std::numeric_limits<double>::infinity();
    for (const double cost : row) best = std::min(best, cost);
    if (!std::isfinite(best)) continue;  // nobody solved it: unrankable
    ++profile.problems;
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      // best == 0 can only pair with cost == 0 (costs are nonnegative
      // schedule lengths): that solver matched the best, ratio 1.
      const double ratio = row[s] == best ? 1.0 : row[s] / best;
      for (std::size_t t = 0; t < taus.size(); ++t) {
        if (ratio <= taus[t]) ++within[s][t];
      }
    }
  }
  if (profile.problems == 0) return profile;  // fractions stay 0
  for (std::size_t s = 0; s < solvers.size(); ++s) {
    for (std::size_t t = 0; t < taus.size(); ++t) {
      profile.fraction[s][t] = static_cast<double>(within[s][t]) /
                               static_cast<double>(profile.problems);
    }
  }
  return profile;
}

}  // namespace sehc
