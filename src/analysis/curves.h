// Anytime-curve algebra over campaign records: alignment onto a shared
// budget grid, mean curves across seeds, first-crossing detection
// ("when does SE overtake GA"), area under the curve, and Dolan-Moré
// performance profiles across a whole grid.
//
// Curves here are the fixed-width sampled form the campaign layer persists:
// values[i] is the best cost known at grid[i] (see sample_curve in
// exp/anytime.h), with +infinity meaning "no solution yet". All operations
// are plain deterministic arithmetic, so anything tabulated from them is
// byte-stable for fixed inputs.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace sehc {

/// Several seeds' curves of one (class, scheduler) group aligned on a
/// shared budget grid: rows[s][i] is seed s's best cost at grid[i].
struct CurveBundle {
  std::vector<double> grid;
  std::vector<std::vector<double>> rows;

  /// Throws sehc::Error unless the grid is strictly ascending and every
  /// row has exactly grid.size() samples. An empty grid (no curve capture)
  /// is valid only with no rows.
  void validate() const;
};

/// Pointwise mean across the bundle's rows; requires a valid bundle with at
/// least one row. A grid point where any seed is still at +infinity has a
/// +infinity mean ("some seed has no solution yet").
std::vector<double> mean_curve(const CurveBundle& bundle);

/// A sustained overtake of one curve over another on a shared grid.
struct Crossing {
  bool crosses = false;
  /// Grid index / coordinate of the first sustained overtake; only
  /// meaningful when crosses is true (x is +infinity otherwise).
  std::size_t index = 0;
  double x = std::numeric_limits<double>::infinity();
};

/// First SUSTAINED crossing of `challenger` below `baseline`: the smallest
/// index i with challenger[i] < baseline[i] and challenger[j] <=
/// baseline[j] for every j >= i — a transient dip that the baseline later
/// reverses does not count as an overtake. Flat equal curves never cross;
/// a challenger ahead from the first grid point crosses at grid.front().
/// +infinity samples compare as usual (finite < +infinity).
/// Requires challenger and baseline sized like `grid`.
Crossing first_crossing(std::span<const double> grid,
                        std::span<const double> challenger,
                        std::span<const double> baseline);

/// Area under the sampled step curve: values[i] is held on the interval
/// (grid[i-1], grid[i]] (with an implicit left edge at 0), so
/// auc = sum values[i] * (grid[i] - grid[i-1]). Lower is better; a curve
/// with any +infinity sample has infinite area (it spent measurable budget
/// without a solution). An empty curve has area 0.
double curve_auc(std::span<const double> grid, std::span<const double> values);

/// Dolan-Moré performance profile: fraction[s][t] is the fraction of
/// problems solver s solved within taus[t] times the per-problem best cost.
struct PerformanceProfile {
  std::vector<std::string> solvers;
  std::vector<double> taus;
  /// fraction[solver][tau] in [0, 1].
  std::vector<std::vector<double>> fraction;
  /// Problems actually ranked (those with at least one finite cost).
  std::size_t problems = 0;
};

/// Builds the profile from costs[problem][solver] (lower is better).
/// Ratios are cost / min-cost-of-problem; a +infinity cost never falls
/// within any tau. Problems where every solver is +infinity are skipped.
/// `taus` must be ascending and >= 1.
PerformanceProfile performance_profile(
    const std::vector<std::string>& solvers,
    const std::vector<std::vector<double>>& costs,
    const std::vector<double>& taus);

}  // namespace sehc
