// Parallel experiment-sweep subsystem.
//
// A SweepGrid describes a cartesian grid of experiment cells (e.g.
// scheduler x workload-class x seed); sweep_map() evaluates a cell function
// over every cell on a ThreadPool and returns the results ordered by cell
// index. Three properties make parallel sweeps trustworthy:
//
//   * Determinism: each cell gets an RNG seed derived purely from the base
//     seed and its grid coordinates — never from submission or completion
//     order — so a sweep on 1 thread and on N threads produces identical
//     results, and any table built from them is byte-identical.
//   * Exception safety: a throwing cell does not tear down the sweep
//     mid-flight; all in-flight cells finish, then the first exception (in
//     cell order) propagates to the caller.
//   * Observability: an optional progress callback fires (serialized) after
//     each completed cell.
//
// The heuristics themselves stay sequential — the paper's algorithms are —
// so parallelism lives at the sweep level, which is embarrassingly parallel.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace sehc {

/// Deterministic seed derivation: a pure function of `base` and `coords`
/// (splitmix64 chain). Sweeps use it to give every cell an independent
/// stream that does not depend on execution order.
std::uint64_t derive_seed(std::uint64_t base,
                          std::span<const std::size_t> coords);
std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::size_t> coords);

class SweepGrid;

/// Renders a cell's coordinates with the grid's axis names, e.g.
/// "class=2, rep=7, scheduler=1". Used to attach cell identity to
/// exceptions and quarantine records.
std::string describe_coords(const SweepGrid& grid,
                            std::span<const std::size_t> coords);

/// One axis of a sweep grid: a display name plus its number of points.
struct SweepAxis {
  std::string name;
  std::size_t size = 0;
};

/// Row-major cartesian grid over named axes (first axis varies slowest).
class SweepGrid {
 public:
  SweepGrid() = default;
  explicit SweepGrid(std::vector<SweepAxis> axes);

  SweepGrid& add_axis(std::string name, std::size_t size);

  std::size_t rank() const { return axes_.size(); }
  const SweepAxis& axis(std::size_t i) const;

  /// Total number of cells (product of axis sizes; 1 for a rank-0 grid).
  std::size_t num_cells() const;

  /// Coordinates of a flat cell index.
  std::vector<std::size_t> coords(std::size_t cell) const;

  /// The cell's deterministic seed: derive_seed(base_seed, coords(cell)).
  std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t cell) const;

 private:
  std::vector<SweepAxis> axes_;
};

/// One unit of sweep work handed to the cell function.
struct SweepCell {
  std::size_t index = 0;              // flat, row-major cell index
  std::vector<std::size_t> coords;    // one entry per grid axis
  std::uint64_t seed = 0;             // deterministic per-cell seed

  /// Coordinate on the given axis.
  std::size_t at(std::size_t axis) const { return coords.at(axis); }
};

struct SweepOptions {
  /// Worker threads; 0 means hardware_concurrency. The pool never spawns
  /// more workers than there are cells.
  std::size_t threads = 1;
  /// Base seed every cell seed is derived from.
  std::uint64_t base_seed = 42;
  /// Called after each completed cell with (completed, total). Invocations
  /// are serialized; keep it cheap.
  std::function<void(std::size_t, std::size_t)> progress;
};

namespace detail {
/// Runs cell_fn once per cell on a ThreadPool and waits for every cell to
/// finish; rethrows the first (in cell order) cell exception afterwards,
/// wrapped as sehc::Error with the failing cell's index and axis-named
/// coordinates prepended (e.g. "sweep cell 4 (i=1): cell failure").
void sweep_execute(const SweepGrid& grid, const SweepOptions& options,
                   const std::function<void(const SweepCell&)>& cell_fn);

/// Subset variant used by campaign shards and resume: runs cell_fn only for
/// the given flat cell indices. Each cell receives exactly the coordinates
/// and derived seed it would receive in a full sweep, so results compose
/// across arbitrary partitions of the grid. Progress reports
/// (completed, cells.size()).
void sweep_execute_cells(const SweepGrid& grid,
                         std::span<const std::size_t> cells,
                         const SweepOptions& options,
                         const std::function<void(const SweepCell&)>& cell_fn);
}  // namespace detail

/// Runs `fn` (returning void) over an explicit subset of grid cells. The
/// sharded-campaign entry point: a shard owns a subset of cell indices and
/// cell seeds stay coordinate-derived, so any partition of the grid produces
/// the same per-cell results as one full sweep.
template <typename Fn>
void sweep_for_each(const SweepGrid& grid, std::span<const std::size_t> cells,
                    const SweepOptions& options, Fn&& fn) {
  detail::sweep_execute_cells(grid, cells, options,
                              [&fn](const SweepCell& cell) { fn(cell); });
}

/// Evaluates `fn` on every cell of `grid` and returns the results ordered by
/// cell index, independent of thread count and completion order. `fn` is
/// invoked concurrently and must be safe to call from multiple threads.
template <typename Fn>
auto sweep_map(const SweepGrid& grid, const SweepOptions& options, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, const SweepCell&>> {
  using R = std::invoke_result_t<Fn&, const SweepCell&>;
  static_assert(!std::is_void_v<R>,
                "sweep_map cell functions must return a value");
  std::vector<std::optional<R>> slots(grid.num_cells());
  detail::sweep_execute(grid, options, [&slots, &fn](const SweepCell& cell) {
    slots[cell.index].emplace(fn(cell));
  });
  std::vector<R> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace sehc
