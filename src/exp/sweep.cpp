#include "exp/sweep.h"

#include <algorithm>
#include <exception>
#include <future>
#include <mutex>

#include "core/error.h"
#include "core/rng.h"
#include "core/thread_pool.h"

namespace sehc {

std::uint64_t derive_seed(std::uint64_t base,
                          std::span<const std::size_t> coords) {
  // Fold each coordinate into a splitmix64 chain. Every prefix change
  // perturbs the whole remaining stream, so (base, coords) pairs that differ
  // anywhere produce unrelated seeds.
  std::uint64_t state = base;
  std::uint64_t seed = splitmix64(state);
  for (std::size_t c : coords) {
    state = seed ^ (static_cast<std::uint64_t>(c) + 0x9E3779B97F4A7C15ULL);
    seed = splitmix64(state);
  }
  return seed;
}

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::size_t> coords) {
  return derive_seed(base,
                     std::span<const std::size_t>(coords.begin(), coords.size()));
}

std::string describe_coords(const SweepGrid& grid,
                            std::span<const std::size_t> coords) {
  std::string out;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) out += ", ";
    out += (i < grid.rank() ? grid.axis(i).name : "axis" + std::to_string(i)) +
           "=" + std::to_string(coords[i]);
  }
  return out;
}

SweepGrid::SweepGrid(std::vector<SweepAxis> axes) {
  for (SweepAxis& axis : axes) add_axis(std::move(axis.name), axis.size);
}

SweepGrid& SweepGrid::add_axis(std::string name, std::size_t size) {
  SEHC_CHECK(size > 0, "SweepGrid axis '" + name + "' must have size >= 1");
  axes_.push_back(SweepAxis{std::move(name), size});
  return *this;
}

const SweepAxis& SweepGrid::axis(std::size_t i) const {
  SEHC_CHECK(i < axes_.size(), "SweepGrid::axis index out of range");
  return axes_[i];
}

std::size_t SweepGrid::num_cells() const {
  std::size_t cells = 1;
  for (const SweepAxis& axis : axes_) cells *= axis.size;
  return cells;
}

std::vector<std::size_t> SweepGrid::coords(std::size_t cell) const {
  SEHC_CHECK(cell < num_cells(), "SweepGrid::coords cell index out of range");
  std::vector<std::size_t> c(axes_.size());
  for (std::size_t i = axes_.size(); i-- > 0;) {
    c[i] = cell % axes_[i].size;
    cell /= axes_[i].size;
  }
  return c;
}

std::uint64_t SweepGrid::cell_seed(std::uint64_t base_seed,
                                   std::size_t cell) const {
  return derive_seed(base_seed, coords(cell));
}

namespace detail {

void sweep_execute(const SweepGrid& grid, const SweepOptions& options,
                   const std::function<void(const SweepCell&)>& cell_fn) {
  std::vector<std::size_t> all(grid.num_cells());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  sweep_execute_cells(grid, all, options, cell_fn);
}

void sweep_execute_cells(const SweepGrid& grid,
                         std::span<const std::size_t> cells,
                         const SweepOptions& options,
                         const std::function<void(const SweepCell&)>& cell_fn) {
  const std::size_t total = cells.size();
  if (total == 0) return;
  std::size_t threads = options.threads == 0
                            ? std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())
                            : options.threads;
  threads = std::min(threads, total);

  std::mutex progress_mutex;
  std::size_t completed = 0;

  std::vector<std::future<void>> futures;
  futures.reserve(total);
  {
    ThreadPool pool(threads);
    for (const std::size_t i : cells) {
      SweepCell cell;
      cell.index = i;
      cell.coords = grid.coords(i);
      cell.seed = grid.cell_seed(options.base_seed, i);
      futures.push_back(pool.submit([cell = std::move(cell), &cell_fn, &grid,
                                     &options, &progress_mutex, &completed,
                                     total] {
        try {
          cell_fn(cell);
        } catch (const std::exception& e) {
          // Attach the cell's identity so the (deterministic, in cell order)
          // rethrow below names the failing cell, not just the error.
          throw Error("sweep cell " + std::to_string(cell.index) + " (" +
                      describe_coords(grid, cell.coords) + "): " + e.what());
        }
        if (options.progress) {
          std::lock_guard<std::mutex> lock(progress_mutex);
          options.progress(++completed, total);
        }
      }));
    }
  }  // pool destructor joins after draining: every cell has finished here

  // Collect results only after the pool is quiet: rethrowing while cells
  // still run would let them touch destroyed caller state. Report the first
  // failure in cell order (deterministic, like everything else).
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace sehc
