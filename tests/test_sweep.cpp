#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "exp/campaign.h"

namespace sehc {
namespace {

// --- ThreadPool shutdown path (previously dead code) -----------------------

TEST(ThreadPoolShutdown, ZeroThreadsResolvesToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolShutdown, SubmitFuturePropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  auto g = pool.submit([] { return 1; });
  EXPECT_EQ(g.get(), 1);
}

TEST(ThreadPoolShutdown, DestructorDrainsBackloggedQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(counter.load(), 32);
}

// --- SweepGrid ---------------------------------------------------------------

TEST(SweepGrid, CoordsAndIndexRoundTrip) {
  const SweepGrid grid({{"a", 3}, {"b", 4}, {"c", 2}});
  EXPECT_EQ(grid.rank(), 3u);
  EXPECT_EQ(grid.num_cells(), 24u);
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    const auto c = grid.coords(cell);
    EXPECT_EQ((c[0] * 4 + c[1]) * 2 + c[2], cell);
  }
  // Row-major: the last axis varies fastest.
  EXPECT_EQ(grid.coords(1), (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(grid.coords(2), (std::vector<std::size_t>{0, 1, 0}));
}

TEST(SweepGrid, RejectsEmptyAxis) {
  SweepGrid grid;
  EXPECT_THROW(grid.add_axis("empty", 0), Error);
}

TEST(SweepGrid, CellSeedsAreDeterministicAndDistinct) {
  const SweepGrid grid({{"scheduler", 2}, {"seed", 5}});
  std::set<std::uint64_t> seeds;
  for (std::size_t cell = 0; cell < grid.num_cells(); ++cell) {
    const std::uint64_t s = grid.cell_seed(42, cell);
    EXPECT_EQ(s, grid.cell_seed(42, cell));  // pure function of coordinates
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), grid.num_cells());      // no collisions on the grid
  EXPECT_NE(grid.cell_seed(42, 0), grid.cell_seed(43, 0));  // base matters
}

TEST(SweepGrid, DeriveSeedDistinguishesPrefixes) {
  // (1, 2) and (2, 1) must not collide, nor must (x) and (x, 0).
  EXPECT_NE(derive_seed(7, {1, 2}), derive_seed(7, {2, 1}));
  EXPECT_NE(derive_seed(7, {1}), derive_seed(7, {1, 0}));
}

// --- sweep_map ---------------------------------------------------------------

TEST(SweepMap, ResultsOrderedByCellIndexForAnyThreadCount) {
  const SweepGrid grid({{"x", 4}, {"y", 5}});
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SweepOptions opt;
    opt.threads = threads;
    const auto results = sweep_map(grid, opt, [](const SweepCell& cell) {
      return cell.at(0) * 100 + cell.at(1);
    });
    ASSERT_EQ(results.size(), 20u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto c = grid.coords(i);
      EXPECT_EQ(results[i], c[0] * 100 + c[1]);
    }
  }
}

TEST(SweepMap, PropagatesFirstCellExceptionAfterDraining) {
  const SweepGrid grid({{"i", 16}});
  SweepOptions opt;
  opt.threads = 4;
  std::atomic<int> started{0};
  try {
    (void)sweep_map(grid, opt, [&started](const SweepCell& cell) -> int {
      started.fetch_add(1);
      if (cell.index % 3 == 1) throw std::runtime_error("cell failure");
      return 0;
    });
    FAIL() << "expected the cell exception to propagate";
  } catch (const std::runtime_error& e) {
    // The first failing cell in cell order is 1; its identity (index and
    // axis-named coordinates) is attached to the propagated error.
    EXPECT_STREQ(e.what(), "sweep cell 1 (i=1): cell failure");
  }
  // The sweep never abandons in-flight work: every cell ran to completion
  // (or threw) before the exception escaped.
  EXPECT_EQ(started.load(), 16);
}

TEST(SweepMap, ProgressCallbackCountsEveryCell) {
  const SweepGrid grid({{"i", 10}});
  SweepOptions opt;
  opt.threads = 4;
  std::vector<std::size_t> done;
  opt.progress = [&done](std::size_t completed, std::size_t total) {
    EXPECT_EQ(total, 10u);
    done.push_back(completed);
  };
  (void)sweep_map(grid, opt, [](const SweepCell& cell) { return cell.index; });
  ASSERT_EQ(done.size(), 10u);
  for (std::size_t i = 0; i < done.size(); ++i) EXPECT_EQ(done[i], i + 1);
}

// --- repetitions of a parallel scheduler sweep -------------------------------

TEST(RunSuiteSweep, RepetitionsGetDistinctWorkloads) {
  CampaignSpec spec;
  spec.name = "suite-sweep";
  WorkloadParams wp;
  wp.tasks = 12;
  wp.machines = 3;
  wp.seed = 5;
  spec.classes = {{"w", wp}};
  spec.schedulers = {"SE", "Random"};
  spec.repetitions = 3;
  spec.iterations = 10;
  spec.base_seed = 5;
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions opt;
  opt.threads = 2;
  run_campaign(spec, store, opt);

  // 1 class x 3 repetitions x 2 schedulers.
  const auto records = campaign_records(store);
  ASSERT_EQ(records.size(), 6u);
  const auto lower_bound = [&](const std::string& scheduler, std::size_t rep) {
    for (const CampaignRecord& rec : records) {
      if (rec.scheduler == scheduler && rec.repetition == rep) {
        return rec.lower_bound;
      }
    }
    ADD_FAILURE() << "no " << scheduler << " record for rep " << rep;
    return 0.0;
  };
  // Different derived seeds must generate different instances; the lower
  // bound is a cheap fingerprint of the instance.
  EXPECT_NE(lower_bound("SE", 0), lower_bound("SE", 1));
  EXPECT_NE(lower_bound("SE", 1), lower_bound("SE", 2));
  // Both schedulers of a repetition see the same instance.
  for (std::size_t rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(lower_bound("SE", rep), lower_bound("Random", rep));
  }
}

}  // namespace
}  // namespace sehc
