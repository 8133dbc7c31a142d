// Tabu search on the combined string encoding — a short-memory local
// search baseline complementing SA (uphill via memory rather than via
// temperature).
//
// Neighborhood: the best non-tabu single-task move among a sampled set of
// (task, position, machine) candidates per iteration; a move is committed
// even when uphill (classic tabu), the reverse attribute (task, old
// position, old machine) becomes tabu for `tenure` iterations, and
// aspiration overrides tabu when a move beats the best-known solution.
//
// The tabu list holds only the reverse attributes of the moves committed
// in the last `tenure` iterations, so its memory is at most `tenure`
// entries, whatever the workload's size.
//
// TabuEngine is a Searcher (search/searcher.h): one step() is one tabu
// iteration (one sampled neighborhood scan plus the committed move).
#pragma once

#include <cstdint>
#include <deque>

#include "search/searcher.h"

namespace sehc {

struct TabuParams {
  /// Iterations a reversed move stays forbidden.
  std::size_t tenure = 25;
  /// Candidate moves sampled per iteration.
  std::size_t samples = 24;
  std::uint64_t seed = 1;
};

class TabuEngine final : public Searcher {
 public:
  TabuEngine(const Workload& workload, TabuParams params);

  std::string name() const override { return "Tabu"; }

 private:
  void start() override;
  void advance() override;

  /// The reverse attribute of a committed move and the iteration that
  /// committed it.
  struct TabuEntry {
    TaskId task = kInvalidTask;
    std::size_t pos = 0;
    MachineId machine = 0;
    std::size_t step = 0;
  };

  /// True when `move`'s target attribute is on the tabu list.
  bool is_tabu(const TaskMove& move) const;

  TabuParams params_;

  // Stepwise state (valid after init()). Each sampled move is a prepared
  // trial on the evaluator's snapshots of `current_` (see tabu.cpp).
  SolutionString current_;
  double current_len_ = 0.0;
  // The tabu list: the unexpired reverse attributes, oldest commit first.
  std::deque<TabuEntry> tabu_;
};

}  // namespace sehc
