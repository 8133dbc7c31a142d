// Random search baseline: sample independent random valid solutions and
// keep the best. The weakest sensible comparator; iterative heuristics must
// beat it to justify their machinery.
//
// RandomSearchEngine is a Searcher (search/searcher.h): one step() draws
// and evaluates one random solution (exactly one evaluator trial). It has
// no incumbent, and best_schedule() throws, until its first sample.
#pragma once

#include <cstdint>

#include "search/searcher.h"

namespace sehc {

class RandomSearchEngine final : public Searcher {
 public:
  RandomSearchEngine(const Workload& workload, std::uint64_t seed);

  std::string name() const override { return "Random"; }

 private:
  void start() override;
  void advance() override;

  std::uint64_t seed_;
  SolutionString candidate_;  // reused by every draw
};

}  // namespace sehc
