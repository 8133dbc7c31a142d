// Pins every registered scheduler's schedule bit for bit.
//
// Each line of tests/golden/schedule_bits.txt is
//
//   <instance> <scheduler> <makespan bits> <schedule hash>
//
// where the makespan bits are the double's bit pattern and the schedule
// hash is content_hash64 over every task's (machine, start bits, finish
// bits), both as 16 hex digits. The one-shot schedulers run their single
// step; the searchers run three iterations, scaled by steps_per_iteration
// as in campaigns.
//
// The instances are the paper's eight classes at k = 100, l = 20, the
// Topcuoglu example, and 36 instances whose execution and transfer times
// are small integers. Generated times rarely tie, so only the integer
// instances pin the schedulers' tie-breaks (which machine wins equal
// finish times, which task wins equal ranks).
//
// A line that differs fails the test and prints the line computed. A change
// that alters results on purpose replaces the file's lines with the printed
// ones.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/content_hash.h"
#include "exp/campaign.h"
#include "heuristics/scheduler.h"
#include "topcuoglu_example.h"
#include "workload/generator.h"

namespace sehc {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// content_hash64 over every task's machine, start bits and finish bits.
std::uint64_t schedule_hash(const Schedule& s) {
  std::string bytes;
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    append_u64(bytes, s.assignment[t]);
    append_u64(bytes, std::bit_cast<std::uint64_t>(s.start[t]));
    append_u64(bytes, std::bit_cast<std::uint64_t>(s.finish[t]));
  }
  return content_hash64(bytes);
}

/// One golden line per registered scheduler for `w`.
void append_pins(std::vector<std::string>& lines, const std::string& instance,
                 const Workload& w) {
  for (const std::string& name : scheduler_names()) {
    const SchedulerInfo* info = find_scheduler(name);
    const std::size_t iterations = info->one_shot != nullptr ? 1 : 3;
    const Budget budget = Budget::steps(iterations * info->steps_per_iteration);
    const auto engine = make_search_engine(name, w, budget, /*seed=*/1);
    const SearchResult r = run_search(*engine, budget);
    lines.push_back(instance + " " + name + " " +
                    hash_to_hex(std::bit_cast<std::uint64_t>(r.best_makespan)) +
                    " " + hash_to_hex(schedule_hash(r.schedule)));
  }
}

/// The generated graph of k tasks on l machines (connectivity and seed from
/// `s`), with E[m][t] = 1 + (31m + 17t + s) mod 4 and, for machine pair q
/// and data item d, Tr[q][d] = (5d + q + s) mod 3.
Workload integer_instance(std::size_t k, std::size_t l, std::size_t s) {
  WorkloadParams p;
  p.tasks = k;
  p.machines = l;
  const Level connectivity[] = {Level::kLow, Level::kMedium, Level::kHigh};
  p.connectivity = connectivity[s % 3];
  p.seed = s + 1;
  const Workload base = make_workload(p);
  Matrix<double> exec(l, k);
  for (MachineId m = 0; m < l; ++m)
    for (TaskId t = 0; t < k; ++t) exec(m, t) = 1 + (31 * m + 17 * t + s) % 4;
  Matrix<double> tr(base.transfer_matrix().rows(), base.num_items());
  for (std::size_t q = 0; q < tr.rows(); ++q)
    for (DataId d = 0; d < tr.cols(); ++d) tr(q, d) = (5 * d + q + s) % 3;
  return Workload(base.graph(), MachineSet(l), std::move(exec), std::move(tr));
}

std::vector<std::string> computed_pins() {
  std::vector<std::string> lines;
  for (CampaignClass c : make_builtin_campaign("equal-evals-grid").classes) {
    c.params.seed = 1;
    append_pins(lines, c.name, make_workload(c.params));
  }
  append_pins(lines, "topcuoglu", topcuoglu_example());
  for (std::size_t k : {12, 40}) {
    for (std::size_t l : {2, 3, 5}) {
      for (std::size_t s = 0; s < 6; ++s) {
        append_pins(lines,
                    "int-k" + std::to_string(k) + "-l" + std::to_string(l) +
                        "-s" + std::to_string(s),
                    integer_instance(k, l, s));
      }
    }
  }
  return lines;
}

std::vector<std::string> golden_pins() {
  std::ifstream in(std::string(SEHC_GOLDEN_DIR) + "/schedule_bits.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(ScheduleBits, EverySchedulerMatchesTheCommittedBits) {
  const std::vector<std::string> golden = golden_pins();
  const std::vector<std::string> computed = computed_pins();
  EXPECT_EQ(golden.size(), computed.size());
  for (std::size_t i = 0; i < computed.size(); ++i) {
    const std::string expected = i < golden.size() ? golden[i] : "";
    if (computed[i] != expected) {
      ADD_FAILURE() << "golden:   " << expected << "\ncomputed: " << computed[i];
    }
  }
}

}  // namespace
}  // namespace sehc
