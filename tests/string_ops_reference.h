// Straightforward copies of the string operators the library ships in a
// faster form: the random initial solution of the paper's §4.2 and the GA's
// scheduling and matching crossovers (Wang et al.). They are the oracle the
// differential tests compare the library's operators against, draw for draw
// and segment for segment.
//
// Each copy keeps the simple shape: a fresh topological_order() per sample,
// valid ranges walked through in_edges()/out_edges() and edge(), moves made
// with std::rotate, and every string built by the checked SolutionString
// constructor from materialised order() and assignment() vectors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "dag/topo.h"
#include "sched/encoding.h"

namespace sehc::reference {

/// A solution string as plain vectors: the segments and the task ->
/// position index.
struct String {
  std::vector<Segment> segments;
  std::vector<std::size_t> pos;

  static String from(const SolutionString& s) {
    String out;
    out.segments.assign(s.segments().begin(), s.segments().end());
    out.pos.assign(s.positions().begin(), s.positions().end());
    return out;
  }

  SolutionString to_solution() const {
    std::vector<TaskId> order(segments.size());
    std::vector<MachineId> assignment(segments.size());
    for (std::size_t i = 0; i < segments.size(); ++i) {
      order[i] = segments[i].task;
      assignment[segments[i].task] = segments[i].machine;
    }
    return SolutionString(order, assignment);
  }
};

/// SolutionString::valid_range over the edge lists.
inline ValidRange valid_range(const String& s, const TaskGraph& g, TaskId t) {
  SEHC_CHECK(g.num_tasks() == s.segments.size(),
             "valid_range: graph/string size mismatch");
  SEHC_CHECK(t < s.pos.size(), "SolutionString::position_of: bad task");
  const std::size_t k = s.segments.size();
  const std::size_t p = s.pos[t];
  std::ptrdiff_t last_pred = -1;
  std::size_t first_succ = k;
  for (DataId d : g.in_edges(t)) {
    last_pred = std::max(last_pred,
                         static_cast<std::ptrdiff_t>(s.pos[g.edge(d).src]));
  }
  for (DataId d : g.out_edges(t)) {
    first_succ = std::min(first_succ, s.pos[g.edge(d).dst]);
  }
  const std::size_t lo =
      last_pred < 0 ? 0
                    : (static_cast<std::size_t>(last_pred) < p
                           ? static_cast<std::size_t>(last_pred) + 1
                           : static_cast<std::size_t>(last_pred));
  const std::size_t hi =
      first_succ == k ? k - 1 : (first_succ < p ? first_succ : first_succ - 1);
  SEHC_CHECK(lo <= hi, "valid_range: empty range implies invalid string");
  return ValidRange{lo, hi};
}

/// SolutionString::move_task as a std::rotate plus a position fix-up.
inline void move_task(String& s, TaskId t, std::size_t new_pos) {
  SEHC_CHECK(t < s.pos.size(), "SolutionString::position_of: bad task");
  const std::size_t old_pos = s.pos[t];
  SEHC_CHECK(new_pos < s.segments.size(), "move_task: position out of range");
  if (new_pos == old_pos) return;
  const Segment moving = s.segments[old_pos];
  auto begin = s.segments.begin();
  if (new_pos > old_pos) {
    std::rotate(begin + static_cast<std::ptrdiff_t>(old_pos),
                begin + static_cast<std::ptrdiff_t>(old_pos) + 1,
                begin + static_cast<std::ptrdiff_t>(new_pos) + 1);
    for (std::size_t i = old_pos; i < new_pos; ++i)
      s.pos[s.segments[i].task] = i;
  } else {
    std::rotate(begin + static_cast<std::ptrdiff_t>(new_pos),
                begin + static_cast<std::ptrdiff_t>(old_pos),
                begin + static_cast<std::ptrdiff_t>(old_pos) + 1);
    for (std::size_t i = new_pos + 1; i <= old_pos; ++i)
      s.pos[s.segments[i].task] = i;
  }
  s.segments[new_pos] = moving;
  s.pos[t] = new_pos;
}

/// The paper's random initial solution: a machine per task, a fresh
/// deterministic topological sort, then up to 2k random valid-range moves.
inline SolutionString random_initial_solution(const TaskGraph& g,
                                              std::size_t num_machines,
                                              Rng& rng) {
  SEHC_CHECK(num_machines > 0, "random_initial_solution: no machines");
  const std::size_t k = g.num_tasks();
  std::vector<MachineId> assignment(k);
  for (auto& m : assignment)
    m = static_cast<MachineId>(rng.below(num_machines));
  const auto order = topological_order(g);
  SEHC_CHECK(order.has_value(), "random_initial_solution: cyclic graph");
  String s = String::from(SolutionString(*order, assignment));
  const std::size_t moves = k == 0 ? 0 : rng.below(2 * k + 1);
  for (std::size_t i = 0; i < moves; ++i) {
    const TaskId t = static_cast<TaskId>(rng.below(k));
    const ValidRange range = valid_range(s, g, t);
    const std::size_t target =
        range.lo + static_cast<std::size_t>(rng.below(range.size()));
    move_task(s, t, target);
  }
  return s.to_solution();
}

/// Matching crossover: one cut over task ids; tasks at or above it swap
/// machine assignments between the two children.
inline std::pair<SolutionString, SolutionString> matching_crossover(
    const SolutionString& a, const SolutionString& b, Rng& rng) {
  SEHC_CHECK(a.size() == b.size() && !a.empty(),
             "matching_crossover: size mismatch");
  const std::size_t k = a.size();
  const std::size_t cut = 1 + static_cast<std::size_t>(rng.below(k));
  auto order_a = a.order();
  auto order_b = b.order();
  auto asg_a = a.assignment();
  auto asg_b = b.assignment();
  for (TaskId t = static_cast<TaskId>(cut); t < k; ++t) {
    std::swap(asg_a[t], asg_b[t]);
  }
  return {SolutionString(order_a, asg_a), SolutionString(order_b, asg_b)};
}

/// Child of the scheduling crossover: `first`'s prefix [0, cut), then the
/// remaining tasks in `second`'s relative order, on `first`'s machines.
inline SolutionString order_cross_child(const SolutionString& first,
                                        const SolutionString& second,
                                        std::size_t cut) {
  const std::size_t k = first.size();
  std::vector<TaskId> order;
  order.reserve(k);
  std::vector<bool> in_prefix(k, false);
  for (std::size_t i = 0; i < cut; ++i) {
    order.push_back(first.segment(i).task);
    in_prefix[first.segment(i).task] = true;
  }
  for (std::size_t i = 0; i < k; ++i) {
    const TaskId t = second.segment(i).task;
    if (!in_prefix[t]) order.push_back(t);
  }
  return SolutionString(order, first.assignment());
}

/// Scheduling crossover: one cut over string positions.
inline std::pair<SolutionString, SolutionString> scheduling_crossover(
    const SolutionString& a, const SolutionString& b, Rng& rng) {
  SEHC_CHECK(a.size() == b.size() && !a.empty(),
             "scheduling_crossover: size mismatch");
  const std::size_t k = a.size();
  const std::size_t cut =
      1 + static_cast<std::size_t>(rng.below(k > 1 ? k - 1 : 1));
  return {order_cross_child(a, b, cut), order_cross_child(b, a, cut)};
}

/// The GA's crossover step: the scheduling crossover, then the matching
/// crossover of its two children.
inline std::pair<SolutionString, SolutionString> crossover(
    const SolutionString& a, const SolutionString& b, Rng& rng) {
  auto [sa, sb] = scheduling_crossover(a, b, rng);
  return matching_crossover(sa, sb, rng);
}

}  // namespace sehc::reference
