// The combined matching + scheduling encoding of the paper (§4.1).
//
// A solution is a string of k segments, each pairing a subtask with a
// machine. The string order must be a topological order of the DAG; the
// subsequence of tasks paired with machine m is the execution order on m.
//
// SolutionString maintains the segment vector plus a task -> position index
// so that valid-range computation and moves are O(k) worst case. The class
// does not store the DAG; operations that depend on precedence take it as a
// parameter, which keeps the type a cheap value (copied per trial move in
// the allocation step). The assign_* members rebuild a string in place, so
// the random sampler and GA/GSA offspring reuse one string's storage
// instead of allocating a new one per draw.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "dag/task_graph.h"

namespace sehc {

class Rng;

/// One segment of the encoding: subtask s assigned to machine m.
struct Segment {
  TaskId task = kInvalidTask;
  MachineId machine = 0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Inclusive range [lo, hi] of string positions a task may occupy without
/// violating any precedence constraint (the paper's "valid moving range").
struct ValidRange {
  std::size_t lo = 0;
  std::size_t hi = 0;

  std::size_t size() const { return hi - lo + 1; }
  bool contains(std::size_t p) const { return p >= lo && p <= hi; }

  friend bool operator==(const ValidRange&, const ValidRange&) = default;
};

class SolutionString {
 public:
  SolutionString() = default;

  /// Builds from an explicit task order + per-task machine assignment.
  /// `order` must be a permutation of 0..k-1 (topological validity is the
  /// caller's contract; check with is_valid()).
  SolutionString(std::span<const TaskId> order,
                 std::span<const MachineId> assignment);

  /// Rebuilds the string in place as `order` with every task on machine 0,
  /// reusing its storage. Checks `order` as the constructor does.
  void assign_order(std::span<const TaskId> order);

  /// Rebuilds the string in place, reusing its storage, as one child of the
  /// GA crossover (ga/operators.h): `first`'s segments [0, order_cut), then
  /// the remaining tasks in `second`'s relative order. Task t keeps
  /// `first`'s machine when t < machine_cut and takes `second`'s otherwise.
  /// The parents must be permutations of the same tasks and must not alias
  /// this string; the child is a topological order whenever both are.
  void assign_crossover(const SolutionString& first,
                        const SolutionString& second, std::size_t order_cut,
                        std::size_t machine_cut);

  std::size_t size() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }

  const Segment& segment(std::size_t pos) const;
  std::span<const Segment> segments() const { return segments_; }

  /// Task id -> position index as a flat span (check-free hot-path access;
  /// positions()[t] == position_of(t)).
  std::span<const std::size_t> positions() const { return pos_; }

  std::size_t position_of(TaskId t) const;
  MachineId machine_of(TaskId t) const;

  /// Task order as a flat vector (for interop with topo utilities).
  std::vector<TaskId> order() const;

  /// Machine assignment indexed by task id.
  std::vector<MachineId> assignment() const;

  /// Reassigns `t` to `m` without moving it.
  void set_machine(TaskId t, MachineId m);

  /// Moves `t` so that its final position is `new_pos`, shifting the
  /// segments in between. `new_pos` must be within the task's valid range
  /// for the move to preserve topological validity (not checked here).
  void move_task(TaskId t, std::size_t new_pos);

  /// The paper's valid moving range for `t`: every position between its
  /// latest-placed predecessor and earliest-placed successor. Positions are
  /// final positions as used by move_task.
  ValidRange valid_range(const TaskGraph& g, TaskId t) const;

  /// True iff the string is a permutation of g's tasks in topological order.
  bool is_valid(const TaskGraph& g) const;

  friend bool operator==(const SolutionString&, const SolutionString&) = default;

 private:
  std::vector<Segment> segments_;
  std::vector<std::size_t> pos_;  // task id -> position in segments_
};

/// One task moved to a new position and machine, with the placement it
/// left: the neighbourhood move of simulated annealing and tabu search. The
/// new position must lie in the task's valid range of the string it is
/// applied to.
struct TaskMove {
  TaskId task = kInvalidTask;
  std::size_t old_pos = 0;
  MachineId old_machine = 0;
  std::size_t new_pos = 0;
  MachineId new_machine = 0;

  void apply(SolutionString& s) const {
    s.move_task(task, new_pos);
    s.set_machine(task, new_machine);
  }
  void undo(SolutionString& s) const {
    s.move_task(task, old_pos);
    s.set_machine(task, old_machine);
  }
  /// First string position the move rewrites: a prepared trial of the
  /// moved string starts simulating there.
  std::size_t suffix_start() const { return std::min(old_pos, new_pos); }
};

/// Random valid initial solution per the paper (§4.2): random machine
/// assignment, topological sort, then a random number of random valid-range
/// moves. A moved task keeps the machine it was drawn with.
SolutionString random_initial_solution(const TaskGraph& g,
                                       std::size_t num_machines, Rng& rng);

/// The same sampler on a precomputed `topo_order` of `g` (for example
/// Workload::topo_order()), written into `out` with its storage reused.
/// Makes exactly the draws of the overload above and yields the same string.
void random_initial_solution(const TaskGraph& g,
                             std::span<const TaskId> topo_order,
                             std::size_t num_machines, Rng& rng,
                             SolutionString& out);

}  // namespace sehc
