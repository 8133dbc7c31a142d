#include "dag/topo.h"

#include <algorithm>
#include <functional>

#include "core/rng.h"

namespace sehc {

namespace {

/// Kahn's algorithm over a ready set: `ready.push(t)` adds a task whose
/// predecessors are all placed, `ready.pop()` removes the next one to place.
template <typename Ready>
std::optional<std::vector<TaskId>> kahn(const TaskGraph& g, Ready ready) {
  const std::size_t k = g.num_tasks();
  std::vector<std::size_t> indegree(k);
  for (TaskId t = 0; t < k; ++t) {
    indegree[t] = g.in_degree(t);
    if (indegree[t] == 0) ready.push(t);
  }
  std::vector<TaskId> order;
  order.reserve(k);
  while (!ready.empty()) {
    const TaskId t = ready.pop();
    order.push_back(t);
    for (TaskId succ : g.succs(t)) {
      if (--indegree[succ] == 0) ready.push(succ);
    }
  }
  if (order.size() != k) return std::nullopt;  // cycle
  return order;
}

/// Lowest id first, from a binary min-heap: O(log k) per task.
struct LowestIdReady {
  std::vector<TaskId> heap;

  bool empty() const { return heap.empty(); }
  void push(TaskId t) {
    heap.push_back(t);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  TaskId pop() {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const TaskId t = heap.back();
    heap.pop_back();
    return t;
  }
};

/// A uniform draw; the last ready task fills the drawn slot. GA and GSA
/// seed their populations from this draw order, so it must not change.
struct RandomReady {
  Rng& rng;
  std::vector<TaskId> ready;

  bool empty() const { return ready.empty(); }
  void push(TaskId t) { ready.push_back(t); }
  TaskId pop() {
    const std::size_t i = rng.index(ready.size());
    const TaskId t = ready[i];
    ready[i] = ready.back();
    ready.pop_back();
    return t;
  }
};

}  // namespace

std::optional<std::vector<TaskId>> topological_order(const TaskGraph& g) {
  return kahn(g, LowestIdReady{});
}

std::optional<std::vector<TaskId>> random_topological_order(const TaskGraph& g,
                                                            Rng& rng) {
  return kahn(g, RandomReady{rng, {}});
}

bool is_acyclic(const TaskGraph& g) { return topological_order(g).has_value(); }

bool is_topological_order(const TaskGraph& g, std::span<const TaskId> order) {
  const std::size_t k = g.num_tasks();
  if (order.size() != k) return false;
  std::vector<std::size_t> pos(k, k);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= k) return false;
    if (pos[order[i]] != k) return false;  // duplicate
    pos[order[i]] = i;
  }
  for (const DagEdge& e : g.edges()) {
    if (pos[e.src] >= pos[e.dst]) return false;
  }
  return true;
}

}  // namespace sehc
