#include "dag/serialize.h"

#include <optional>
#include <sstream>

#include "dag/topo.h"

namespace sehc {

void write_dag(std::ostream& os, const TaskGraph& g) {
  os << "sehc-dag v1\n";
  os << "tasks " << g.num_tasks() << "\n";
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    // Default names are reconstructible; only store custom ones.
    if (g.name(t) != "s" + std::to_string(t)) {
      os << "name " << t << " " << g.name(t) << "\n";
    }
  }
  for (const DagEdge& e : g.edges()) {
    os << "edge " << e.src << " " << e.dst << "\n";
  }
}

TaskGraph read_dag(std::istream& is, std::vector<TaskId>* order) {
  std::string line;
  SEHC_CHECK(std::getline(is, line) && line == "sehc-dag v1",
             "read_dag: missing 'sehc-dag v1' header");
  TaskGraph g;
  bool have_tasks = false;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    const std::string where = " at line " + std::to_string(line_no);
    if (keyword == "tasks") {
      SEHC_CHECK(!have_tasks, "read_dag: duplicate 'tasks'" + where);
      std::size_t k = 0;
      SEHC_CHECK(static_cast<bool>(ls >> k), "read_dag: bad 'tasks'" + where);
      g = TaskGraph(k);
      have_tasks = true;
    } else if (keyword == "name") {
      SEHC_CHECK(have_tasks, "read_dag: 'name' before 'tasks'" + where);
      TaskId t = 0;
      std::string name;
      SEHC_CHECK(static_cast<bool>(ls >> t) && static_cast<bool>(ls >> name),
                 "read_dag: bad 'name'" + where);
      SEHC_CHECK(t < g.num_tasks(), "read_dag: name id out of range" + where);
      g.set_name(t, name);
    } else if (keyword == "edge") {
      SEHC_CHECK(have_tasks, "read_dag: 'edge' before 'tasks'" + where);
      TaskId a = 0, b = 0;
      SEHC_CHECK(static_cast<bool>(ls >> a) && static_cast<bool>(ls >> b),
                 "read_dag: bad 'edge'" + where);
      SEHC_CHECK(a < g.num_tasks() && b < g.num_tasks(),
                 "read_dag: edge endpoint out of range" + where);
      g.add_edge(a, b);
    } else {
      throw Error("read_dag: unknown keyword '" + keyword + "'" + where);
    }
  }
  SEHC_CHECK(have_tasks, "read_dag: no 'tasks' line");
  std::optional<std::vector<TaskId>> sorted = topological_order(g);
  SEHC_CHECK(sorted.has_value(), "read_dag: graph has a cycle");
  if (order != nullptr) *order = std::move(*sorted);
  return g;
}

std::string dag_to_string(const TaskGraph& g) {
  std::ostringstream os;
  write_dag(os, g);
  return os.str();
}

TaskGraph dag_from_string(const std::string& text,
                          std::vector<TaskId>* order) {
  std::istringstream is(text);
  return read_dag(is, order);
}

}  // namespace sehc
