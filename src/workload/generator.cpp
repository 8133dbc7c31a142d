#include "workload/generator.h"

#include "workload/gen_matrices.h"
#include "workload/random_dag.h"

namespace sehc {

Workload make_workload(const WorkloadParams& params) {
  SEHC_CHECK(params.tasks > 0 && params.machines > 0,
             "make_workload: empty problem");
  Rng rng(params.seed);
  Rng dag_rng = rng.split(0x01);
  Rng exec_rng = rng.split(0x02);
  Rng tr_rng = rng.split(0x03);

  TaskGraph graph = random_layered_dag(
      dag_params_for(params.tasks, params.connectivity), dag_rng);
  Matrix<double> exec =
      generate_exec_matrix(params.machines, params.tasks, params.heterogeneity,
                           params.mean_exec, exec_rng, params.consistency);
  Matrix<double> transfer =
      generate_transfer_matrix(graph, exec, params.ccr, tr_rng);
  return Workload(std::move(graph), MachineSet(params.machines),
                  std::move(exec), std::move(transfer));
}

Workload make_workload_for_graph(TaskGraph graph, std::size_t machines,
                                 Level heterogeneity, double ccr,
                                 double mean_exec, std::uint64_t seed) {
  Rng rng(seed);
  Rng exec_rng = rng.split(0x02);
  Rng tr_rng = rng.split(0x03);
  Matrix<double> exec = generate_exec_matrix(
      machines, graph.num_tasks(), heterogeneity, mean_exec, exec_rng);
  Matrix<double> transfer =
      generate_transfer_matrix(graph, exec, ccr, tr_rng);
  return Workload(std::move(graph), MachineSet(machines), std::move(exec),
                  std::move(transfer));
}

Workload figure1_workload() {
  // 7 subtasks, 6 data items, 2 machines — same shape as the paper's
  // Figure 1 (exact published values are illegible in the source scan, so
  // the costs are representative ones). Data item ids follow edge insertion
  // order:
  //   d0: s0->s2   d1: s0->s3   d2: s0->s4
  //   d3: s1->s4   d4: s2->s5   d5: s5->s6
  // The Figure 2 encoding string of the paper (m0: s0,s3,s4; m1: s1,s2,s5,s6)
  // is a valid solution for this DAG.
  TaskGraph g(7);
  g.add_edge(0, 2);  // d0
  g.add_edge(0, 3);  // d1
  g.add_edge(0, 4);  // d2
  g.add_edge(1, 4);  // d3
  g.add_edge(2, 5);  // d4
  g.add_edge(5, 6);  // d5

  MachineSet machines;
  machines.add("m0", MachineArch::kMimd);
  machines.add("m1", MachineArch::kSimd);

  Matrix<double> exec(2, 7);
  const double m0_times[7] = {400, 600, 500, 700, 1000, 300, 200};
  const double m1_times[7] = {500, 550, 450, 800, 900, 350, 250};
  for (TaskId t = 0; t < 7; ++t) {
    exec(0, t) = m0_times[t];
    exec(1, t) = m1_times[t];
  }

  Matrix<double> transfer(1, 6);
  const double tr_times[6] = {100, 120, 150, 200, 80, 90};
  for (DataId d = 0; d < 6; ++d) transfer(0, d) = tr_times[d];

  return Workload(std::move(g), std::move(machines), std::move(exec),
                  std::move(transfer));
}

}  // namespace sehc
