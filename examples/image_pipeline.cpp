// A heterogeneous-computing scenario in the spirit of the paper's
// introduction: a coarse-grained image-analysis application whose subtasks
// prefer different machine architectures (SIMD for pixel-parallel filters,
// a special-purpose FFT engine, MIMD nodes for irregular feature matching).
//
// The DAG is built explicitly with DagBuilder; the E matrix encodes the
// architecture affinities by hand instead of coming from the random
// generator, and data-item transfer times model shipping image tiles over
// the interconnect.
//
//   $ ./image_pipeline
#include <iostream>

#include "core/table.h"
#include "dag/builder.h"
#include "dag/dot.h"
#include "heuristics/heft.h"
#include "sched/gantt.h"
#include "se/se.h"

namespace {

using namespace sehc;

Workload build_pipeline() {
  // Stage 1: decode; Stage 2: two parallel tile filters (SIMD-friendly);
  // Stage 3: FFT-based registration (special-purpose-friendly);
  // Stage 4: feature extraction per tile (MIMD-friendly); Stage 5: fusion.
  DagBuilder b;
  b.tasks({"decode", "filterA", "filterB", "fft_reg", "featA", "featB",
           "fuse", "report"});
  b.edge("decode", "filterA");   // d0: tile A
  b.edge("decode", "filterB");   // d1: tile B
  b.edge("filterA", "fft_reg");  // d2
  b.edge("filterB", "fft_reg");  // d3
  b.edge("fft_reg", "featA");    // d4
  b.edge("fft_reg", "featB");    // d5
  b.edge("featA", "fuse");       // d6
  b.edge("featB", "fuse");       // d7
  b.edge("fuse", "report");      // d8
  TaskGraph g = b.finish();

  MachineSet machines;
  machines.add("mimd0", MachineArch::kMimd);
  machines.add("mimd1", MachineArch::kMimd);
  machines.add("simd", MachineArch::kSimd);
  machines.add("fftbox", MachineArch::kSpecialPurpose);

  // E[m][t]: hand-modelled affinities (ms). Rows: mimd0, mimd1, simd, fftbox.
  const double E[4][8] = {
      // decode filtA filtB fft_reg featA featB fuse report
      {40,      90,   90,   150,    35,   35,   25,  10},   // mimd0
      {45,      95,   95,   160,    38,   38,   28,  12},   // mimd1
      {60,      20,   20,   120,    80,   80,   60,  30},   // simd (filters fly)
      {80,      70,   70,   30,     90,   90,   70,  35},   // fftbox (FFT flies)
  };
  Matrix<double> exec(4, 8);
  for (MachineId m = 0; m < 4; ++m)
    for (TaskId t = 0; t < 8; ++t) exec(m, t) = E[m][t];

  // Transfer times per data item across each of the 6 machine pairs:
  // image tiles (d0..d5) are heavy, feature lists (d6..d8) are light.
  Matrix<double> tr(6, 9);
  for (std::size_t p = 0; p < 6; ++p) {
    for (DataId d = 0; d < 9; ++d) tr(p, d) = d <= 5 ? 25.0 : 5.0;
  }
  return Workload(std::move(g), std::move(machines), std::move(exec),
                  std::move(tr));
}

}  // namespace

int main() {
  const Workload w = build_pipeline();

  std::cout << "Image-analysis pipeline on {2x MIMD, SIMD, FFT-engine}\n\n";

  const Schedule heft = heft_schedule(w);
  SeParams p;
  p.seed = 3;
  SeEngine engine(w, p);
  const SearchResult se = run_search(engine, Budget::steps(300));

  Table table({"scheduler", "makespan_ms"});
  table.begin_row().add("HEFT").add(heft.makespan, 1);
  table.begin_row().add("SE").add(se.best_makespan, 1);
  table.write_markdown(std::cout);

  std::cout << "\nSE schedule:\n";
  write_gantt(std::cout, w, se.schedule);

  std::cout << "\nWhere each subtask landed:\n";
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    const MachineId m = se.schedule.assignment[t];
    std::cout << "  " << w.graph().name(t) << " -> " << w.machines()[m].name
              << " (" << to_string(w.machines()[m].arch) << ")\n";
  }

  std::cout << "\nDOT export of the matched DAG (paste into graphviz):\n";
  write_dot(std::cout, w.graph(), se.schedule.assignment, "pipeline");
  return 0;
}
