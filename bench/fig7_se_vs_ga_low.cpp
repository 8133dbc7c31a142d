// Reproduces Figure 7 of the paper (§5.3): SE vs GA on a 100-task /
// 20-machine workload with LOW connectivity, LOW heterogeneity and
// CCR = 0.1 (lightly communicating, nearly homogeneous).
//
// Expected shape (paper): the comparison is inconclusive on this class —
// "many times, GA reached good solutions faster than SE". The bench prints
// the same summary as Figs. 5/6; README "Analysis" discusses whether the
// inconclusive-region behaviour reproduces (either heuristic may win here).
#include "se_vs_ga_common.h"

int main(int argc, char** argv) {
  using namespace sehc;
  return bench::run_se_vs_ga(bench::parse_config(
      argc, argv, "Figure 7",
      "SE vs GA, low connectivity/heterogeneity, CCR = 0.1",
      &paper_fig7_low_everything, /*default_budget=*/4.0));
}
