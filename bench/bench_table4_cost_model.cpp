// Reproduces paper Table IV: the cost-model assumptions and equations
// (1)–(5), plus a die-area sweep showing dies-per-wafer, yields and die
// costs for 2-D vs 3-D, and the crossover behaviour that motivates 3-D
// cost analysis (Ku et al. [10]).

#include <cstdio>

#include "cost/cost.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using m3d::cost::CostModel;
using m3d::util::TextTable;

namespace {

int run(int, char**) {
  CostModel m;

  TextTable assumptions("Table IV — cost model assumptions [Ku ICCAD'16]");
  assumptions.header({"Quantity", "Value"});
  assumptions.row({"Baseline wafer cost (FEOL + 8 metals)", "C'"});
  assumptions.row({"Wafer FEOL cost", "0.30 x C'"});
  assumptions.row({"Wafer BEOL cost (up to 6 metals)", "0.66 x C'"});
  assumptions.row({"3D integration cost (alpha)", "0.05 x C'"});
  assumptions.row({"Wafer diameter", "300 mm"});
  assumptions.row(
      {"Defect density (Dw)",
       TextTable::num(m.defect_density_mm2, 2) + " mm^-2"});
  assumptions.row({"Wafer yield (kappa)", TextTable::num(m.wafer_yield, 2)});
  assumptions.row(
      {"3D yield degradation (beta)", TextTable::num(m.yield_degradation_3d, 2)});
  assumptions.row(
      {"2D wafer cost (C_2D)", TextTable::num(m.wafer_cost(1), 2) + " x C'"});
  assumptions.row(
      {"3D wafer cost (C_3D)", TextTable::num(m.wafer_cost(2), 2) + " x C'"});
  assumptions.print();

  TextTable sweep(
      "Equations (1)-(5) over a die-area sweep "
      "(die cost in 1e-6 C'; 3-D die hosts the same logic at half footprint)");
  sweep.header({"2D die (mm2)", "DPW 2D", "Y2D", "cost 2D", "3D die (mm2)",
                "DPW 3D", "Y3D", "cost 3D", "3D premium %"});
  for (double a2d : {0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6,
                     51.2, 102.4}) {
    const double a3d = a2d / 2.0;
    const double c2d = m.die_cost(a2d, 1);
    const double c3d = m.die_cost(a3d, 2);
    sweep.row({TextTable::num(a2d, 2),
               TextTable::num(m.dies_per_wafer(a2d), 0),
               TextTable::num(m.die_yield(a2d, 1), 3),
               TextTable::num(c2d * 1e6, 2), TextTable::num(a3d, 2),
               TextTable::num(m.dies_per_wafer(a3d), 0),
               TextTable::num(m.die_yield(a3d, 2), 3),
               TextTable::num(c3d * 1e6, 2),
               TextTable::pct((c3d / c2d - 1.0) * 100.0, 1)});
  }
  sweep.print();

  std::printf(
      "Shape check: the folded 3-D die costs a small premium at tiny areas\n"
      "(wafer-cost dominated) and approaches / crosses below the 2-D cost\n"
      "as yield loss on large 2-D dies grows — the Ku et al. trade that\n"
      "heterogeneous 3-D then improves by shrinking the die outright.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
