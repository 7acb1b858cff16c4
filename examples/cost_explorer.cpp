// Cost explorer: interactive what-if analysis with the paper's Table IV
// cost model. Answers "when does folding my die into monolithic 3-D pay
// for itself?" and "what does heterogeneous shrink do to cost and PPC?".
//
//   $ ./build/examples/cost_explorer [die_area_mm2] [power_mw] [freq_ghz]

#include <cstdio>

#include "cost/cost.hpp"
#include "util/env.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace m3d;
  // An argument that is not one whole number is a util::Error (exit 2).
  const auto arg = [&](int i, const char* name, double dflt) {
    return argc > i ? util::parse_token<double>(name, argv[i], argv[i]) : dflt;
  };
  const double area = arg(1, "die_area_mm2", 2.0);  // 2-D die, mm²
  const double power = arg(2, "power_mw", 500.0);
  const double freq = arg(3, "freq_ghz", 1.5);

  cost::CostModel m;

  // Three futures for the same chip:
  //  2-D as-is; homogeneous 3-D fold (half footprint, same silicon);
  //  heterogeneous 3-D (the paper's ~12.5 % cell-area shrink from mapping
  //  half the logic onto 25 %-smaller 9-track rows, at ~-10 % power).
  const double fp_2d = area;
  const double fp_3d = area / 2.0;
  const double fp_het = area * 0.875 / 2.0;
  const double pw_het = power * 0.90;

  const double c2d = m.die_cost(fp_2d, 1);
  const double c3d = m.die_cost(fp_3d, 2);
  const double chet = m.die_cost(fp_het, 2);

  util::TextTable t("Cost futures for a " +
                    util::TextTable::num(area, 2) + " mm2 / " +
                    util::TextTable::num(power, 0) + " mW / " +
                    util::TextTable::num(freq, 2) + " GHz chip");
  t.header({"", "2D", "3D fold", "Hetero 3D"});
  t.row({"Footprint (mm2)", util::TextTable::num(fp_2d, 3),
         util::TextTable::num(fp_3d, 3), util::TextTable::num(fp_het, 3)});
  t.row({"Dies per wafer", util::TextTable::num(m.dies_per_wafer(fp_2d), 0),
         util::TextTable::num(m.dies_per_wafer(fp_3d), 0),
         util::TextTable::num(m.dies_per_wafer(fp_het), 0)});
  t.row({"Die yield", util::TextTable::num(m.die_yield(fp_2d, 1), 3),
         util::TextTable::num(m.die_yield(fp_3d, 2), 3),
         util::TextTable::num(m.die_yield(fp_het, 2), 3)});
  t.row({"Die cost (1e-6 C')", util::TextTable::num(c2d * 1e6, 2),
         util::TextTable::num(c3d * 1e6, 2),
         util::TextTable::num(chet * 1e6, 2)});
  t.row({"PPC", util::TextTable::num(cost::ppc(freq, power, c2d), 3),
         util::TextTable::num(cost::ppc(freq, power, c3d), 3),
         util::TextTable::num(cost::ppc(freq, pw_het, chet), 3)});
  t.print();

  // Crossover: at what die size does the 3-D fold break even on cost?
  // Bisected to 0.01 mm2 — the old 1.05x geometric scan overshot the true
  // break-even by up to 5 % of the die size.
  const double crossover = cost::fold_crossover_area_mm2(m);
  if (crossover > 0)
    std::printf(
        "\n3-D fold breaks even on die cost at ~%.2f mm2 (2-D die size); "
        "below that the 5%% integration premium and beta yield hit "
        "dominate.\n",
        crossover);
  std::printf(
      "The heterogeneous shrink turns 3-D from a cost premium into a cost "
      "advantage at any size — the paper's central cost claim.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
