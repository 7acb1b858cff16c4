// Reproduces paper Table II (and Fig. 2a): impact of heterogeneous
// technology when the FO-4 driver and its loads sit on different tiers.
//
//   Case-I  : fast driver, fast loads   (homogeneous fast baseline)
//   Case-II : fast driver, slow loads   (heterogeneity at driver output)
//   Case-III: slow driver, slow loads   (homogeneous slow baseline)
//   Case-IV : slow driver, fast loads   (heterogeneity at driver output)
//
// Expected shape (paper): Case-II is *faster* than Case-I (lighter foreign
// loads, Δ% negative on every timing row), Case-IV *slower* than Case-III
// (Δ% positive), leakage essentially unchanged in both pairs, and all slew
// shifts small enough to stay inside library characterization ranges.

#include <cstdio>

#include "ckt/fo4.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using m3d::ckt::fast_inverter;
using m3d::ckt::Fo4Config;
using m3d::ckt::Fo4Result;
using m3d::ckt::simulate_fo4;
using m3d::ckt::slow_inverter;
using m3d::util::TextTable;

namespace {

double pct(double a, double b) { return (a - b) / b * 100.0; }

int run(int, char**) {
  Fo4Config c1;  // fast/fast
  Fo4Config c2;  // fast driver, slow loads
  c2.load = slow_inverter();
  Fo4Config c3;  // slow/slow
  c3.driver = c3.load = slow_inverter();
  c3.input_vdd = 0.81;
  Fo4Config c4;  // slow driver, fast loads
  c4.driver = slow_inverter();
  c4.input_vdd = 0.81;

  const Fo4Result r1 = simulate_fo4(c1);
  const Fo4Result r2 = simulate_fo4(c2);
  const Fo4Result r3 = simulate_fo4(c3);
  const Fo4Result r4 = simulate_fo4(c4);

  TextTable t(
      "Table II — heterogeneity at the driver output (FO-4, Fig. 2a).\n"
      "Time in ps, power in uW. Delta% compares II vs I and IV vs III.");
  t.header({"", "Case-I", "Case-II", "D%", "Case-III", "Case-IV", "D%"});
  t.row({"Tier-0 (driver)", "fast", "fast", "-", "slow", "slow", "-"});
  t.row({"Tier-1 (loads)", "fast", "slow", "-", "slow", "fast", "-"});
  auto row = [&](const char* name, auto get) {
    t.row({name, TextTable::num(get(r1), 3), TextTable::num(get(r2), 3),
           TextTable::pct(pct(get(r2), get(r1)), 1),
           TextTable::num(get(r3), 3), TextTable::num(get(r4), 3),
           TextTable::pct(pct(get(r4), get(r3)), 1)});
  };
  row("Rise Slew", [](const Fo4Result& r) { return r.rise_slew_ps; });
  row("Fall Slew", [](const Fo4Result& r) { return r.fall_slew_ps; });
  row("Rise Del.", [](const Fo4Result& r) { return r.rise_delay_ps; });
  row("Fall Del.", [](const Fo4Result& r) { return r.fall_delay_ps; });
  row("Lkg. Pow.", [](const Fo4Result& r) { return r.leakage_uw; });
  row("Total Pow.", [](const Fo4Result& r) { return r.total_power_uw; });
  t.print();

  std::printf(
      "paper reference (Table II):\n"
      "  Case-II vs I : slews -6.7/-16.9 %%, delays -13.1/-18.1 %%, "
      "leakage -0.3 %%, power -4.3 %%\n"
      "  Case-IV vs III: slews +14.2/+8.1 %%, delays +6.4/+22.3 %%, "
      "leakage -1.3 %%, power +9.0 %%\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
