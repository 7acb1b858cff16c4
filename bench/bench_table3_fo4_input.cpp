// Reproduces paper Table III (and Fig. 2b): impact of heterogeneous
// technology when the *input* to the FO-4 driver comes from a different
// tier — the driver and loads share a tier, but the input swings to the
// foreign rail.
//
//   Left pair : fast cells; Case-I input 0.90 V, Case-II input 0.81 V
//   Right pair: slow cells; Case-I input 0.81 V, Case-II input 0.90 V
//
// Expected shape (paper): an *underdriven* fast stage slows down slightly
// and leaks dramatically more (+250 %); an *overdriven* slow stage speeds
// up slightly and leaks less (−45 %). Stage-delay shifts carry opposite
// signs in the two directions, which is why multi-stage paths mostly
// cancel the boundary error.

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
  Fo4Config f1;  // fast cells, native input
  Fo4Config f2;  // fast cells, input from the slow tier
  f2.input_vdd = 0.81;
  Fo4Config s1;  // slow cells, native input
  s1.driver = s1.load = slow_inverter();
  s1.input_vdd = 0.81;
  Fo4Config s2;  // slow cells, input from the fast tier
  s2.driver = s2.load = slow_inverter();
  s2.input_vdd = 0.90;

  const Fo4Result rf1 = simulate_fo4(f1);
  const Fo4Result rf2 = simulate_fo4(f2);
  const Fo4Result rs1 = simulate_fo4(s1);
  const Fo4Result rs2 = simulate_fo4(s2);

  TextTable t(
      "Table III — heterogeneity at the driver input (FO-4, Fig. 2b).\n"
      "Time in ps, power in uW.");
  t.header({"", "Case-I", "Case-II", "D%", "Case-I", "Case-II", "D%"});
  t.row({"Tier-0 (input from)", "fast", "slow", "-", "slow", "fast", "-"});
  t.row({"Tier-1 (cells)", "fast", "fast", "-", "slow", "slow", "-"});
  t.row({"Driver VG (V)", "0.90", "0.81", TextTable::pct(-10.0, 1), "0.81",
         "0.90", TextTable::pct(11.1, 1)});
  auto row = [&](const char* name, auto get) {
    t.row({name, TextTable::num(get(rf1), 3), TextTable::num(get(rf2), 3),
           TextTable::pct(pct(get(rf2), get(rf1)), 1),
           TextTable::num(get(rs1), 3), TextTable::num(get(rs2), 3),
           TextTable::pct(pct(get(rs2), get(rs1)), 1)});
  };
  row("Rise Slew", [](const Fo4Result& r) { return r.rise_slew_ps; });
  row("Fall Slew", [](const Fo4Result& r) { return r.fall_slew_ps; });
  row("Rise Del.", [](const Fo4Result& r) { return r.rise_delay_ps; });
  row("Fall Del.", [](const Fo4Result& r) { return r.fall_delay_ps; });
  row("Lkg. Pow.", [](const Fo4Result& r) { return r.leakage_uw; });
  row("Total Pow.", [](const Fo4Result& r) { return r.total_power_uw; });
  t.print();

  std::printf(
      "paper reference (Table III):\n"
      "  fast cells, 0.81 V input: delays +3.4/+4.1 %%, leakage +250 %%, "
      "power +9.2 %%\n"
      "  slow cells, 0.90 V input: delays -5.3/-5.1 %%, leakage -44.9 %%, "
      "power -0.6 %%\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
