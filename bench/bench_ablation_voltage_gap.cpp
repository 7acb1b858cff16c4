// Ablation: the inter-tier voltage gap (paper §II-B / §III-B). Sweeps the
// slow tier's rail downward and measures the FO-4 boundary effects plus
// the level-shifter-free rule V_DDH − V_DDL < 0.3·V_DDH (and < Vthp).
//
// Expected shape: the boundary delay/leakage discrepancies grow with the
// gap; past ~0.3·V_DDH the rule fails and level shifters would be
// mandatory — which the paper shows is untenable at monolithic densities
// (~15 % of all nets cross tiers).

#include <cstdio>

#include "ckt/fo4.hpp"
#include "tech/tech_lib.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using namespace m3d;
using util::TextTable;

namespace {

int run(int, char**) {
  const auto fast = ckt::fast_inverter();

  TextTable t(
      "Ablation — inter-tier voltage gap (fast tier fixed at 0.90 V; slow "
      "tier rail swept). FO-4 driver on the slow tier, input from the fast "
      "tier.");
  t.header({"V_low (V)", "gap/V_DDH", "fall delay D%", "rise delay D%",
            "leakage D%", "LS-free rule"});

  for (double vlow : {0.87, 0.81, 0.75, 0.69, 0.63, 0.57, 0.51}) {
    auto slow = ckt::slow_inverter();
    slow.vdd = vlow;
    // Native-rail baseline for this corner.
    ckt::Fo4Config base;
    base.driver = base.load = slow;
    base.input_vdd = vlow;
    // Boundary case: input swings to the fast rail.
    ckt::Fo4Config cross = base;
    cross.input_vdd = fast.vdd;

    const auto rb = ckt::simulate_fo4(base);
    const auto rc = ckt::simulate_fo4(cross);
    const double gap = (fast.vdd - vlow) / fast.vdd;
    const bool ls_free =
        tech::level_shifter_free(fast.vdd, vlow, /*min_vthp=*/0.30);
    t.row({TextTable::num(vlow, 2), TextTable::num(gap, 2),
           TextTable::pct(
               (rc.fall_delay_ps / rb.fall_delay_ps - 1.0) * 100.0, 1),
           TextTable::pct(
               (rc.rise_delay_ps / rb.rise_delay_ps - 1.0) * 100.0, 1),
           TextTable::pct((rc.leakage_uw / rb.leakage_uw - 1.0) * 100.0, 1),
           ls_free ? "OK" : "VIOLATED"});
  }
  t.print();

  std::printf(
      "paper rule: V_DDH - V_DDL < 0.3 x V_DDH (and below Vthp) for "
      "level-shifter-free operation;\nthe 0.90/0.81 V pair used throughout "
      "the paper sits at a 10 %% gap.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
