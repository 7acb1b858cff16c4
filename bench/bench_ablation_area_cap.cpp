// Ablation: the timing-partition area cap (paper §III-A1 uses 20–30 %).
//
// Too small a cap leaves critical cells on the slow tier (bad WNS); too
// large a cap pins dense physical clusters to one die, unbalancing the
// placement (the paper's stated reason for limiting it) — visible here as
// growing cut size, wirelength and footprint.

#include <cstdio>

#include "common.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using namespace m3d;
using util::TextTable;

namespace {

int run(int, char**) {
  bench::quiet_logs();
  const auto nl = bench::build("cpu");
  const double period = bench::target_period_ns(nl);
  std::printf("[cpu] cells=%d target=%.3f GHz\n", nl.stats().cells,
              1.0 / period);
  std::fflush(stdout);

  TextTable t("Ablation — timing-partition area cap (CPU, iso-frequency; "
              "paper default 20-30 %)");
  t.header({"Area cap", "Pinned cells", "Cut", "WNS (ns)", "WL (m)",
            "Si area (mm2)", "Power (mW)", "PPC"});
  for (double cap : {0.05, 0.10, 0.20, 0.25, 0.30, 0.40, 0.50}) {
    auto opts = bench::flow_options(period);
    opts.timing_area_cap = cap;
    const auto res = core::run_flow(nl, core::Config::Hetero3D, opts);
    t.row({TextTable::num(cap * 100.0, 0) + "%",
           TextTable::integer(res.timing_part.pinned_cells),
           TextTable::integer(res.timing_part.cut),
           TextTable::num(res.metrics.wns_ns, 3),
           TextTable::num(res.metrics.wirelength_m, 3),
           TextTable::num(res.metrics.silicon_area_mm2, 4),
           TextTable::num(res.metrics.total_power_mw, 1),
           TextTable::num(res.metrics.ppc, 3)});
  }
  t.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
