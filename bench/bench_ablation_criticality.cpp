// Ablation: cell-based vs path-based timing criticality for the
// heterogeneous tier partitioning (paper §III-A1 vs Samal et al. [14]).
//
// The paper's argument: path-based selection cannot reach full coverage —
// missing even a few critical cells on the slow tier wrecks timing. The
// cell-based sweep (worst slack among all paths through each cell) covers
// every cell by construction. Expect the cell-based flow to pin more cells
// under the same area budget and land at materially better WNS/TNS.

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

  struct Variant {
    const char* name;
    bool path_based;
    bool timing_partition;
    int paths;
  };
  const Variant variants[] = {
      {"cell-based (paper)", false, true, 0},
      {"path-based, 50 paths [14]", true, true, 50},
      {"path-based, 200 paths [14]", true, true, 200},
      {"no timing partition (min-cut)", false, false, 0},
  };

  TextTable t("Ablation — criticality model for timing-based partitioning "
              "(CPU, iso-frequency)");
  t.header({"Variant", "Pinned cells", "WNS (ns)", "TNS (ns)",
            "Power (mW)", "PPC"});
  for (const auto& v : variants) {
    auto opts = bench::flow_options(period);
    opts.enable_timing_partition = v.timing_partition;
    opts.path_based_criticality = v.path_based;
    opts.path_based_paths = v.paths;
    const auto res = core::run_flow(nl, core::Config::Hetero3D, opts);
    t.row({v.name, TextTable::integer(res.timing_part.pinned_cells),
           TextTable::num(res.metrics.wns_ns, 3),
           TextTable::num(res.metrics.tns_ns, 2),
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
