// Reproduces paper Table VII: percent deltas of the heterogeneous 3-D
// design against the four homogeneous configurations (2D-9T, 2D-12T,
// 3D-9T, 3D-12T) for all four netlists at iso-performance, plus the §V
// summary claim (PPAC benefit ranges).
//
// Shape targets from the paper:
//  * Si Area, Die Cost: negative everywhere (hetero smaller/cheaper);
//  * Total Power: negative vs every configuration;
//  * Eff. Delay: positive (slightly) vs 12-track 3-D — the homogeneous
//    fast design wins raw delay, hetero wins PDP/PPC;
//  * PPC: positive everywhere, roughly +10…+60 %;
//  * 9-track columns show large negative WNS (they miss the 12T target).

#include <cstdio>
#include <fstream>
#include <map>

#include "common.hpp"
#include "io/reports.hpp"
#include "util/main.hpp"
#include "util/stats.hpp"

using namespace m3d;

namespace {

int run(int, char**) {
  bench::quiet_logs();
  // The full 4-netlist × 5-config grid as one task-graph sweep over the
  // exec pool. The 2D-12T data point of each netlist is a flow-cache hit:
  // the iso-performance frequency search already ran that exact flow.
  const auto items = bench::run_sweep({});

  std::map<std::string, std::vector<core::DesignMetrics>> by_config;
  std::vector<core::DesignMetrics> all;
  for (const auto& item : items) {
    if (item.cfg == core::Config::TwoD9T)  // first config of each netlist
      std::printf("[%s] cells=%d target=%.3f GHz\n", item.netlist.c_str(),
                  item.cells, 1.0 / item.period_ns);
    by_config[core::config_name(item.cfg)].push_back(item.metrics());
    all.push_back(item.metrics());
  }
  std::fflush(stdout);

  const auto& hetero = by_config["Hetero-3D"];
  io::table6_ppac(hetero).print();
  for (const char* cfg : {"2D-9T", "2D-12T", "3D-9T", "3D-12T"})
    io::table7_deltas(cfg, hetero, by_config[cfg]).print();

  // §V summary: aggregate PPC benefit vs 3-D and vs 2-D configurations.
  std::vector<double> vs3d, vs2d;
  for (std::size_t i = 0; i < hetero.size(); ++i) {
    vs2d.push_back(core::pct_delta(hetero[i].ppc, by_config["2D-9T"][i].ppc));
    vs2d.push_back(
        core::pct_delta(hetero[i].ppc, by_config["2D-12T"][i].ppc));
    vs3d.push_back(core::pct_delta(hetero[i].ppc, by_config["3D-9T"][i].ppc));
    vs3d.push_back(
        core::pct_delta(hetero[i].ppc, by_config["3D-12T"][i].ppc));
  }
  std::printf(
      "\nSection V claim check — hetero PPC benefit:\n"
      "  vs 3-D configs: %+.1f %% … %+.1f %%   (paper: +10 … +50 %%)\n"
      "  vs 2-D configs: %+.1f %% … %+.1f %%   (paper: +18 … +57 %%)\n",
      util::min_of(vs3d), util::max_of(vs3d), util::min_of(vs2d),
      util::max_of(vs2d));

  const std::string csv_path = bench::artifact_dir() + "/table7_all.csv";
  std::ofstream(csv_path) << io::metrics_csv(all);
  std::printf("CSV written to %s\n", csv_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
