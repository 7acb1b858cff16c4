// Quickstart: generate a netlist, run the heterogeneous monolithic-3D flow
// on it, and print the PPAC report.
//
//   $ ./build/examples/quickstart [scale]
//
// This is the 60-second tour: one call builds an evaluation netlist, one
// call runs the full RTL-to-"GDS" heterogeneous flow (synthesis-style
// sizing → pseudo-3-D placement → timing-driven tier partitioning →
// COVER-cell 3-D CTS → repartitioning ECO), and the metrics land in a
// single struct.

#include <cstdio>

#include "core/flow.hpp"
#include "gen/designs.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace m3d;
  util::set_log_level(util::LogLevel::Info);

  // 1. A netlist. Generators for the paper's four designs are built in;
  //    scale shrinks them for quick experiments.
  gen::GenOptions gen_opts;
  gen_opts.scale =
      argc > 1 ? util::parse_token<double>("scale", argv[1], argv[1]) : 0.3;
  const netlist::Netlist nl = gen::make_cpu(gen_opts);
  std::printf("netlist: %s with %d cells, %d macros\n", nl.name().c_str(),
              nl.stats().cells, nl.stats().macros);

  // 2. The flow. Config::Hetero3D = 12-track bottom die + 9-track top die.
  core::FlowOptions flow_opts;
  flow_opts.clock_period_ns = 1.0;  // 1 GHz target
  const core::FlowResult result =
      core::run_flow(nl, core::Config::Hetero3D, flow_opts);

  // 3. The report.
  const core::DesignMetrics& m = result.metrics;
  std::printf("\n=== %s on %s ===\n", m.config_name.c_str(),
              m.netlist_name.c_str());
  std::printf("frequency      %8.3f GHz (WNS %+.3f ns)\n", m.frequency_ghz,
              m.wns_ns);
  std::printf("silicon area   %8.4f mm2 (%.0f um wide, %d tiers)\n",
              m.silicon_area_mm2, m.chip_width_um, 2);
  std::printf("wirelength     %8.3f m across %lld MIVs\n", m.wirelength_m,
              m.mivs);
  std::printf("total power    %8.2f mW (clock %.2f mW)\n", m.total_power_mw,
              m.clock_power_mw);
  std::printf("PDP            %8.2f pJ\n", m.pdp_pj);
  std::printf("die cost       %8.3f x 1e-6 C'\n", m.die_cost_e6);
  std::printf("PPC            %8.3f GHz/(W x 1e-6 C')\n", m.ppc);
  std::printf("\ncritical path: %d cells (%d on the fast tier), %.3f ns\n",
              m.critical_path.total_cells(),
              m.critical_path.cells_on_tier[0],
              m.critical_path.path_delay_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
