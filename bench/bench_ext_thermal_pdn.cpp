// Extension bench — the paper's stated future work (§V): thermal and
// power-delivery behaviour of heterogeneous monolithic 3-D ICs.
//
// Compares 2D-12T / 3D-12T / Hetero-3D on the CPU design at
// iso-frequency:
//  * steady-state temperature field (grid solver, ILD-bottleneck model);
//  * PDN IR-drop (bump array on the bottom tier, power-MIV-fed top tier).
//
// Expected shape: stacking runs hotter than 2-D (same power, half the
// sink area); the heterogeneous stack runs cooler and drops less on the
// top tier than homogeneous 12-track 3-D because the 9-track die draws
// less power — the corollary of the paper's power results that makes
// heterogeneity attractive for exactly the two problems it left open.

#include <cstdio>

#include "common.hpp"
#include "pdn/pdn.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "thermal/thermal.hpp"
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

  TextTable t("Future-work extension — thermal & PDN across "
              "implementations (CPU, iso-frequency)");
  t.header({"Metric", "2D-12T", "3D-12T", "Hetero-3D"});

  struct Row {
    double power, tmax, tavg, ttop, drop_bot, drop_top, drop_pct_top;
  };
  std::vector<Row> rows;
  for (auto cfg : {core::Config::TwoD12T, core::Config::ThreeD12T,
                   core::Config::Hetero3D}) {
    auto res = bench::run_config(nl, cfg, period);
    const auto routes = route::route_design(res.design);
    const auto pw = power::analyze_power(res.design, &routes, 1.0 / period);
    const auto th = thermal::analyze_thermal(res.design, pw);
    const auto pd = pdn::analyze_pdn(res.design, pw);
    const bool is3d = res.design.num_tiers() == 2;
    rows.push_back({pw.total_mw, th.max_temp_c, th.avg_temp_c,
                    is3d ? th.avg_temp_tier_c[1] : 0.0, pd.worst_drop_mv[0],
                    is3d ? pd.worst_drop_mv[1] : 0.0,
                    is3d ? pd.worst_drop_pct[1] : 0.0});
  }

  auto row = [&](const char* name, auto get, int prec) {
    std::vector<std::string> cells{name};
    for (const auto& r : rows) cells.push_back(TextTable::num(get(r), prec));
    t.row(cells);
  };
  row("Total power (mW)", [](const Row& r) { return r.power; }, 1);
  row("Max temperature (C)", [](const Row& r) { return r.tmax; }, 2);
  row("Avg temperature (C)", [](const Row& r) { return r.tavg; }, 2);
  row("Top-tier avg temp (C)", [](const Row& r) { return r.ttop; }, 2);
  row("Worst IR drop, bottom (mV)",
      [](const Row& r) { return r.drop_bot; }, 2);
  row("Worst IR drop, top (mV)", [](const Row& r) { return r.drop_top; }, 2);
  row("Top drop (% of tier VDD)",
      [](const Row& r) { return r.drop_pct_top; }, 2);
  t.print();

  std::printf(
      "Shape checks: 3-D hotter than 2-D at equal power; hetero cooler and "
      "with less top-tier drop than homogeneous 12-track 3-D.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
