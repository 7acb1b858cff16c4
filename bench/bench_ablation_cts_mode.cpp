// Ablation: COVER-cell unified 3-D CTS vs the macro-style per-die trees
// (paper §III-A2). The COVER-cell representation lets the clock optimizer
// see the whole 3-D sink set; treating the other die's cells as macros
// breaks the tree into per-die islands.

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

  TextTable t("Ablation — 3-D CTS mode on the heterogeneous CPU");
  t.header({"Metric", "COVER-cell (paper)", "per-die (macro-style)"});

  auto opts_cover = bench::flow_options(period);
  opts_cover.enable_cover_cts = true;
  auto opts_perdie = bench::flow_options(period);
  opts_perdie.enable_cover_cts = false;

  const auto a = core::run_flow(nl, core::Config::Hetero3D, opts_cover);
  const auto b = core::run_flow(nl, core::Config::Hetero3D, opts_perdie);

  auto row = [&](const char* name, auto get, int prec) {
    t.row({name, TextTable::num(get(a.metrics), prec),
           TextTable::num(get(b.metrics), prec)});
  };
  row("Clock buffers", [](const core::DesignMetrics& m) {
    return static_cast<double>(m.clock.buffer_count);
  }, 0);
  row("Top-tier buffers", [](const core::DesignMetrics& m) {
    return static_cast<double>(m.clock.buffer_count_tier[1]);
  }, 0);
  row("Clock buffer area (um2)", [](const core::DesignMetrics& m) {
    return m.clock.buffer_area_um2;
  }, 0);
  row("Clock power (mW)", [](const core::DesignMetrics& m) {
    return m.clock_power_mw;
  }, 2);
  row("Max latency (ns)", [](const core::DesignMetrics& m) {
    return m.clock.max_latency_ns;
  }, 3);
  row("Max skew (ns)", [](const core::DesignMetrics& m) {
    return m.clock.max_skew_ns;
  }, 3);
  row("WNS (ns)", [](const core::DesignMetrics& m) { return m.wns_ns; }, 3);
  row("Total power (mW)", [](const core::DesignMetrics& m) {
    return m.total_power_mw;
  }, 1);
  t.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
