// Reproduces paper Table V: improvements from the heterogeneous version of
// the Pin-3D flow over the baseline Pin-3D on the CPU design at the same
// frequency.
//
// Baseline "Pin-3D" = heterogeneous technology but none of the paper's
// enhancements: no timing-based partitioning (plain placement-driven
// min-cut), per-die macro-style CTS (broken clock tree), no repartitioning
// ECO. "Hetero-Pin-3D" = all three enhancements on.
//
// Expected shape (paper, CPU @ 1.2 GHz): same frequency and wirelength,
// WNS improves from deeply violating (−0.489 ns) to near-met (−0.060 ns),
// and total power drops (224 → 199 mW).

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

  auto base_opts = bench::flow_options(period);
  base_opts.enable_timing_partition = false;
  base_opts.enable_repartition = false;
  base_opts.enable_cover_cts = false;
  const auto baseline =
      core::run_flow(nl, core::Config::Hetero3D, base_opts);

  const auto enhanced =
      core::run_flow(nl, core::Config::Hetero3D, bench::flow_options(period));

  TextTable t("Table V — Pin-3D baseline vs the heterogeneous Pin-3D flow "
              "(CPU, iso-frequency)");
  t.header({"", "Units", "Pin-3D", "Hetero-Pin-3D"});
  t.row({"Frequency", "GHz",
         TextTable::num(baseline.metrics.frequency_ghz, 3),
         TextTable::num(enhanced.metrics.frequency_ghz, 3)});
  t.row({"WL", "m", TextTable::num(baseline.metrics.wirelength_m, 3),
         TextTable::num(enhanced.metrics.wirelength_m, 3)});
  t.row({"WNS", "ns", TextTable::num(baseline.metrics.wns_ns, 3),
         TextTable::num(enhanced.metrics.wns_ns, 3)});
  t.row({"TNS", "ns", TextTable::num(baseline.metrics.tns_ns, 2),
         TextTable::num(enhanced.metrics.tns_ns, 2)});
  t.row({"Total Power", "mW",
         TextTable::num(baseline.metrics.total_power_mw, 1),
         TextTable::num(enhanced.metrics.total_power_mw, 1)});
  t.row({"Clock Power", "mW",
         TextTable::num(baseline.metrics.clock_power_mw, 2),
         TextTable::num(enhanced.metrics.clock_power_mw, 2)});
  t.row({"Max Clock Skew", "ns",
         TextTable::num(baseline.metrics.clock.max_skew_ns, 3),
         TextTable::num(enhanced.metrics.clock.max_skew_ns, 3)});
  t.print();

  std::printf(
      "paper reference (Table V): WNS -0.489 -> -0.060 ns, power 224.1 -> "
      "198.8 mW, WL/frequency unchanged.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
