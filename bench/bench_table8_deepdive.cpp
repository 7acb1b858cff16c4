// Reproduces paper Table VIII: in-depth clock-network, critical-path and
// memory-interconnect analysis of the CPU design across the best 2-D
// implementation (12-track), the best homogeneous 3-D (12-track) and the
// heterogeneous 3-D.
//
// (The journal table's first column is labeled "9-track 2D", but §IV-C's
// prose says "best 2-D implementation (12-track)" — we follow the prose;
// see EXPERIMENTS.md.)
//
// Shape targets: memory-net latency and switching power improve 2D → 3D →
// hetero; the hetero clock tree is top-die-heavy with smaller buffer area
// but worse max latency/skew; the hetero critical path concentrates on the
// fast bottom tier, with the few slow-tier cells contributing an outsized
// share of delay (avg 9T stage ≈ 2× the 12T stage delay).

#include <cstdio>

#include "common.hpp"
#include "io/reports.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using namespace m3d;

namespace {

int run(int, char**) {
  bench::quiet_logs();
  // Three implementations of the CPU design as one cached sweep; the
  // 2D-12T run is the frequency search's own winning flow (cache hit).
  bench::SweepOptions sweep;
  sweep.netlists = {"cpu"};
  sweep.configs = {core::Config::TwoD12T, core::Config::ThreeD12T,
                   core::Config::Hetero3D};
  const auto items = bench::run_sweep(sweep);
  std::printf("[cpu] cells=%d target=%.3f GHz\n", items.front().cells,
              1.0 / items.front().period_ns);
  std::fflush(stdout);

  std::vector<core::DesignMetrics> impls;
  for (const auto& item : items) impls.push_back(item.metrics());

  io::table8_deepdive(impls).print();

  // The paper's headline stage-delay contrast: ~19 ps per 12-track stage
  // everywhere vs ~45 ps per 9-track stage on the hetero top tier
  // (averaged over the 100 worst paths for stability).
  const auto& het = impls.back();
  std::printf(
      "\nHetero worst-100-path stage delays: bottom (12T) %.1f ps/cell, "
      "top (9T) %.1f ps/cell (paper: ~19 vs ~45 ps)\n",
      het.avg_stage_delay_tier_ns[0] * 1000.0,
      het.avg_stage_delay_tier_ns[1] * 1000.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
