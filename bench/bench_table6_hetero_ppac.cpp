// Reproduces paper Table VI: absolute PPAC results of the heterogeneous
// 3-D designs for the four netlists (netcard, aes, ldpc, cpu), each at the
// iso-performance target set by its 12-track 2-D maximum frequency.
//
// Absolute values differ from the paper (different PDK, scaled netlists);
// the per-netlist *relations* are the reproduction target: netcard/cpu are
// the big designs, LDPC shows the lowest density (wire-dominated), AES the
// highest frequency, and every WNS sits slightly negative (timing pushed
// to the limit).

#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "io/reports.hpp"
#include "util/main.hpp"

using namespace m3d;

namespace {

int run(int, char**) {
  bench::quiet_logs();
  // One sweep over the exec pool: per-netlist frequency searches and the
  // hetero flows run as a task graph (M3D_THREADS controls the width),
  // and the 12-track search flows are shared with other benches through
  // the flow cache. Results are deterministic at any thread count.
  bench::SweepOptions sweep;
  sweep.configs = {core::Config::Hetero3D};
  const auto items = bench::run_sweep(sweep);

  std::vector<core::DesignMetrics> hetero;
  for (const auto& item : items) {
    std::printf("[%s] cells=%d target=%.3f GHz\n", item.netlist.c_str(),
                item.cells, 1.0 / item.period_ns);
    hetero.push_back(item.metrics());
  }
  std::fflush(stdout);
  io::table6_ppac(hetero).print();

  const std::string csv_path = bench::artifact_dir() + "/table6.csv";
  std::ofstream(csv_path) << io::metrics_csv(hetero);
  std::printf("CSV written to %s\n", csv_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
