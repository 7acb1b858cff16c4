// Reproduces paper Fig. 4: detailed overlays on the heterogeneous-3-D CPU
// layout — (a) the clock tree, (b) the memory nets (into the macros vs out
// of them, in different colors), and (c) the critical path. The 2-D
// 12-track counterparts are emitted too, matching the paper's side-by-side
// comparison.

#include <cstdio>

#include "common.hpp"
#include "io/svg.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using namespace m3d;

namespace {

int run(int, char**) {
  bench::quiet_logs();
  const auto nl = bench::build("cpu");
  const double period = bench::target_period_ns(nl);
  std::printf("[cpu] cells=%d target=%.3f GHz\n", nl.stats().cells,
              1.0 / period);
  std::fflush(stdout);

  const std::string dir = bench::artifact_dir();
  util::TextTable t("Fig. 4 — clock tree / memory nets / critical path");
  t.header({"Implementation", "Overlay", "SVG"});

  struct Impl {
    core::Config cfg;
    const char* tag;
  };
  for (const auto& impl : {Impl{core::Config::TwoD12T, "2d_12t"},
                           Impl{core::Config::Hetero3D, "hetero_3d"}}) {
    auto res = bench::run_config(nl, impl.cfg, period);

    io::SvgOptions clock_opt;
    clock_opt.overlay = io::Overlay::ClockTree;
    t.row({core::config_name(impl.cfg), "clock tree",
           io::write_layout_svg(res.design,
                                dir + "/fig4a_clock_" + impl.tag + ".svg",
                                clock_opt)});

    io::SvgOptions mem_opt;
    mem_opt.overlay = io::Overlay::MemoryNets;
    t.row({core::config_name(impl.cfg), "memory nets",
           io::write_layout_svg(res.design,
                                dir + "/fig4b_memnets_" + impl.tag + ".svg",
                                mem_opt)});

    io::SvgOptions cp_opt;
    cp_opt.overlay = io::Overlay::CriticalPath;
    cp_opt.critical_path = &res.metrics.critical_path;
    t.row({core::config_name(impl.cfg), "critical path",
           io::write_layout_svg(res.design,
                                dir + "/fig4c_critpath_" + impl.tag + ".svg",
                                cp_opt)});
  }
  t.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
