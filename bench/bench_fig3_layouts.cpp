// Reproduces paper Fig. 3: placement/routing layouts of the CPU design
// under (a) 2-D 9-track, (b) 2-D 12-track, and (c) heterogeneous 3-D.
// Emits one SVG per implementation (3-D renders as side-by-side tier
// panels at identical magnification, so the 9- vs 12-track cell heights
// are directly comparable, as in the paper's zoom).

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
  util::TextTable t("Fig. 3 — CPU layouts");
  t.header({"Implementation", "Width (um)", "Rows", "SVG"});
  struct Item {
    core::Config cfg;
    const char* file;
  };
  for (const auto& item :
       {Item{core::Config::TwoD9T, "fig3a_cpu_2d_9t.svg"},
        Item{core::Config::TwoD12T, "fig3b_cpu_2d_12t.svg"},
        Item{core::Config::Hetero3D, "fig3c_cpu_hetero_3d.svg"}}) {
    auto res = bench::run_config(nl, item.cfg, period);
    io::SvgOptions opt;
    opt.draw_nets = true;
    const auto path =
        io::write_layout_svg(res.design, dir + "/" + item.file, opt);
    const double rows =
        res.design.floorplan().height() /
        res.design.lib(netlist::kBottomTier).row_height_um();
    t.row({core::config_name(item.cfg),
           util::TextTable::num(res.metrics.chip_width_um, 0),
           util::TextTable::num(rows, 0), path});
  }
  t.print();
  std::printf(
      "Note: in fig3c the left panel is the 12-track bottom tier (1.2 um "
      "rows), the right panel the 9-track top tier (0.9 um rows) — the cell-"
      "height contrast of the paper's zoomed view.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
