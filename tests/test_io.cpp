// Tests for SVG layout export and the paper-style report tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "core/flow.hpp"
#include "gen/designs.hpp"
#include "io/reports.hpp"
#include "io/svg.hpp"
#include "util/log.hpp"

namespace mc = m3d::core;
namespace mg = m3d::gen;
namespace mi = m3d::io;

namespace {

mc::FlowResult run(const char* which, mc::Config cfg) {
  m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  mg::GenOptions g;
  g.scale = 0.08;
  mc::FlowOptions o;
  o.clock_period_ns = 1.2;
  o.max_sizing_rounds = 1;
  o.eco_iters = 1;
  return mc::run_flow(mg::make_design(which, g), cfg, o);
}

}  // namespace

TEST(Svg, TwoDLayoutHasOnePanel) {
  const auto r = run("netcard", mc::Config::TwoD12T);
  const auto svg = mi::layout_svg(r.design);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One die outline.
  std::size_t outlines = 0, pos = 0;
  while ((pos = svg.find("stroke='#555555'", pos)) != std::string::npos) {
    ++outlines;
    pos += 10;
  }
  EXPECT_EQ(outlines, 1u);
}

TEST(Svg, ThreeDLayoutHasTwoPanels) {
  const auto r = run("netcard", mc::Config::Hetero3D);
  const auto svg = mi::layout_svg(r.design);
  std::size_t outlines = 0, pos = 0;
  while ((pos = svg.find("stroke='#555555'", pos)) != std::string::npos) {
    ++outlines;
    pos += 10;
  }
  EXPECT_EQ(outlines, 2u);
  // Cells drawn on both tiers in their tier colors.
  EXPECT_NE(svg.find("#4878a8"), std::string::npos);
  EXPECT_NE(svg.find("#c46a4a"), std::string::npos);
}

TEST(Svg, OverlaysRender) {
  const auto r = run("cpu", mc::Config::Hetero3D);
  mi::SvgOptions clock_opt;
  clock_opt.overlay = mi::Overlay::ClockTree;
  EXPECT_NE(mi::layout_svg(r.design, clock_opt).find("#207050"),
            std::string::npos);

  mi::SvgOptions mem_opt;
  mem_opt.overlay = mi::Overlay::MemoryNets;
  const auto mem_svg = mi::layout_svg(r.design, mem_opt);
  EXPECT_NE(mem_svg.find("#c8a018"), std::string::npos);  // into memory
  EXPECT_NE(mem_svg.find("#b03080"), std::string::npos);  // out of memory

  mi::SvgOptions cp_opt;
  cp_opt.overlay = mi::Overlay::CriticalPath;
  cp_opt.critical_path = &r.metrics.critical_path;
  EXPECT_NE(mi::layout_svg(r.design, cp_opt).find("#d02020"),
            std::string::npos);
}

TEST(Svg, WriteToFile) {
  const auto r = run("netcard", mc::Config::TwoD12T);
  const std::string path = "/tmp/m3d_test_layout.svg";
  EXPECT_EQ(mi::write_layout_svg(r.design, path), path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

TEST(Reports, Table6HasAllMetricsAndNetlists) {
  const auto r1 = run("netcard", mc::Config::Hetero3D);
  const auto r2 = run("ldpc", mc::Config::Hetero3D);
  const auto t = mi::table6_ppac({r1.metrics, r2.metrics});
  const auto s = t.str();
  EXPECT_NE(s.find("netcard"), std::string::npos);
  EXPECT_NE(s.find("ldpc"), std::string::npos);
  for (const char* row : {"Frequency", "Area", "Density", "WL", "# MIVs",
                          "Total Power", "WNS", "TNS", "Effective Delay",
                          "PDP", "Die Cost", "PPC"})
    EXPECT_NE(s.find(row), std::string::npos) << row;
}

TEST(Reports, Table7ComputesDeltas) {
  const auto het = run("netcard", mc::Config::Hetero3D);
  const auto homo = run("netcard", mc::Config::ThreeD12T);
  const auto t =
      mi::table7_deltas("M3D 12-Track", {het.metrics}, {homo.metrics});
  const auto s = t.str();
  EXPECT_NE(s.find("M3D 12-Track"), std::string::npos);
  EXPECT_NE(s.find("Si Area"), std::string::npos);
  EXPECT_NE(s.find("PPC"), std::string::npos);
  EXPECT_NE(s.find("WNS (ns)"), std::string::npos);
  // Deltas are signed percentages.
  EXPECT_TRUE(s.find('+') != std::string::npos ||
              s.find('-') != std::string::npos);
}

TEST(Reports, Table8DeepDive) {
  const auto r = run("cpu", mc::Config::Hetero3D);
  const auto t = mi::table8_deepdive({r.metrics});
  const auto s = t.str();
  for (const char* row :
       {"Input Net Latency", "Buffer Count", "Max Skew", "Path Delay",
        "Top Cells", "Bottom Cell Delay"})
    EXPECT_NE(s.find(row), std::string::npos) << row;
}

TEST(Reports, CsvRoundTrip) {
  const auto r = run("netcard", mc::Config::TwoD12T);
  const auto csv = mi::metrics_csv({r.metrics});
  EXPECT_NE(csv.find("netlist,config"), std::string::npos);
  EXPECT_NE(csv.find("netcard,2D-12T"), std::string::npos);
  // Header + one data line.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}
