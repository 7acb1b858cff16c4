// Property-based parameterized suites (TEST_P): invariants that must hold
// across sweeps of seeds, utilizations, drives, configurations and areas —
// not just at hand-picked points.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/flow.hpp"
#include "cost/cost.hpp"
#include "gen/designs.hpp"
#include "part/fm.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mc = m3d::core;
namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mp = m3d::part;
namespace mpl = m3d::place;
namespace mr = m3d::route;
namespace mt = m3d::tech;

// ------------------------------------------------------------ NLDM sweep --

class NldmProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(NldmProperty, DelayAndSlewMonotoneNonNegative) {
  const auto [func_i, drive, tracks] = GetParam();
  const auto lib = tracks == 9 ? mt::make_9track() : mt::make_12track();
  const auto func = static_cast<mt::CellFunc>(func_i);
  const auto* cell = lib->find(func, drive);
  ASSERT_NE(cell, nullptr);
  for (const auto& arc : cell->arcs) {
    for (int t : {0, 1}) {
      double prev_load = -1.0;
      for (double load : {0.5, 2.0, 8.0, 32.0, 128.0}) {
        const double d = arc.delay[t].lookup(0.02, load);
        const double s = arc.out_slew[t].lookup(0.02, load);
        EXPECT_GT(d, 0.0);
        EXPECT_GT(s, 0.0);
        if (prev_load > 0.0)
          EXPECT_GT(d, arc.delay[t].lookup(0.02, prev_load));
        prev_load = load;
      }
      // Slew monotonicity of delay.
      EXPECT_GE(arc.delay[t].lookup(0.15, 4.0),
                arc.delay[t].lookup(0.003, 4.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, NldmProperty,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(mt::CellFunc::Inv),
                          static_cast<int>(mt::CellFunc::Nand2),
                          static_cast<int>(mt::CellFunc::Xor2),
                          static_cast<int>(mt::CellFunc::Aoi21),
                          static_cast<int>(mt::CellFunc::Mux2),
                          static_cast<int>(mt::CellFunc::Dff)),
        ::testing::Values(1, 2, 4, 8), ::testing::Values(9, 12)));

// -------------------------------------------------------------- FM sweep --

class FmProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FmProperty, BalanceAndCutConsistentAcrossSeeds) {
  m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  mg::GenOptions g;
  g.scale = 0.05;
  g.seed = GetParam();
  mn::Design d(mg::make_netcard(g), mt::make_12track(), mt::make_9track());
  mp::FmOptions opt;
  opt.seed = GetParam();
  opt.balance_tol = 0.12;
  const int cut = mp::fm_mincut(d, opt);
  EXPECT_EQ(cut, mp::cut_size(d));
  const double top = d.tier_std_cell_area(mn::kTopTier);
  const double bottom = d.tier_std_cell_area(mn::kBottomTier);
  // Shares measured in per-tier library units, as the engine balances.
  const double share = top / (top + bottom);
  EXPECT_GT(share, 0.30);
  EXPECT_LT(share, 0.70);
  EXPECT_GT(cut, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmProperty,
                         ::testing::Values(1u, 7u, 13u, 42u, 1234u));

// ----------------------------------------------------------- place sweep --

class PlaceProperty : public ::testing::TestWithParam<double> {};

TEST_P(PlaceProperty, LegalAndOnTargetAcrossUtilizations) {
  m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  mg::GenOptions g;
  g.scale = 0.05;
  mn::Design d(mg::make_netcard(g), mt::make_12track());
  mpl::PlaceOptions opt;
  opt.utilization = GetParam();
  mpl::place_design(d, opt);
  EXPECT_LT(mpl::max_overlap_um2(d), 1e-6);
  EXPECT_NEAR(d.density(), GetParam(), 0.03);
  const auto fp = d.floorplan();
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto p = d.pos(c);
    EXPECT_GE(p.x, fp.xlo - 1.0);
    EXPECT_LE(p.x, fp.xhi + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Utilizations, PlaceProperty,
                         ::testing::Values(0.40, 0.55, 0.65, 0.75));

// ----------------------------------------------------------- route sweep --

class RouteProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RouteProperty, TreeBoundsHoldOnRandomPlacements) {
  m3d::util::Rng rng(GetParam());
  mg::GenOptions g;
  g.scale = 0.04;
  g.seed = GetParam();
  mn::Design d(mg::make_ldpc(g), mt::make_12track(), mt::make_9track());
  d.set_floorplan({0, 0, 120, 120});
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    d.set_pos(c, {rng.uniform(0, 120), rng.uniform(0, 120)});
    if (!d.nl().cell(c).fixed && rng.chance(0.5))
      d.set_tier(c, mn::kTopTier);
  }
  for (mn::NetId n = 0; n < d.nl().net_count(); ++n) {
    const auto& net = d.nl().net(n);
    if (net.driver == mn::kInvalidId || net.pins.size() < 2) continue;
    const auto r = mr::route_net(d, n);
    const double h = mr::hpwl(d, n);
    EXPECT_GE(r.length_um + 1e-9, h / 2.0);
    // Star upper bound.
    double star = 0.0;
    const auto dpos = d.pin_pos(net.driver);
    std::vector<m3d::netlist::PinId> sinks;
    d.nl().sinks_into(n, sinks);
    for (auto s : sinks) star += m3d::util::manhattan(dpos, d.pin_pos(s));
    EXPECT_LE(r.length_um, star + 1e-9);
    // Each sink's tree path at least its Manhattan distance.
    for (std::size_t i = 0; i < sinks.size(); ++i)
      EXPECT_GE(r.sink_path_um[i] + 1e-9,
                m3d::util::manhattan(dpos, d.pin_pos(sinks[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteProperty,
                         ::testing::Values(3u, 17u, 99u));

// ------------------------------------------------------------ cost sweep --

class CostProperty : public ::testing::TestWithParam<double> {};

TEST_P(CostProperty, YieldAndCostWellBehaved) {
  const double area = GetParam();
  m3d::cost::CostModel m;
  const double y2 = m.die_yield_2d(area);
  const double y3 = m.die_yield(area, 2);
  EXPECT_GT(y2, 0.0);
  EXPECT_LE(y2, 0.95 + 1e-12);
  EXPECT_LT(y3, y2);
  EXPECT_GT(m.dies_per_wafer(area), 0.0);
  // Cost strictly increases with area (superlinearly via yield).
  const double c1 = m.die_cost(area, 1);
  const double c2 = m.die_cost(area * 2.0, 1);
  EXPECT_GT(c2, 2.0 * c1 * 0.99);
  // Folding halves the footprint; the premium stays bounded.
  const double fold = m.die_cost(area / 2.0, 2) / c1;
  EXPECT_GT(fold, 0.2);
  EXPECT_LT(fold, 1.15);
}

INSTANTIATE_TEST_SUITE_P(Areas, CostProperty,
                         ::testing::Values(0.05, 0.2, 1.0, 5.0, 20.0));

// ------------------------------------------------------------ flow sweep --

// The netlist name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which ASLR changes on every run, so
// the test names would differ from build to build.
class FlowProperty
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(FlowProperty, MetricIdentitiesHold) {
  m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  const auto [cfg_i, which] = GetParam();
  const auto cfg = static_cast<mc::Config>(cfg_i);
  mg::GenOptions g;
  g.scale = 0.05;
  mc::FlowOptions o;
  o.clock_period_ns = 1.3;
  o.opt.max_sizing_rounds = 1;
  o.repart.max_iters = 1;
  const auto r = mc::run_flow(mg::make_design(which, g), cfg, o);
  const auto& m = r.metrics;

  EXPECT_NEAR(m.silicon_area_mm2,
              m.footprint_mm2 * (mc::config_is_3d(cfg) ? 2 : 1), 1e-12);
  EXPECT_NEAR(m.effective_delay_ns, m.clock_period_ns - m.wns_ns, 1e-9);
  EXPECT_NEAR(m.pdp_pj, m.total_power_mw * m.effective_delay_ns, 1e-6);
  EXPECT_NEAR(m.total_power_mw,
              m.switching_mw + m.internal_mw + m.leakage_mw +
                  m.clock_power_mw,
              1e-9);
  EXPECT_EQ(m.mivs == 0, !mc::config_is_3d(cfg));
  EXPECT_GT(m.clock.buffer_count, 0);
  EXPECT_LE(m.tns_ns, 0.0);
  EXPECT_LE(m.tns_ns, m.wns_ns + 1e-9);
  r.design.nl().validate();
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndNetlists, FlowProperty,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(mc::Config::TwoD12T),
                          static_cast<int>(mc::Config::ThreeD9T),
                          static_cast<int>(mc::Config::Hetero3D)),
        ::testing::Values(std::string("netcard"), std::string("ldpc"),
                          std::string("aes"))));
