// Tests for the thermal and PDN extension modules (the paper's future
// work): power/current map construction, solver convergence, physical
// orderings (top tier hotter, top tier drops more, hetero cooler than
// homogeneous 12-track 3-D).

#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "gen/designs.hpp"
#include "pdn/pdn.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "thermal/thermal.hpp"
#include "util/log.hpp"

namespace mc = m3d::core;
namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mp = m3d::power;
namespace mr = m3d::route;
namespace mth = m3d::thermal;
namespace mpd = m3d::pdn;

namespace {

struct FlowCase {
  mc::FlowResult flow;
  mp::PowerReport pw;

  explicit FlowCase(mc::Config cfg, const char* which = "netcard",
                    double scale = 0.08)
      : flow(make(cfg, which, scale)),
        pw(mp::analyze_power(flow.design,
                             nullptr,  // pin-cap-only power is fine here
                             1.0 / flow.design.clock_period_ns())) {}

  static mc::FlowResult make(mc::Config cfg, const char* which,
                             double scale) {
    m3d::util::set_log_level(m3d::util::LogLevel::Silent);
    mg::GenOptions g;
    g.scale = scale;
    mc::FlowOptions o;
    o.clock_period_ns = 1.1;
    o.opt.max_sizing_rounds = 1;
    o.repart.max_iters = 1;
    return mc::run_flow(mg::make_design(which, g), cfg, o);
  }
};

}  // namespace

TEST(Thermal, PowerMapConservesTotalPower) {
  FlowCase r(mc::Config::Hetero3D);
  const auto maps = mth::power_map_w(r.flow.design, r.pw, 12);
  double sum = 0.0;
  for (const auto& tier : maps)
    for (double w : tier) sum += w;
  // Clock-cell internal power is bucketed under clock_mw, so the map holds
  // switching + internal + leakage (clock net switching included at its
  // driver). Allow the clock slice as tolerance.
  EXPECT_NEAR(sum * 1000.0, r.pw.total_mw, r.pw.clock_mw + 1e-6);
  EXPECT_GT(sum, 0.0);
}

TEST(Thermal, ConvergesAboveAmbient) {
  FlowCase r(mc::Config::TwoD12T);
  mth::ThermalOptions opt;
  const auto rep = mth::analyze_thermal(r.flow.design, r.pw, opt);
  EXPECT_LT(rep.iterations, opt.max_iters);
  EXPECT_GT(rep.max_temp_c, opt.ambient_c);
  EXPECT_GE(rep.max_temp_c, rep.avg_temp_c);
  EXPECT_EQ(rep.tier_maps.size(), 1u);
}

TEST(Thermal, TopTierRunsHotterInThreeD) {
  FlowCase r(mc::Config::ThreeD12T);
  const auto rep = mth::analyze_thermal(r.flow.design, r.pw);
  // The ILD bottleneck: the top tier is farther from the sink.
  EXPECT_GT(rep.avg_temp_tier_c[1], rep.avg_temp_tier_c[0]);
  EXPECT_EQ(rep.tier_maps.size(), 2u);
}

TEST(Thermal, MorePowerMeansHotter) {
  FlowCase r(mc::Config::TwoD12T);
  const auto base = mth::analyze_thermal(r.flow.design, r.pw);
  auto hot_pw = r.pw;
  for (auto& uw : hot_pw.net_switching_uw) uw *= 3.0;
  hot_pw.switching_mw *= 3.0;
  hot_pw.total_mw = hot_pw.switching_mw + hot_pw.internal_mw +
                    hot_pw.leakage_mw + hot_pw.clock_mw;
  const auto hot = mth::analyze_thermal(r.flow.design, hot_pw);
  EXPECT_GT(hot.max_temp_c, base.max_temp_c);
}

TEST(Thermal, HeteroCoolerThanHomoTwelveTrack) {
  FlowCase hetero(mc::Config::Hetero3D);
  FlowCase homo(mc::Config::ThreeD12T);
  const auto th = mth::analyze_thermal(hetero.flow.design, hetero.pw);
  const auto tm = mth::analyze_thermal(homo.flow.design, homo.pw);
  // The 9-track top tier burns less power: the hetero stack runs cooler
  // at iso-frequency (corollary of the paper's power results).
  EXPECT_LT(th.avg_temp_c, tm.avg_temp_c + 1e-9);
}

TEST(Pdn, CurrentMapUsesTierRails) {
  FlowCase r(mc::Config::Hetero3D);
  const auto pmap = mth::power_map_w(r.flow.design, r.pw, 10);
  const auto imap = mpd::current_map_a(r.flow.design, r.pw, 10);
  // I = P / VDD, per tier.
  for (int t = 0; t < 2; ++t) {
    const double vdd = r.flow.design.lib(t).vdd();
    for (std::size_t n = 0; n < pmap[static_cast<std::size_t>(t)].size();
         ++n)
      EXPECT_NEAR(imap[static_cast<std::size_t>(t)][n],
                  pmap[static_cast<std::size_t>(t)][n] / vdd, 1e-12);
  }
}

TEST(Pdn, ConvergesWithPositiveDrop) {
  FlowCase r(mc::Config::TwoD12T);
  mpd::PdnOptions opt;
  const auto rep = mpd::analyze_pdn(r.flow.design, r.pw, opt);
  EXPECT_LT(rep.iterations, opt.max_iters);
  EXPECT_GT(rep.worst_drop_mv[0], 0.0);
  EXPECT_GE(rep.worst_drop_mv[0], rep.avg_drop_mv[0]);
  // Sanity: drop is a small fraction of the rail.
  EXPECT_LT(rep.worst_drop_pct[0], 20.0);
}

TEST(Pdn, TopTierDropsMoreInHomogeneousThreeD) {
  FlowCase r(mc::Config::ThreeD12T);
  const auto rep = mpd::analyze_pdn(r.flow.design, r.pw);
  // The top mesh hangs off power MIVs (sparser, more resistive than the
  // bump array): its worst drop exceeds the bottom tier's.
  EXPECT_GT(rep.worst_drop_mv[1], rep.worst_drop_mv[0]);
}

TEST(Pdn, HeteroTopTierDrawsLessAndDropsLess) {
  FlowCase hetero(mc::Config::Hetero3D);
  FlowCase homo(mc::Config::ThreeD12T);
  const auto rh = mpd::analyze_pdn(hetero.flow.design, hetero.pw);
  const auto rm = mpd::analyze_pdn(homo.flow.design, homo.pw);
  // The low-power top tier eases the M3D power-delivery problem.
  EXPECT_LT(rh.worst_drop_mv[1], rm.worst_drop_mv[1] + 1e-9);
}

TEST(Pdn, DenserBumpsReduceDrop) {
  FlowCase r(mc::Config::TwoD12T);
  mpd::PdnOptions sparse, dense;
  sparse.bump_pitch_nodes = 8;
  dense.bump_pitch_nodes = 2;
  const auto rs = mpd::analyze_pdn(r.flow.design, r.pw, sparse);
  const auto rd = mpd::analyze_pdn(r.flow.design, r.pw, dense);
  EXPECT_LT(rd.worst_drop_mv[0], rs.worst_drop_mv[0]);
}

// ---- parallel determinism ------------------------------------------------

#include "exec/pool.hpp"

namespace mex = m3d::exec;

/// Above 4096 nets and cells, so the power map scatters in several chunks
/// and the wide pool really fans out.
constexpr double kPoolScale = 0.12;

TEST(Thermal, PowerMapByteIdenticalAcrossPoolSizes) {
  FlowCase r(mc::Config::Hetero3D, "netcard", kPoolScale);
  mex::Pool serial(1), wide(4);
  const auto m0 = mth::power_map_w(r.flow.design, r.pw, 12);
  const auto m1 = mth::power_map_w(r.flow.design, r.pw, 12, &serial);
  const auto posted = wide.stats().posted;
  const auto m4 = mth::power_map_w(r.flow.design, r.pw, 12, &wide);
  EXPECT_GT(wide.stats().posted, posted);  // the wide run fanned out
  ASSERT_EQ(m0, m1);
  ASSERT_EQ(m0, m4);
}

TEST(Thermal, SolveByteIdenticalAcrossPoolSizes) {
  FlowCase r(mc::Config::Hetero3D, "netcard", kPoolScale);
  mex::Pool serial(1), wide(4);
  mth::ThermalOptions o0;
  mth::ThermalOptions o1;
  o1.pool = &serial;
  mth::ThermalOptions o4;
  o4.pool = &wide;
  const auto t0 = mth::analyze_thermal(r.flow.design, r.pw, o0);
  const auto t1 = mth::analyze_thermal(r.flow.design, r.pw, o1);
  const auto posted = wide.stats().posted;
  const auto t4 = mth::analyze_thermal(r.flow.design, r.pw, o4);
  EXPECT_GT(wide.stats().posted, posted);  // the wide run fanned out
  for (const auto* t : {&t1, &t4}) {
    ASSERT_EQ(t0.max_temp_c, t->max_temp_c);
    ASSERT_EQ(t0.avg_temp_c, t->avg_temp_c);
    ASSERT_EQ(t0.iterations, t->iterations);
    ASSERT_EQ(t0.tier_maps, t->tier_maps);
  }
}

TEST(Thermal, NullPoolPowerMapRunsOnTheGlobalPool) {
  // A null pool means exec::Pool::global(), as in every kernel: the map's
  // 4,096-item chunks fan out there.
  mex::Pool& global = mex::Pool::global();
  if (global.size() <= 1) GTEST_SKIP() << "global pool has one worker";
  FlowCase r(mc::Config::Hetero3D, "netcard", kPoolScale);
  const auto posted = global.stats().posted;
  mth::power_map_w(r.flow.design, r.pw, 12);
  EXPECT_GT(global.stats().posted, posted);
}
