// Tests for power analysis, the timing optimizer, and clock-tree synthesis.

#include <gtest/gtest.h>

#include "cts/cts.hpp"
#include "gen/designs.hpp"
#include "netlist/design.hpp"
#include "opt/opt.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"

namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mo = m3d::opt;
namespace mpw = m3d::power;
namespace mpl = m3d::place;
namespace mr = m3d::route;
namespace ms = m3d::sta;
namespace mt = m3d::tech;
namespace mcts = m3d::cts;

namespace {

mn::Design placed(const char* which, double scale = 0.06,
                  bool hetero = false) {
  mg::GenOptions g;
  g.scale = scale;
  mn::Design d(mg::make_design(which, g), mt::make_12track(),
               hetero ? mt::make_9track() : nullptr);
  d.set_clock_period_ns(1.0);
  mpl::place_design(d, {});
  return d;
}

}  // namespace

// ---------------------------------------------------------------- power --

TEST(Power, ComponentsArePositiveAndSum) {
  auto d = placed("netcard");
  const auto routes = mr::route_design(d);
  const auto p = mpw::analyze_power(d, &routes, 1.0);
  EXPECT_GT(p.switching_mw, 0.0);
  EXPECT_GT(p.internal_mw, 0.0);
  EXPECT_GT(p.leakage_mw, 0.0);
  EXPECT_NEAR(p.total_mw,
              p.switching_mw + p.internal_mw + p.leakage_mw + p.clock_mw,
              1e-9);
}

TEST(Power, ScalesLinearlyWithFrequency) {
  auto d = placed("aes");
  const auto routes = mr::route_design(d);
  const auto p1 = mpw::analyze_power(d, &routes, 1.0);
  const auto p2 = mpw::analyze_power(d, &routes, 2.0);
  EXPECT_NEAR(p2.switching_mw / p1.switching_mw, 2.0, 1e-9);
  EXPECT_NEAR(p2.internal_mw / p1.internal_mw, 2.0, 1e-9);
  EXPECT_NEAR(p2.leakage_mw, p1.leakage_mw, 1e-9);  // static
}

TEST(Power, WiresAddSwitchingPower) {
  auto d = placed("netcard");
  const auto routes = mr::route_design(d);
  const auto with = mpw::analyze_power(d, &routes, 1.0);
  const auto without = mpw::analyze_power(d, nullptr, 1.0);
  EXPECT_GT(with.switching_mw, without.switching_mw);
}

TEST(Power, NineTrackTierUsesLessPower) {
  auto d = placed("netcard", 0.06, /*hetero=*/true);
  const auto routes = mr::route_design(d);
  const auto bottom_only = mpw::analyze_power(d, &routes, 1.0);
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (cc.is_comb() || cc.is_sequential()) d.set_tier(c, mn::kTopTier);
  }
  const auto routes2 = mr::route_design(d);
  const auto top_only = mpw::analyze_power(d, &routes2, 1.0);
  EXPECT_LT(top_only.total_mw, bottom_only.total_mw);
  EXPECT_LT(top_only.leakage_mw, 0.2 * bottom_only.leakage_mw);
}

TEST(Power, BoundaryLeakageDerateVisible) {
  auto d = placed("netcard", 0.06, /*hetero=*/true);
  // Alternate tiers so many inputs cross.
  int i = 0;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if ((cc.is_comb() || cc.is_sequential()) && ++i % 2 == 0)
      d.set_tier(c, mn::kTopTier);
  }
  const auto routes = mr::route_design(d);
  mpw::PowerOptions on, off;
  off.boundary_leakage = false;
  const auto p_on = mpw::analyze_power(d, &routes, 1.0, on);
  const auto p_off = mpw::analyze_power(d, &routes, 1.0, off);
  EXPECT_NE(p_on.leakage_mw, p_off.leakage_mw);
  // Leakage is a small slice of total power, so totals stay close
  // (the paper's point about the large-looking Table III deltas).
  EXPECT_NEAR(p_on.total_mw / p_off.total_mw, 1.0, 0.05);
}

TEST(Power, PerNetSwitchingReported) {
  auto d = placed("aes");
  const auto routes = mr::route_design(d);
  const auto p = mpw::analyze_power(d, &routes, 1.0);
  ASSERT_EQ(p.net_switching_uw.size(),
            static_cast<std::size_t>(d.nl().net_count()));
  double sum = 0.0;
  for (double uw : p.net_switching_uw) sum += uw;
  EXPECT_NEAR(sum / 1000.0, p.switching_mw + p.clock_mw, p.clock_mw + 1e-6);
}

// ------------------------------------------------------------------ opt --

TEST(Opt, FanoutBufferingCapsFanout) {
  // One driver fanning out to 40 inverters.
  mn::Netlist nl("hifo");
  const auto drv = nl.add_comb("drv", mt::CellFunc::Buf, 2);
  const auto in = nl.add_input_port("in");
  const auto n_in = nl.add_net("n_in");
  nl.connect(n_in, nl.output_pin(in));
  nl.connect(n_in, nl.input_pin(drv, 0));
  const auto big = nl.add_net("big");
  nl.connect(big, nl.output_pin(drv));
  for (int i = 0; i < 40; ++i) {
    const auto inv =
        nl.add_comb("s" + std::to_string(i), mt::CellFunc::Inv, 1);
    nl.connect(big, nl.input_pin(inv, 0));
    const auto po = nl.add_output_port("o" + std::to_string(i));
    const auto n = nl.add_net("n" + std::to_string(i));
    nl.connect(n, nl.output_pin(inv));
    nl.connect(n, nl.input_pin(po, 0));
  }
  mn::Design d(std::move(nl), mt::make_12track());
  d.set_floorplan({0, 0, 50, 50});
  const int added = mo::insert_fanout_buffers(d, 8);
  EXPECT_GE(added, 5);  // ceil(40/8) groups
  d.nl().validate();
  for (mn::NetId n = 0; n < d.nl().net_count(); ++n) {
    const auto& net = d.nl().net(n);
    if (net.is_clock || net.driver == mn::kInvalidId) continue;
    EXPECT_LE(d.nl().fanout(n), 8) << d.nl().net(n).name;
  }
}

TEST(Opt, UpsizingImprovesWns) {
  auto d = placed("cpu", 0.08);
  d.set_clock_period_ns(0.45);  // tight
  const auto routes = mr::route_design(d);
  const auto before = ms::run_sta(d, &routes);
  const int changed = mo::upsize_critical(d, before, 0.0);
  EXPECT_GT(changed, 0);
  const auto routes2 = mr::route_design(d);
  const auto after = ms::run_sta(d, &routes2);
  EXPECT_GT(after.wns(), before.wns());
}

TEST(Opt, PowerRecoveryDownsizesIdleCells) {
  auto d = placed("netcard");
  d.set_clock_period_ns(5.0);  // everything has slack
  // Upsize everything artificially first.
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_comb()) d.nl().set_drive(c, 4);
  const auto routes = mr::route_design(d);
  const auto timing = ms::run_sta(d, &routes);
  const int changed = mo::recover_power(d, timing, 1.0);
  EXPECT_GT(changed, 0);
}

TEST(Opt, FullLoopImprovesTimingAndReportsCounts) {
  auto d = placed("cpu", 0.08);
  d.set_clock_period_ns(0.45);
  mo::OptOptions opt;
  opt.max_sizing_rounds = 3;
  const auto res = mo::optimize_timing(d, opt);
  EXPECT_GE(res.wns_after, res.wns_before);
  EXPECT_GT(res.cells_upsized + res.buffers_added, 0);
  d.nl().validate();
}

TEST(Opt, SlowLibraryNeedsMoreUpsizing) {
  // The paper's 9-track "over-correction": at the same frequency target,
  // the slow library needs far more sizing effort.
  mg::GenOptions g;
  g.scale = 0.08;
  auto nl = mg::make_cpu(g);
  mn::Design fast(nl, mt::make_12track());
  mn::Design slow(nl, mt::make_9track());
  for (auto* d : {&fast, &slow}) {
    d->set_clock_period_ns(0.6);
    mpl::place_design(*d, {});
  }
  mo::OptOptions opt;
  opt.max_sizing_rounds = 3;
  const auto rf = mo::optimize_timing(fast, opt);
  const auto rs = mo::optimize_timing(slow, opt);
  EXPECT_GT(rs.cells_upsized, rf.cells_upsized);
}

// ------------------------------------------------------------------ cts --

TEST(Cts, BuildsTreeAndAnnotatesLatency) {
  auto d = placed("netcard");
  const auto rep = mcts::build_clock_tree(d);
  EXPECT_GT(rep.buffer_count, 0);
  EXPECT_GT(rep.sink_count, 100);
  EXPECT_GT(rep.max_latency_ns, 0.0);
  EXPECT_GE(rep.max_skew_ns, 0.0);
  d.nl().validate();
  // Every flop now carries a latency.
  int with_latency = 0;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_sequential() && d.clock_latency(c) > 0.0)
      ++with_latency;
  EXPECT_GT(with_latency, 100);
}

TEST(Cts, ClockPinsAllConnectedToClockNets) {
  auto d = placed("cpu", 0.08);
  mcts::build_clock_tree(d);
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (!cc.is_sequential() && !cc.is_macro()) continue;
    const auto ck = d.nl().clock_pin(c);
    ASSERT_NE(d.nl().pin(ck).net, mn::kInvalidId) << cc.name;
    EXPECT_TRUE(d.nl().net(d.nl().pin(ck).net).is_clock);
  }
}

TEST(Cts, HeteroTrunkPrefersTopTier) {
  auto d = placed("cpu", 0.08, /*hetero=*/true);
  // Split flops across tiers.
  int i = 0;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_sequential() && ++i % 2 == 0)
      d.set_tier(c, mn::kTopTier);
  mcts::CtsOptions opt;
  opt.prefer_low_power_trunk = true;
  opt.balance_skew = false;  // pads follow leaf tiers; isolate the trunk
  const auto rep = mcts::build_clock_tree(d, opt);
  // Paper: >75 % of the heterogeneous clock sits on the top die. Expect a
  // clear top-tier majority here.
  EXPECT_GT(rep.buffer_count_tier[1], rep.buffer_count_tier[0]);
}

TEST(Cts, PerDieModeBreaksTheTreeInTwo) {
  auto build = [&](mcts::Mode3D mode, mn::Design& out) {
    auto d = placed("cpu", 0.08, /*hetero=*/true);
    int i = 0;
    for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
      if (d.nl().cell(c).is_sequential() && ++i % 2 == 0)
        d.set_tier(c, mn::kTopTier);
    mcts::CtsOptions opt;
    opt.mode = mode;
    opt.balance_skew = false;  // compare the raw trees, not pad counts
    const auto rep = mcts::build_clock_tree(d, opt);
    out = std::move(d);
    return rep;
  };
  mn::Design du = placed("cpu", 0.08, true), dp = du;
  build(mcts::Mode3D::CoverCell, du);
  build(mcts::Mode3D::PerDie, dp);
  // The paper's point: treating the other die's cells as macros breaks the
  // clock network apart — the root feeds one independent tree per die.
  EXPECT_EQ(du.nl().fanout(du.clock_net()), 1);
  EXPECT_EQ(dp.nl().fanout(dp.clock_net()), 2);
}

TEST(Cts, LatencyRecomputableAfterMoves) {
  auto d = placed("netcard");
  const auto rep1 = mcts::build_clock_tree(d);
  mpl::legalize(d);
  const auto rep2 = mcts::annotate_clock_latencies(d);
  EXPECT_EQ(rep2.buffer_count, rep1.buffer_count);
  EXPECT_GT(rep2.max_latency_ns, 0.0);
}

TEST(Cts, SkewFeedsStaCapture) {
  auto d = placed("netcard");
  mcts::build_clock_tree(d);
  const auto routes = mr::route_design(d);
  // With propagated clock the analysis still works and skews enter slack.
  const auto r = ms::run_sta(d, &routes);
  EXPECT_GT(r.endpoint_count(), 0);
  const auto cp = r.critical_path();
  EXPECT_NE(cp.clock_skew_ns, 0.0);
}

// ---- parallel determinism ------------------------------------------------

#include "exec/pool.hpp"
#include "netlist/writer.hpp"

namespace mex = m3d::exec;

namespace {

void expect_identical_report(const mcts::ClockTreeReport& a,
                             const mcts::ClockTreeReport& b) {
  ASSERT_EQ(a.buffer_count, b.buffer_count);
  ASSERT_EQ(a.buffer_count_tier[0], b.buffer_count_tier[0]);
  ASSERT_EQ(a.buffer_count_tier[1], b.buffer_count_tier[1]);
  ASSERT_EQ(a.buffer_area_um2, b.buffer_area_um2);
  ASSERT_EQ(a.wirelength_um, b.wirelength_um);
  ASSERT_EQ(a.max_latency_ns, b.max_latency_ns);
  ASSERT_EQ(a.min_latency_ns, b.min_latency_ns);
  ASSERT_EQ(a.max_skew_ns, b.max_skew_ns);
  ASSERT_EQ(a.sink_count, b.sink_count);
}

}  // namespace

TEST(Cts, ByteIdenticalAcrossPoolSizes) {
  // Build the tree on three copies of the same placed design with
  // different pools: the netlist (names, ids, connectivity), placement,
  // latencies, and report must all come out bitwise equal. At this scale
  // the tree has more than one 128-net chunk of clock nets, so annotate's
  // pooled sweep (route each clock net, then time its sinks and its
  // driving buffer) fans out.
  auto d0 = placed("netcard", 0.2, /*hetero=*/true);
  auto d1 = placed("netcard", 0.2, /*hetero=*/true);
  auto d4 = placed("netcard", 0.2, /*hetero=*/true);
  mex::Pool serial(1), wide(4);

  mcts::CtsOptions o0;  // no pool at all
  mcts::CtsOptions o1;
  o1.pool = &serial;
  mcts::CtsOptions o4;
  o4.pool = &wide;
  const auto r0 = mcts::build_clock_tree(d0, o0);
  const auto r1 = mcts::build_clock_tree(d1, o1);
  auto posted = wide.stats().posted;
  const auto r4 = mcts::build_clock_tree(d4, o4);
  EXPECT_GT(wide.stats().posted, posted);  // the wide build fanned out

  expect_identical_report(r0, r1);
  expect_identical_report(r0, r4);
  EXPECT_EQ(mn::verilog_string(d0.nl()), mn::verilog_string(d1.nl()));
  EXPECT_EQ(mn::verilog_string(d0.nl()), mn::verilog_string(d4.nl()));
  EXPECT_EQ(mn::placement_string(d0), mn::placement_string(d1));
  EXPECT_EQ(mn::placement_string(d0), mn::placement_string(d4));
  for (mn::CellId c = 0; c < d0.nl().cell_count(); ++c) {
    ASSERT_EQ(d0.clock_latency(c), d1.clock_latency(c)) << "cell " << c;
    ASSERT_EQ(d0.clock_latency(c), d4.clock_latency(c)) << "cell " << c;
  }

  // annotate_clock_latencies on its own must agree too, and its timing
  // sweep must post to the wide pool.
  const auto a1 = mcts::annotate_clock_latencies(d1, &serial);
  posted = wide.stats().posted;
  const auto a4 = mcts::annotate_clock_latencies(d4, &wide);
  EXPECT_GT(wide.stats().posted, posted);
  expect_identical_report(a1, a4);
}

TEST(Power, ByteIdenticalAcrossPoolSizes) {
  auto d = placed("netcard", 0.06, /*hetero=*/true);
  const auto routes = mr::route_design(d);
  mex::Pool serial(1), wide(4);

  mpw::PowerOptions o0;  // no pool at all
  mpw::PowerOptions o1;
  o1.pool = &serial;
  mpw::PowerOptions o4;
  o4.pool = &wide;
  const auto p0 = mpw::analyze_power(d, &routes, 1.0, o0);
  const auto p1 = mpw::analyze_power(d, &routes, 1.0, o1);
  const auto posted = wide.stats().posted;
  const auto p4 = mpw::analyze_power(d, &routes, 1.0, o4);
  EXPECT_GT(wide.stats().posted, posted);  // the wide run fanned out

  for (const auto* p : {&p1, &p4}) {
    ASSERT_EQ(p0.switching_mw, p->switching_mw);
    ASSERT_EQ(p0.internal_mw, p->internal_mw);
    ASSERT_EQ(p0.leakage_mw, p->leakage_mw);
    ASSERT_EQ(p0.clock_mw, p->clock_mw);
    ASSERT_EQ(p0.total_mw, p->total_mw);
    ASSERT_EQ(p0.net_switching_uw, p->net_switching_uw);
  }
}

// A null pool means exec::Pool::global() in every kernel: designs of more
// than one chunk fan out there.

TEST(Power, NullPoolRunsOnTheGlobalPool) {
  mex::Pool& global = mex::Pool::global();
  if (global.size() <= 1) GTEST_SKIP() << "global pool has one worker";
  auto d = placed("netcard", 0.06, /*hetero=*/true);  // > 2,048 cells
  const auto routes = mr::route_design(d);
  const auto posted = global.stats().posted;
  mpw::analyze_power(d, &routes, 1.0);
  EXPECT_GT(global.stats().posted, posted);
}

TEST(Cts, NullPoolRunsOnTheGlobalPool) {
  mex::Pool& global = mex::Pool::global();
  if (global.size() <= 1) GTEST_SKIP() << "global pool has one worker";
  // More than one bisection subtree per level below the root, and more
  // than one 128-net chunk of clock nets to pre-route.
  auto d = placed("netcard", 0.2, /*hetero=*/true);
  auto posted = global.stats().posted;
  mcts::build_clock_tree(d);
  EXPECT_GT(global.stats().posted, posted);
  posted = global.stats().posted;
  mcts::annotate_clock_latencies(d);
  EXPECT_GT(global.stats().posted, posted);
}

// ---- incremental optimizer vs the full-rebuild reference ----------------

namespace {

/// opt.cpp's kBufferDrive and kMaxTransitionFo4.
constexpr int kBufferDrive = 4;
constexpr double kMaxTransitionFo4 = 8.0;

/// Reference for optimize_timing: the same sweeps, but after each one the
/// whole design is routed again and timed by a fresh full STA, so nothing
/// rests on retime(). Adds the cells the recovery-repair upsize changed
/// to `*repair_upsized`.
mo::OptResult full_rebuild_optimize(mn::Design& d, const mo::OptOptions& opt,
                                    int* repair_upsized) {
  mo::OptResult res;
  auto time_design = [&] {
    if (!opt.routed) return ms::run_sta(d, nullptr, opt.sta);
    const auto routes = mr::route_design(d, {opt.sta.pool});
    return ms::run_sta(d, &routes, opt.sta);
  };
  res.buffers_added =
      mo::insert_fanout_buffers(d, opt.max_fanout, kBufferDrive);
  if (opt.routed)
    res.buffers_added +=
        mo::insert_wire_repeaters(d, opt.max_wire_um, kBufferDrive);
  ms::StaResult timing = time_design();
  res.wns_before = timing.wns();
  for (int round = 0; round < opt.max_sizing_rounds; ++round) {
    int changed = mo::fix_max_transition(d, timing, kMaxTransitionFo4);
    if (timing.wns() < opt.target_slack_ns)
      changed += mo::upsize_critical(d, timing, opt.target_slack_ns);
    res.cells_upsized += changed;
    if (changed == 0) break;
    timing = time_design();
  }
  const double recovery_threshold =
      opt.recovery_slack_frac * d.clock_period_ns();
  for (int round = 0; round < opt.power_recovery_rounds; ++round) {
    const int changed = mo::recover_power(d, timing, recovery_threshold);
    res.cells_downsized += changed;
    if (changed == 0) break;
    timing = time_design();
    if (timing.wns() < res.wns_before) {
      *repair_upsized += mo::upsize_critical(d, timing, opt.target_slack_ns);
      timing = time_design();
    }
  }
  res.wns_after = timing.wns();
  return res;
}

std::vector<int> drives(const mn::Design& d) {
  std::vector<int> out;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    out.push_back(d.nl().cell(c).drive);
  return out;
}

/// Bit-for-bit equality of two optimizer outcomes.
void expect_same_outcome(const mo::OptResult& a, const mn::Design& da,
                         const mo::OptResult& b, const mn::Design& db) {
  EXPECT_EQ(a.buffers_added, b.buffers_added);
  EXPECT_EQ(a.cells_upsized, b.cells_upsized);
  EXPECT_EQ(a.cells_downsized, b.cells_downsized);
  EXPECT_EQ(a.wns_before, b.wns_before);
  EXPECT_EQ(a.wns_after, b.wns_after);
  EXPECT_EQ(da.nl().cell_count(), db.nl().cell_count());
  EXPECT_EQ(da.nl().net_count(), db.nl().net_count());
  EXPECT_EQ(drives(da), drives(db));
}

/// A placed design with every other standard cell on the slow top tier.
mn::Design placed_hetero(const char* which, double scale) {
  auto d = placed(which, scale, /*hetero=*/true);
  int i = 0;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if ((cc.is_comb() || cc.is_sequential()) && ++i % 2 == 0)
      d.set_tier(c, mn::kTopTier);
  }
  return d;
}

}  // namespace

TEST(Opt, IncrementalLoopMatchesFullRebuildReference) {
  auto flat = placed("cpu", 0.08);
  flat.set_clock_period_ns(0.45);
  auto hetero = placed_hetero("cpu", 0.08);
  hetero.set_clock_period_ns(0.6);
  // Recovery allowed down to 10 % of the period pushes this design's WNS
  // below its starting value, so the repair upsize has cells to restore.
  auto repairs = placed("netcard");
  repairs.set_clock_period_ns(0.45);
  struct Case {
    const char* name;
    const mn::Design* design;
    double recovery_slack_frac;
  };
  const Case cases[] = {{"2D-12T", &flat, 0.3},
                        {"Hetero-3D", &hetero, 0.3},
                        {"2D-12T repair", &repairs, 0.1}};
  mex::Pool serial(1), wide(4);
  int repair_upsized = 0;
  for (const Case& cs : cases) {
    for (const bool routed : {true, false}) {
      SCOPED_TRACE(std::string(cs.name) + (routed ? " routed" : " zero-wire"));
      mo::OptOptions opt;
      opt.routed = routed;
      opt.recovery_slack_frac = cs.recovery_slack_frac;
      mn::Design ref = *cs.design;
      const auto want = full_rebuild_optimize(ref, opt, &repair_upsized);
      EXPECT_GT(want.cells_upsized, 0);
      EXPECT_GT(want.cells_downsized, 0);
      for (mex::Pool* pool : {&serial, &wide}) {
        mn::Design d = *cs.design;
        opt.sta.pool = pool;
        const auto got = mo::optimize_timing(d, opt);
        expect_same_outcome(got, d, want, ref);
      }
    }
  }
  EXPECT_GT(repair_upsized, 0);
}

TEST(Opt, ThreeTierStackSizesLikeOneTier) {
  // fix_max_transition keeps one slew limit per tier. With every cell on
  // tier 2 of a {9T, 12T, 9T} stack, the design must optimize exactly
  // like the same placement on a single 9-track tier: tier 2's limit
  // comes from tier 2's library, and nothing indexes past the stack.
  mg::GenOptions g;
  g.scale = 0.06;
  const auto nl = mg::make_design("aes", g);
  mn::Design one(nl, mt::make_9track());
  one.set_clock_period_ns(0.6);
  mpl::place_design(one, {});

  mn::Design three(one.nl(),
                   {mt::make_9track(), mt::make_12track(), mt::make_9track()});
  three.set_floorplan(one.floorplan());
  three.set_clock_period_ns(one.clock_period_ns());
  three.set_clock_net(one.clock_net());
  for (mn::CellId c = 0; c < one.nl().cell_count(); ++c) {
    three.set_tier(c, 2);
    three.set_pos(c, one.pos(c));
  }

  const auto want = mo::optimize_timing(one);
  const auto got = mo::optimize_timing(three);
  EXPECT_GT(want.cells_upsized, 0);
  expect_same_outcome(got, three, want, one);
  for (mn::CellId c = 0; c < three.nl().cell_count(); ++c)
    ASSERT_EQ(three.tier(c), 2) << "cell " << c;
}
