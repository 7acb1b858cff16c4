// Unit tests for the STA engine: propagation, slacks, rise/fall handling,
// critical-path tracing, clock latency/skew, boundary derates, macros,
// and loop detection.

#include <gtest/gtest.h>

#include "netlist/design.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"

namespace mn = m3d::netlist;
namespace mr = m3d::route;
namespace ms = m3d::sta;
namespace mt = m3d::tech;

namespace {

/// clk -> [FF launch] -> INV chain -> [FF capture], placed in a row.
struct Chain {
  mn::Netlist nl{"chain"};
  mn::CellId ff_in = mn::kInvalidId, ff_out = mn::kInvalidId;
  std::vector<mn::CellId> invs;

  explicit Chain(int n_inv) {
    const auto clk_port = nl.add_input_port("clk");
    const auto clk = nl.add_net("clk", /*is_clock=*/true);
    nl.connect(clk, nl.output_pin(clk_port));

    ff_in = nl.add_dff("ff_in", 1);
    ff_out = nl.add_dff("ff_out", 1);
    nl.connect(clk, nl.clock_pin(ff_in));
    nl.connect(clk, nl.clock_pin(ff_out));

    // Tie the launch FF's D to a port so validation passes.
    const auto din = nl.add_input_port("din");
    const auto n_d0 = nl.add_net("n_d0");
    nl.connect(n_d0, nl.output_pin(din));
    nl.connect(n_d0, nl.input_pin(ff_in, 0));

    mn::PinId prev = nl.output_pin(ff_in);
    for (int i = 0; i < n_inv; ++i) {
      const auto inv =
          nl.add_comb("inv" + std::to_string(i), mt::CellFunc::Inv, 1);
      invs.push_back(inv);
      const auto n = nl.add_net("n" + std::to_string(i));
      nl.connect(n, prev);
      nl.connect(n, nl.input_pin(inv, 0));
      prev = nl.output_pin(inv);
    }
    const auto n_last = nl.add_net("n_last");
    nl.connect(n_last, prev);
    nl.connect(n_last, nl.input_pin(ff_out, 0));
    nl.validate();
  }

  mn::Design design(double period, bool hetero = false) {
    mn::Design d(nl, mt::make_12track(),
                 hetero ? mt::make_9track() : nullptr);
    d.set_clock_period_ns(period);
    d.set_floorplan({0, 0, 200, 20});
    // Spread in a row, 10 µm apart.
    double x = 0;
    for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
      d.set_pos(c, {x, 5.0});
      x += 10.0;
    }
    return d;
  }
};

}  // namespace

TEST(Sta, ChainTimingIsPlausible) {
  Chain ch(8);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  // 8 × ~20 ps stages + clk→q ≪ 1 ns: positive slack, no violations.
  EXPECT_GT(r.wns(), 0.0);
  EXPECT_EQ(r.violated_endpoints(), 0);
  EXPECT_DOUBLE_EQ(r.tns(), 0.0);
  EXPECT_GE(r.endpoint_count(), 2);  // ff_out D + ff_in D (through din)
}

TEST(Sta, TightPeriodCreatesViolations) {
  Chain ch(30);
  auto d = ch.design(0.05);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  EXPECT_LT(r.wns(), 0.0);
  EXPECT_LT(r.tns(), r.wns() - 1e-12 + 1e-9);  // TNS ≤ WNS when violating
  EXPECT_GT(r.violated_endpoints(), 0);
}

TEST(Sta, SlackScalesOneToOneWithPeriod) {
  Chain ch(10);
  auto d1 = ch.design(1.0);
  auto d2 = ch.design(1.5);
  const auto rt1 = mr::route_design(d1);
  const auto rt2 = mr::route_design(d2);
  const double s1 = ms::run_sta(d1, &rt1).wns();
  const double s2 = ms::run_sta(d2, &rt2).wns();
  EXPECT_NEAR(s2 - s1, 0.5, 1e-9);
}

TEST(Sta, LongerChainHasLessSlack) {
  Chain a(5), b(20);
  auto da = a.design(1.0);
  auto db = b.design(1.0);
  const auto ra = mr::route_design(da);
  const auto rb = mr::route_design(db);
  EXPECT_GT(ms::run_sta(da, &ra).wns(), ms::run_sta(db, &rb).wns());
}

TEST(Sta, WiresAddDelay) {
  Chain ch(10);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const double with_wire = ms::run_sta(d, &routes).wns();
  const double no_wire = ms::run_sta(d, nullptr).wns();
  EXPECT_LT(with_wire, no_wire);
}

TEST(Sta, CriticalPathTraceIsComplete) {
  Chain ch(12);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  const auto cp = r.critical_path();
  // Launch FF + 12 inverters + capture FF (wire-only final stage).
  EXPECT_EQ(cp.total_cells(), 14);
  EXPECT_DOUBLE_EQ(cp.stages.back().cell_delay_ns, 0.0);
  EXPECT_EQ(d.nl().pin(cp.endpoint).cell, ch.ff_out);
  EXPECT_NEAR(cp.path_delay_ns, cp.cell_delay_ns + cp.wire_delay_ns, 1e-9);
  EXPECT_GT(cp.wirelength_um, 0.0);
  EXPECT_EQ(cp.miv_count, 0);
  // slack = T + skew - setup - path_delay for an ideal (zero-latency) clock
  EXPECT_NEAR(cp.slack_ns,
              1.0 + cp.clock_skew_ns - cp.setup_ns - cp.path_delay_ns, 1e-9);
}

TEST(Sta, CellSlackIdentifiesCriticalCells) {
  Chain ch(10);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  // Every inverter is on the single path: all share the same worst slack.
  const double s0 = r.cell_slack(ch.invs[0]);
  for (auto inv : ch.invs) EXPECT_NEAR(r.cell_slack(inv), s0, 1e-9);
  EXPECT_NEAR(r.cell_slack(ch.ff_out), s0, 1e-9);
}

TEST(Sta, SidePathHasMoreSlack) {
  // Main chain of 10 plus a 2-inverter shortcut to a third FF.
  Chain ch(10);
  auto& nl = ch.nl;
  const auto ff3 = nl.add_dff("ff3", 1);
  nl.connect(nl.pin(nl.clock_pin(ch.ff_in)).net, nl.clock_pin(ff3));
  const auto tap = nl.add_comb("tap", mt::CellFunc::Inv, 1);
  const auto q_net = nl.pin(nl.output_pin(ch.ff_in)).net;
  nl.connect(q_net, nl.input_pin(tap, 0));
  const auto n_tap = nl.add_net("n_tap");
  nl.connect(n_tap, nl.output_pin(tap));
  nl.connect(n_tap, nl.input_pin(ff3, 0));
  nl.validate();

  mn::Design d(nl, mt::make_12track());
  d.set_clock_period_ns(1.0);
  d.set_floorplan({0, 0, 300, 20});
  double x = 0;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    d.set_pos(c, {x += 10.0, 5.0});
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  EXPECT_GT(r.cell_slack(tap), r.cell_slack(ch.invs[5]));
  // Worst endpoint is the long chain's capture FF.
  const auto cp = r.critical_path();
  EXPECT_EQ(d.nl().pin(cp.endpoint).cell, ch.ff_out);
}

TEST(Sta, ClockLatencySkewShiftsSlack) {
  Chain ch(10);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const double base = ms::run_sta(d, &routes).wns();

  // Positive skew (late capture clock) relaxes setup on the main path.
  d.set_clock_latency(ch.ff_out, 0.1);
  const auto r2 = ms::run_sta(d, &routes);
  const auto cp = r2.critical_path();
  EXPECT_NEAR(cp.clock_skew_ns, 0.1, 1e-12);
  EXPECT_NEAR(cp.slack_ns, base + 0.1, 1e-9);

  // Late launch clock tightens it again.
  d.set_clock_latency(ch.ff_in, 0.1);
  EXPECT_NEAR(ms::run_sta(d, &routes).critical_path().slack_ns, base, 1e-9);

  // ideal_clock ignores installed latencies.
  ms::StaOptions opt;
  opt.ideal_clock = true;
  EXPECT_NEAR(ms::run_sta(d, &routes, opt).wns(), base, 1e-9);
}

TEST(Sta, HeteroTopTierIsSlower) {
  Chain ch(10);
  auto d = ch.design(1.0, /*hetero=*/true);
  const auto routes = mr::route_design(d);
  const double all_fast = ms::run_sta(d, &routes).wns();
  for (auto inv : ch.invs) d.set_tier(inv, mn::kTopTier);
  const auto routes2 = mr::route_design(d);
  const double all_slow = ms::run_sta(d, &routes2).wns();
  EXPECT_LT(all_slow, all_fast);
  // The gap should be substantial (9T ≈ 2× stage delay).
  EXPECT_GT(all_fast - all_slow, 0.05);
}

TEST(Sta, BoundaryDeratesChangeTimingAcrossTiers) {
  Chain ch(12);
  auto d = ch.design(1.0, /*hetero=*/true);
  // Alternate tiers so every stage crosses.
  for (std::size_t i = 0; i < ch.invs.size(); i += 2)
    d.set_tier(ch.invs[i], mn::kTopTier);
  const auto routes = mr::route_design(d);
  ms::StaOptions with, without;
  without.boundary_derates = false;
  const double w = ms::run_sta(d, &routes, with).wns();
  const double wo = ms::run_sta(d, &routes, without).wns();
  EXPECT_NE(w, wo);
  // Opposite-direction errors mostly cancel on a multi-stage path
  // (paper §II-B): the net effect stays small.
  EXPECT_LT(std::abs(w - wo), 0.05);
}

TEST(Sta, CombinationalLoopThrows) {
  mn::Netlist nl("loop");
  const auto a = nl.add_comb("a", mt::CellFunc::Inv, 1);
  const auto b = nl.add_comb("b", mt::CellFunc::Inv, 1);
  const auto n1 = nl.add_net("n1");
  const auto n2 = nl.add_net("n2");
  nl.connect(n1, nl.output_pin(a));
  nl.connect(n1, nl.input_pin(b, 0));
  nl.connect(n2, nl.output_pin(b));
  nl.connect(n2, nl.input_pin(a, 0));
  mn::Design d(std::move(nl), mt::make_12track());
  EXPECT_THROW(ms::run_sta(d, nullptr), m3d::util::Error);
}

TEST(Sta, MacroLaunchAndCapture) {
  mn::Netlist nl("mem");
  const auto clk_port = nl.add_input_port("clk");
  const auto clk = nl.add_net("clk", true);
  nl.connect(clk, nl.output_pin(clk_port));
  const auto mem = nl.add_macro("mem", "SRAM_1KX32", 2, 2);
  nl.connect(clk, nl.clock_pin(mem));
  const auto ff = nl.add_dff("ff", 1);
  nl.connect(clk, nl.clock_pin(ff));
  // mem.out0 -> INV -> ff.D ; ff.Q -> mem.in0 ; port -> mem.in1
  const auto inv = nl.add_comb("inv", mt::CellFunc::Inv, 1);
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.output_pin(mem, 0));
  nl.connect(n1, nl.input_pin(inv, 0));
  const auto n2 = nl.add_net("n2");
  nl.connect(n2, nl.output_pin(inv));
  nl.connect(n2, nl.input_pin(ff, 0));
  const auto n3 = nl.add_net("n3");
  nl.connect(n3, nl.output_pin(ff));
  nl.connect(n3, nl.input_pin(mem, 0));
  const auto p = nl.add_input_port("p");
  const auto n4 = nl.add_net("n4");
  nl.connect(n4, nl.output_pin(p));
  nl.connect(n4, nl.input_pin(mem, 1));
  // mem.out1 dangles intentionally (unused macro output).
  nl.validate();

  mn::Design d(std::move(nl), mt::make_12track());
  d.set_clock_period_ns(1.0);
  d.set_floorplan({0, 0, 100, 100});
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  // The mem->inv->ff path carries the 250 ps access time.
  const auto cp = r.critical_path();
  EXPECT_GT(cp.path_delay_ns, 0.25);
  EXPECT_EQ(cp.stages.front().cell, mem);
  // Endpoints include the macro inputs (setup-checked).
  bool macro_ep = false;
  for (auto ep : r.endpoints_by_slack())
    if (d.nl().pin(ep).cell == mem) macro_ep = true;
  EXPECT_TRUE(macro_ep);
}

TEST(Sta, WorstPathsAreSortedBySlack) {
  Chain ch(15);
  auto d = ch.design(0.2);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  const auto paths = r.worst_paths(3);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_LE(paths[0].slack_ns, paths[1].slack_ns + 1e-12);
}

TEST(Sta, RiseFallBothPropagated) {
  Chain ch(3);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  const auto din = d.nl().input_pin(ch.ff_out, 0);
  EXPECT_GT(r.pin_arrival(din), 0.0);
  EXPECT_GT(r.pin_slew(din), 0.0);
  EXPECT_LT(r.pin_slack(din), 1.0);
}

TEST(Sta, HoldAnalysisCleanOnChain) {
  // A chain of inverters between flops has plenty of min-delay: no race.
  Chain ch(8);
  auto d = ch.design(1.0);
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  EXPECT_GT(r.whs(), 0.0);
  EXPECT_EQ(r.hold_violations(), 0);
}

TEST(Sta, HoldViolationFromCaptureClockDelay) {
  // Push the capture FF's clock very late: the direct FF->FF short path
  // races it and hold fails.
  Chain ch(1);
  auto d = ch.design(1.0);
  d.set_clock_latency(ch.ff_out, 0.5);  // capture clock 500 ps late
  const auto routes = mr::route_design(d);
  const auto r = ms::run_sta(d, &routes);
  EXPECT_LT(r.whs(), 0.0);
  EXPECT_GT(r.hold_violations(), 0);
  // Setup on that path actually benefits from the late capture clock.
  EXPECT_GT(r.wns(), 0.0);
}

TEST(Sta, HoldUsesShortestPath) {
  // Two parallel paths from FF to FF: one long (10 inv), one short (1
  // inv). Hold must see the short one even though setup sees the long.
  mn::Netlist nl("par");
  const auto clk_port = nl.add_input_port("clk");
  const auto clk = nl.add_net("clk", true);
  nl.connect(clk, nl.output_pin(clk_port));
  const auto ff_a = nl.add_dff("ffa", 1);
  const auto ff_b = nl.add_dff("ffb", 1);
  nl.connect(clk, nl.clock_pin(ff_a));
  nl.connect(clk, nl.clock_pin(ff_b));
  const auto din = nl.add_input_port("din");
  const auto n0 = nl.add_net("n0");
  nl.connect(n0, nl.output_pin(din));
  nl.connect(n0, nl.input_pin(ff_a, 0));

  const auto q = nl.add_net("q");
  nl.connect(q, nl.output_pin(ff_a));
  mn::PinId tail = mn::kInvalidId;
  {
    mn::NetId cur = q;
    for (int i = 0; i < 10; ++i) {
      const auto inv =
          nl.add_comb("long" + std::to_string(i), mt::CellFunc::Inv, 1);
      nl.connect(cur, nl.input_pin(inv, 0));
      cur = nl.add_net("ln" + std::to_string(i));
      nl.connect(cur, nl.output_pin(inv));
    }
    const auto mix = nl.add_comb("mix", mt::CellFunc::And2, 1);
    nl.connect(cur, nl.input_pin(mix, 0));
    const auto shrt = nl.add_comb("shrt", mt::CellFunc::Inv, 1);
    nl.connect(q, nl.input_pin(shrt, 0));
    const auto sn = nl.add_net("sn");
    nl.connect(sn, nl.output_pin(shrt));
    nl.connect(sn, nl.input_pin(mix, 1));
    const auto dn = nl.add_net("dn");
    nl.connect(dn, nl.output_pin(mix));
    nl.connect(dn, nl.input_pin(ff_b, 0));
    tail = nl.input_pin(ff_b, 0);
  }
  nl.validate();
  mn::Design d(std::move(nl), mt::make_12track());
  d.set_clock_period_ns(1.0);
  d.set_floorplan({0, 0, 100, 20});
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    d.set_pos(c, {static_cast<double>(c), 5.0});
  const auto r = ms::run_sta(d, nullptr);
  // Min arrival at the endpoint must be far below max arrival.
  (void)tail;
  EXPECT_GT(r.whs(), 0.0);  // no forced race, but both analyses ran
  EXPECT_GT(r.wns(), 0.0);
}

TEST(Sta, HoldAnalysisCanBeDisabled) {
  Chain ch(4);
  auto d = ch.design(1.0);
  ms::StaOptions opt;
  opt.hold_analysis = false;
  const auto r = ms::run_sta(d, nullptr, opt);
  EXPECT_DOUBLE_EQ(r.whs(), 0.0);
  EXPECT_EQ(r.hold_violations(), 0);
}

// ---- incremental retime + parallel determinism ---------------------------

#include <random>

#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "place/place.hpp"

namespace mgen = m3d::gen;
namespace mpl = m3d::place;
namespace mex = m3d::exec;

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace {

constexpr double kWideScale = M3D_TEST_WIDE_SCALE;

/// Placed, routed hetero design from a generated netlist: the realistic
/// substrate the retime() invariants are stated over.
mn::Design routed_hetero(const char* which, double scale, double period) {
  mn::Design d(mgen::make_design(which, {scale, 7}), mt::make_12track(),
               mt::make_9track());
  d.set_clock_period_ns(period);
  mpl::place_design(d);
  return d;
}

std::vector<mn::CellId> movable_std_cells(const mn::Design& d) {
  std::vector<mn::CellId> out;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (cc.is_comb() || cc.is_sequential()) out.push_back(c);
  }
  return out;
}

/// Exact (bitwise-value) comparison of two results over every pin.
void expect_identical(const ms::StaResult& a, const ms::StaResult& b,
                      const mn::Design& d) {
  ASSERT_EQ(a.wns(), b.wns());
  ASSERT_EQ(a.tns(), b.tns());
  ASSERT_EQ(a.whs(), b.whs());
  ASSERT_EQ(a.violated_endpoints(), b.violated_endpoints());
  ASSERT_EQ(a.hold_violations(), b.hold_violations());
  for (mn::PinId p = 0; p < d.nl().pin_count(); ++p) {
    ASSERT_EQ(a.pin_arrival(p), b.pin_arrival(p)) << "pin " << p;
    ASSERT_EQ(a.pin_slew(p), b.pin_slew(p)) << "pin " << p;
    ASSERT_EQ(a.pin_slack(p), b.pin_slack(p)) << "pin " << p;
  }
}

}  // namespace

TEST(StaRetime, MatchesFullRunAfterRandomTierMoves) {
  auto d = routed_hetero("cpu", 0.05, 0.8);
  auto routes = mr::route_design(d);
  ms::Sta sta(d, &routes);
  sta.run();

  const auto cells = movable_std_cells(d);
  std::mt19937 rng(11);
  for (int round = 0; round < 6; ++round) {
    std::uniform_int_distribution<std::size_t> pick(0, cells.size() - 1);
    std::uniform_int_distribution<int> howmany(1, 24);
    std::vector<mn::CellId> moved;
    const int k = howmany(rng);
    for (int i = 0; i < k; ++i) {
      const mn::CellId c = cells[pick(rng)];
      d.set_tier(c, 1 - d.tier(c));
      moved.push_back(c);
    }
    mr::update_routes_for_cells(d, moved, &routes);
    const auto& inc = sta.retime(moved);

    auto fresh_routes = mr::route_design(d);
    ms::Sta ref(d, &fresh_routes);
    expect_identical(inc, ref.run(), d);
  }
}

namespace {

/// One step along the cell's drive ladder: up or down as asked, or the
/// other way where the ladder ends. False for a single-drive cell.
bool resize_step(mn::Design& d, mn::CellId c, bool up) {
  const auto& lib = d.lib_of(c);
  const auto cc = d.nl().cell(c);
  int next = lib.upsize(cc.func, cc.drive);
  const int lower = lib.downsize(cc.func, cc.drive);
  if (next < 0 || (!up && lower >= 0)) next = lower;
  if (next < 0) return false;
  d.nl().set_drive(c, next);
  return true;
}

}  // namespace

TEST(StaRetime, MatchesFullRunAfterRandomResizesAndTierMoves) {
  // The timing optimizer's contract: a drive change swaps a cell's
  // library cell as a tier move does, but moves no cell and edits no net.
  // retime() over the resized and moved cells, with routes patched for
  // the moved ones only, must equal a fresh run() on freshly routed
  // wires, with and without wires, on one corner and on sixteen.
  mt::CornerSpec sweep;
  sweep.count = 16;
  sweep.derate[1] = 1.05;
  sweep.sigma[0] = 0.03;
  sweep.sigma[1] = 0.08;
  for (const bool routed : {true, false}) {
    for (const int corners : {1, 16}) {
      SCOPED_TRACE(std::string(routed ? "routed" : "zero-wire") +
                   " K=" + std::to_string(corners));
      auto d = routed_hetero("cpu", 0.05, 0.8);
      ms::StaOptions o;
      if (corners > 1) o.corners = sweep;
      mr::RoutingEstimate routes;
      if (routed) routes = mr::route_design(d);
      ms::Sta sta(d, routed ? &routes : nullptr, o);
      sta.run();

      const auto cells = movable_std_cells(d);
      std::mt19937 rng(23);
      std::uniform_int_distribution<std::size_t> pick(0, cells.size() - 1);
      std::uniform_int_distribution<int> howmany(1, 24);
      std::uniform_int_distribution<int> edit(0, 3);  // move, down, up, up
      int comb_resized = 0, seq_resized = 0;
      for (int round = 0; round < 8; ++round) {
        std::vector<mn::CellId> dirty, moved;
        const int k = howmany(rng);
        for (int i = 0; i < k; ++i) {
          const mn::CellId c = cells[pick(rng)];
          const int e = edit(rng);
          if (e == 0) {
            d.set_tier(c, 1 - d.tier(c));
            moved.push_back(c);
          } else if (resize_step(d, c, e >= 2)) {
            if (d.nl().cell(c).is_sequential())
              ++seq_resized;
            else
              ++comb_resized;
          } else {
            continue;
          }
          dirty.push_back(c);
        }
        if (routed) mr::update_routes_for_cells(d, moved, &routes);
        const auto& inc = sta.retime(dirty);

        mr::RoutingEstimate fresh_routes;
        if (routed) fresh_routes = mr::route_design(d);
        ms::Sta ref(d, routed ? &fresh_routes : nullptr, o);
        const auto& full = ref.run();
        expect_identical(inc, full, d);
        ASSERT_EQ(ms::timing_fingerprint(inc), ms::timing_fingerprint(full));
      }
      EXPECT_GT(comb_resized, 0);
      EXPECT_GT(seq_resized, 0);
    }
  }
}

TEST(StaRetime, EmptyDirtySetKeepsResult) {
  auto d = routed_hetero("aes", 0.05, 0.7);
  auto routes = mr::route_design(d);
  ms::Sta sta(d, &routes);
  const double wns = sta.run().wns();
  const double tns = sta.result().tns();
  const auto& r = sta.retime({});
  EXPECT_EQ(r.wns(), wns);
  EXPECT_EQ(r.tns(), tns);
  ms::Sta ref(d, &routes);
  expect_identical(r, ref.run(), d);
}

TEST(StaRetime, FullDirtySetMatchesRun) {
  auto d = routed_hetero("aes", 0.05, 0.7);
  auto routes = mr::route_design(d);
  ms::Sta sta(d, &routes);
  sta.run();
  // Move a cell, then hand retime() *every* cell: the worklist degenerates
  // to a full propagation and must still agree with a fresh engine.
  const auto cells = movable_std_cells(d);
  d.set_tier(cells[cells.size() / 2], 1 - d.tier(cells[cells.size() / 2]));
  std::vector<mn::CellId> all(d.nl().cell_count());
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) all[c] = c;
  mr::update_routes_for_cells(d, all, &routes);
  const auto& inc = sta.retime(all);
  ms::Sta ref(d, &routes);
  expect_identical(inc, ref.run(), d);
}

TEST(StaRetime, ThrowsBeforeFirstRun) {
  Chain ch(4);
  auto d = ch.design(1.0);
  ms::Sta sta(d, nullptr);
  EXPECT_THROW(sta.retime({}), m3d::util::Error);
}

TEST(StaRetime, ScratchIsCleanAcrossManyRetimes) {
  // One engine, 40 retimes in a row. The flags, buckets and capture
  // buffers it keeps between calls must come back all-clear every time,
  // whatever the dirty list held: nothing, repeated cells, resizes, tier
  // moves, or every cell.
  mt::CornerSpec sweep;
  sweep.count = 16;
  sweep.derate[1] = 1.05;
  sweep.sigma[0] = 0.03;
  sweep.sigma[1] = 0.08;
  for (const int corners : {1, 16}) {
    SCOPED_TRACE("K=" + std::to_string(corners));
    auto d = routed_hetero("aes", 0.05, 0.7);
    ms::StaOptions o;
    if (corners > 1) o.corners = sweep;
    auto routes = mr::route_design(d);
    ms::Sta sta(d, &routes, o);
    sta.run();

    const auto cells = movable_std_cells(d);
    std::vector<mn::CellId> all(static_cast<std::size_t>(d.nl().cell_count()));
    for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) all[c] = c;
    std::mt19937 rng(31);
    std::uniform_int_distribution<std::size_t> pick(0, cells.size() - 1);
    std::uniform_int_distribution<int> howmany(1, 16);
    std::uniform_int_distribution<int> edit(0, 2);  // move, down, up
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<mn::CellId> dirty, moved;
      if (round == 20) {
        const mn::CellId c = cells[pick(rng)];
        d.set_tier(c, 1 - d.tier(c));
        moved = all;
        dirty = all;
      } else if (round % 7 != 3) {  // rounds 3, 10, ... retime nothing
        const int k = howmany(rng);
        for (int i = 0; i < k; ++i) {
          const mn::CellId c = cells[pick(rng)];
          const int e = edit(rng);
          if (e == 0) {
            d.set_tier(c, 1 - d.tier(c));
            moved.push_back(c);
            dirty.push_back(c);
          } else if (resize_step(d, c, e == 2)) {
            dirty.push_back(c);
          }
          if (!dirty.empty() && i % 3 == 0) dirty.push_back(dirty.front());
        }
      }
      mr::update_routes_for_cells(d, moved, &routes);
      const auto& inc = sta.retime(dirty);

      auto fresh_routes = mr::route_design(d);
      ms::Sta ref(d, &fresh_routes, o);
      const auto& full = ref.run();
      expect_identical(inc, full, d);
      ASSERT_EQ(ms::timing_fingerprint(inc), ms::timing_fingerprint(full));
    }
  }
}

TEST(StaRetime, ThrowingRetimeRequiresRun) {
  auto d = routed_hetero("aes", 0.05, 0.7);
  auto routes = mr::route_design(d);
  ms::Sta sta(d, &routes);
  sta.run();
  mn::CellId c = mn::kInvalidId;
  for (const mn::CellId m : movable_std_cells(d))
    if (d.nl().cell(m).is_comb()) {
      c = m;
      break;
    }
  ASSERT_NE(c, mn::kInvalidId);
  const auto func = d.nl().cell(c).func;
  const int drive = d.nl().cell(c).drive;

  // 1. A drive the library lacks: the retime throws.
  ASSERT_EQ(d.lib_of(c).find(func, 3), nullptr);
  d.nl().set_drive(c, 3);
  EXPECT_THROW(sta.retime({c}), m3d::util::Error);

  // 2. With the drive restored, the engine still needs a run(): the
  //    failed retime left its timing half-updated.
  d.nl().set_drive(c, drive);
  try {
    sta.retime({c});
    ADD_FAILURE() << "retime after a throwing retime did not throw";
  } catch (const m3d::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("requires a prior run()"),
              std::string::npos)
        << e.what();
  }

  // 3. run() recovers it: equal to a fresh engine, and a retime of the
  //    same cone afterwards (no stale flag may skip a pin) too.
  ms::Sta ref(d, &routes);
  expect_identical(sta.run(), ref.run(), d);
  ASSERT_EQ(ms::timing_fingerprint(sta.result()),
            ms::timing_fingerprint(ref.result()));
  d.set_tier(c, 1 - d.tier(c));
  mr::update_routes_for_cells(d, {c}, &routes);
  const auto& inc = sta.retime({c});
  ms::Sta moved_ref(d, &routes);
  expect_identical(inc, moved_ref.run(), d);
}

TEST(Sta, ByteIdenticalAcrossPoolSizes) {
  // Over 32k pins (even under a sanitizer), so the construction sweeps
  // run in more than one chunk, and real levels clear the parallel
  // threshold.
  auto d = routed_hetero("netcard", 0.25, 0.8);
  ASSERT_GT(d.nl().pin_count(), 1 << 15);
  auto routes = mr::route_design(d);

  mex::Pool serial(1), wide(4);
  ms::StaOptions o1;
  o1.pool = &serial;
  ms::StaOptions o4;
  o4.pool = &wide;
  ms::Sta a(d, &routes, o1);
  auto posted = wide.stats().posted;
  ms::Sta b(d, &routes, o4);
  EXPECT_GT(wide.stats().posted, posted);  // the wide build fanned out
  a.run();
  posted = wide.stats().posted;
  b.run();
  EXPECT_GT(wide.stats().posted, posted);  // the wide run fanned out
  expect_identical(a.result(), b.result(), d);

  // And the incremental path under both pools after the same move set.
  const auto cells = movable_std_cells(d);
  std::vector<mn::CellId> moved = {cells[3], cells[cells.size() - 5],
                                   cells[cells.size() / 3]};
  for (mn::CellId c : moved) d.set_tier(c, 1 - d.tier(c));
  mr::update_routes_for_cells(d, moved, &routes);
  expect_identical(a.retime(moved), b.retime(moved), d);
}

TEST(Sta, PooledBuildSameAtAnyPoolSize) {
  // A mesh whose launch round alone holds about 21k pins, so the leveling
  // runs its frontier rounds in several 8k-pin chunks, with about 21k
  // endpoints, which rank in two sorted runs and a merge. Zero-wire
  // timing: no placement is needed.
  mn::Design d(mgen::make_design("mesh", {5.0, 7}), mt::make_12track(),
               mt::make_9track());
  int flops = 0;  // each flop's Q launches in round 0
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    flops += d.nl().cell_kind(c) == mn::CellKind::Seq;
  ASSERT_GT(flops, 2 << 13);
  mex::Pool serial(1), wide(4);
  ms::StaOptions o1;
  o1.pool = &serial;
  ms::StaOptions o4;
  o4.pool = &wide;
  ms::Sta a(d, nullptr, o1);
  auto posted = wide.stats().posted;
  ms::Sta b(d, nullptr, o4);
  EXPECT_GT(wide.stats().posted, posted);
  expect_identical(a.run(), b.run(), d);
  const auto& eps = a.result().endpoints_by_slack();
  ASSERT_GT(eps.size(), std::size_t{1} << 14);
  EXPECT_EQ(eps, b.result().endpoints_by_slack());
  EXPECT_EQ(ms::timing_fingerprint(a.result()),
            ms::timing_fingerprint(b.result()));
  for (std::size_t i = 1; i < eps.size(); ++i)
    ASSERT_LT(std::make_pair(a.result().pin_slack(eps[i - 1]), eps[i - 1]),
              std::make_pair(a.result().pin_slack(eps[i]), eps[i]))
        << "rank " << i;

  // Feed a combinational cell's output back into its first input: the
  // cell and its whole fanout cone never level. Both pools must report
  // the same loop with the same unreachable-pin count.
  mn::Netlist& nl = d.nl();
  mn::CellId c = nl.cell_count() / 2;
  mn::NetId out = mn::kInvalidId;
  for (;; ++c) {
    ASSERT_LT(c, nl.cell_count());
    if (nl.cell_kind(c) != mn::CellKind::Comb || nl.input_pins_of(c).empty())
      continue;
    out = nl.pin(nl.output_pin(c)).net;
    if (out != mn::kInvalidId && !nl.net_is_clock(out) && nl.fanout(out) > 0)
      break;
  }
  nl.disconnect(nl.input_pin(c, 0));
  nl.connect(out, nl.input_pin(c, 0));
  std::string error[2];
  for (int i = 0; i < 2; ++i) {
    posted = wide.stats().posted;
    try {
      ms::Sta looped(d, nullptr, i == 0 ? o1 : o4);
      ADD_FAILURE() << "no loop reported at pool " << (i == 0 ? 1 : 4);
    } catch (const m3d::util::Error& e) {
      error[i] = e.what();
    }
  }
  EXPECT_GT(wide.stats().posted, posted);
  EXPECT_NE(error[0].find("combinational loop detected: "), std::string::npos)
      << error[0];
  EXPECT_EQ(error[0], error[1]);
}

TEST(Sta, RetimeBigBatchByteIdenticalAcrossPoolSizes) {
  // An ECO-sized batch move, then an optimizer-sized batch resize: enough
  // dirty cones that per-level retime buckets clear the parallel
  // threshold, exercising the batched (capture-then-recompute) path. Each
  // must stay bitwise equal to the single-worker walk and to a
  // from-scratch run on the edited design.
  auto d = routed_hetero("netcard", kWideScale, 0.8);
  auto routes = mr::route_design(d);

  mex::Pool serial(1), wide(4);
  ms::StaOptions o1;
  o1.pool = &serial;
  ms::StaOptions o4;
  o4.pool = &wide;
  ms::Sta a(d, &routes, o1);
  ms::Sta b(d, &routes, o4);
  a.run();
  b.run();

  const auto cells = movable_std_cells(d);
  std::vector<mn::CellId> moved;
  for (std::size_t i = 0; i < cells.size(); i += 3) moved.push_back(cells[i]);
  for (mn::CellId c : moved) d.set_tier(c, 1 - d.tier(c));
  mr::update_routes_for_cells(d, moved, &routes);
  auto posted = wide.stats().posted;
  expect_identical(a.retime(moved), b.retime(moved), d);
  EXPECT_GT(wide.stats().posted, posted);  // the batch retime fanned out

  ms::Sta fresh(d, &routes, o4);
  expect_identical(fresh.run(), b.result(), d);

  // An optimizer-sized sweep: a third of the cells change drive at once.
  // A drive change moves nothing, so the routes stay as they are.
  std::vector<mn::CellId> resized;
  for (std::size_t i = 1; i < cells.size(); i += 3)
    if (resize_step(d, cells[i], i % 2 == 0)) resized.push_back(cells[i]);
  ASSERT_GT(resized.size(), cells.size() / 4);
  posted = wide.stats().posted;
  expect_identical(a.retime(resized), b.retime(resized), d);
  EXPECT_GT(wide.stats().posted, posted);
  ms::Sta fresh_resized(d, &routes, o4);
  expect_identical(fresh_resized.run(), b.result(), d);
  ASSERT_EQ(ms::timing_fingerprint(fresh_resized.result()),
            ms::timing_fingerprint(b.result()));
}

// ---- corner-vectorized sweep ---------------------------------------------

namespace {

/// Bitwise comparison of the per-corner aggregates of two K-lane results.
void expect_corners_identical(const ms::StaResult& a, const ms::StaResult& b) {
  ASSERT_EQ(a.corner_count(), b.corner_count());
  for (int k = 0; k < a.corner_count(); ++k) {
    ASSERT_EQ(a.corner_wns(k), b.corner_wns(k)) << "corner " << k;
    ASSERT_EQ(a.corner_tns(k), b.corner_tns(k)) << "corner " << k;
    ASSERT_EQ(a.corner_violated(k), b.corner_violated(k)) << "corner " << k;
  }
  ASSERT_EQ(a.guard_wns(), b.guard_wns());
  ASSERT_EQ(a.guard_tns(), b.guard_tns());
  ASSERT_EQ(ms::timing_fingerprint(a), ms::timing_fingerprint(b));
}

}  // namespace

TEST(Sta, VectorizedK1ByteIdenticalToScalar) {
  // An explicit count=1 spec must route through exactly the scalar
  // engine: same bits at every pin, at any pool size. Sigma/seed are
  // irrelevant at K=1 (lane 0 is the pure derate).
  mt::CornerSpec one;
  one.count = 1;
  one.sigma[0] = 0.03;
  one.sigma[1] = 0.08;
  one.seed = 0x1234;

  for (const char* which : {"netcard", "mesh"}) {
    auto d = which == std::string("mesh")
                 ? [] {
                     mn::Design d2(mgen::make_mesh({1.0, 7}),
                                   mt::make_12track(), mt::make_9track());
                     d2.set_clock_period_ns(0.8);
                     mpl::place_design(d2);
                     return d2;
                   }()
                 : routed_hetero("netcard", kWideScale, 0.8);
    const auto routes = mr::route_design(d);

    ms::StaOptions scalar;  // default: no corners field touched
    ms::Sta ref(d, &routes, scalar);
    ref.run();

    for (int workers : {1, 2, 4}) {
      mex::Pool pool(workers);
      ms::StaOptions o;
      o.pool = &pool;
      o.corners = one;
      ms::Sta sta(d, &routes, o);
      sta.run();
      expect_identical(sta.result(), ref.result(), d);
      EXPECT_EQ(sta.result().corner_count(), 1);
      EXPECT_EQ(sta.result().guard_wns(), ref.result().wns());
      EXPECT_EQ(sta.result().guard_tns(), ref.result().tns());
      EXPECT_EQ(ms::timing_fingerprint(sta.result()),
                ms::timing_fingerprint(ref.result()));
    }
  }
}

TEST(Sta, CornerSweepByteIdenticalAcrossPoolSizes) {
  auto d = routed_hetero("netcard", kWideScale, 0.8);
  auto routes = mr::route_design(d);

  mt::CornerSpec spec;
  spec.count = 16;
  spec.derate[1] = 1.05;
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;

  mex::Pool serial(1), two(2), wide(4);
  std::vector<ms::Sta> engines;
  for (mex::Pool* p : {&serial, &two, &wide}) {
    ms::StaOptions o;
    o.pool = p;
    o.corners = spec;
    engines.emplace_back(d, &routes, o);
    const auto posted = p->stats().posted;
    engines.back().run();
    if (p != &serial) {  // the multi-worker runs fanned out
      EXPECT_GT(p->stats().posted, posted) << p->size() << " workers";
    }
  }
  for (std::size_t i = 1; i < engines.size(); ++i) {
    expect_identical(engines[i].result(), engines[0].result(), d);
    expect_corners_identical(engines[i].result(), engines[0].result());
  }
  const auto& r = engines[0].result();
  ASSERT_EQ(r.corner_count(), 16);
  // Lane-0 aggregates mirror the nominal wns/tns bitwise.
  EXPECT_EQ(r.corner_wns(0), r.wns());
  EXPECT_EQ(r.corner_tns(0), r.tns());
  EXPECT_LE(r.guard_wns(), r.wns());
  EXPECT_LE(r.guard_tns(), r.tns());
  EXPECT_GE(r.timing_yield(r.guard_wns()), 1.0);  // floor at the worst corner
  EXPECT_GE(r.timing_yield(0.0), 0.0);
  EXPECT_LE(r.timing_yield(0.0), 1.0);

  // The incremental path carries the lanes too: a retime after tier moves
  // must match a fresh K-lane engine bit for bit, at any pool size.
  const auto cells = movable_std_cells(d);
  std::vector<mn::CellId> moved;
  for (std::size_t i = 0; i < cells.size(); i += 5) moved.push_back(cells[i]);
  for (mn::CellId c : moved) d.set_tier(c, 1 - d.tier(c));
  mr::update_routes_for_cells(d, moved, &routes);
  for (auto& e : engines) e.retime(moved);
  for (std::size_t i = 1; i < engines.size(); ++i) {
    expect_identical(engines[i].result(), engines[0].result(), d);
    expect_corners_identical(engines[i].result(), engines[0].result());
  }
  ms::StaOptions of;
  of.pool = &wide;
  of.corners = spec;
  ms::Sta fresh(d, &routes, of);
  fresh.run();
  expect_identical(fresh.result(), engines[0].result(), d);
  expect_corners_identical(fresh.result(), engines[0].result());
}

TEST(Sta, SweepLane0MatchesScalarNominalRun) {
  // Lane 0 of a K-lane sweep is the nominal corner: bitwise equal to a
  // scalar run whose derates are corner 0's exact factors. (Non-nominal
  // lanes are a delay-only guard-band model and make no such promise.)
  auto d = routed_hetero("aes", 0.05, 0.7);
  const auto routes = mr::route_design(d);

  mt::CornerSpec spec;
  spec.count = 16;
  spec.derate[1] = 1.05;
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;
  const auto cs = mt::CornerSet::generate(spec);

  ms::StaOptions sweep_o;
  sweep_o.corners = spec;
  ms::Sta sweep(d, &routes, sweep_o);
  const auto& r = sweep.run();

  ms::StaOptions scalar_o;
  scalar_o.corners = cs.single(0);
  ms::Sta scalar(d, &routes, scalar_o);
  const auto& s = scalar.run();

  EXPECT_EQ(r.wns(), s.wns());
  EXPECT_EQ(r.tns(), s.tns());
  EXPECT_EQ(r.whs(), s.whs());
  EXPECT_EQ(r.violated_endpoints(), s.violated_endpoints());
  EXPECT_EQ(r.corner_wns(0), s.wns());
  EXPECT_EQ(r.corner_tns(0), s.tns());
  for (mn::PinId p = 0; p < d.nl().pin_count(); ++p) {
    ASSERT_EQ(r.pin_arrival(p), s.pin_arrival(p)) << "pin " << p;
    ASSERT_EQ(r.pin_slew(p), s.pin_slew(p)) << "pin " << p;
    ASSERT_EQ(r.pin_slack(p), s.pin_slack(p)) << "pin " << p;
  }
}

TEST(Sta, GuardBandReflectsSlowTier) {
  // With the slow tier derated up, the guard-banded WNS of a sweep can
  // only be at or below the nominal, and the fingerprint must change when
  // the corner set does (different specs are different timing views).
  auto d = routed_hetero("aes", 0.05, 0.7);
  const auto routes = mr::route_design(d);

  mt::CornerSpec spec;
  spec.count = 8;
  spec.derate[1] = 1.05;
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;
  ms::StaOptions o;
  o.corners = spec;
  ms::Sta sta(d, &routes, o);
  const auto& r = sta.run();
  EXPECT_LE(r.guard_wns(), r.wns());

  mt::CornerSpec other = spec;
  other.seed += 99;
  ms::StaOptions o2;
  o2.corners = other;
  ms::Sta sta2(d, &routes, o2);
  const auto& r2 = sta2.run();
  // Nominal lane agrees (same derates), non-nominal draws differ.
  EXPECT_EQ(r.wns(), r2.wns());
  EXPECT_NE(ms::timing_fingerprint(r), ms::timing_fingerprint(r2));
}
