// Unit tests for the route module: HPWL, MST wirelength, per-sink paths,
// MIV counting for inter-tier nets, congestion capacity model.

#include <gtest/gtest.h>

#include "netlist/design.hpp"
#include "route/route.hpp"
#include "tech/library_factory.hpp"
#include "util/rng.hpp"

namespace mn = m3d::netlist;
namespace mr = m3d::route;
namespace mt = m3d::tech;

namespace {

struct Fixture {
  mn::Design d;
  mn::CellId drv, s1, s2;
  mn::NetId net;

  Fixture() : d(make(), mt::make_12track(), mt::make_9track()) {
    drv = 0;
    s1 = 1;
    s2 = 2;
    net = 0;
    d.set_floorplan({0, 0, 100, 100});
  }

  static mn::Netlist make() {
    mn::Netlist nl("rt");
    const auto a = nl.add_comb("drv", mt::CellFunc::Inv, 1);
    const auto b = nl.add_comb("s1", mt::CellFunc::Inv, 1);
    const auto c = nl.add_comb("s2", mt::CellFunc::Inv, 1);
    const auto n = nl.add_net("n");
    nl.connect(n, nl.output_pin(a));
    nl.connect(n, nl.input_pin(b, 0));
    nl.connect(n, nl.input_pin(c, 0));
    return nl;
  }
};

}  // namespace

TEST(Route, HpwlOfTwoPinNet) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {30, 40});
  f.d.set_pos(f.s2, {0, 0});
  EXPECT_DOUBLE_EQ(mr::hpwl(f.d, f.net), 70.0);
}

TEST(Route, MstCollinearChain) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {10, 0});
  f.d.set_pos(f.s2, {20, 0});
  const auto r = mr::route_net(f.d, f.net);
  // Chain 0-10-20, not star 10+20.
  EXPECT_DOUBLE_EQ(r.length_um, 20.0);
  EXPECT_DOUBLE_EQ(r.sink_path_um[0], 10.0);
  EXPECT_DOUBLE_EQ(r.sink_path_um[1], 20.0);
}

TEST(Route, SinkOrderMatchesNetlistSinks) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {5, 0});
  f.d.set_pos(f.s2, {50, 0});
  const auto r = mr::route_net(f.d, f.net);
  std::vector<mn::PinId> sinks;
  f.d.nl().sinks_into(f.net, sinks);
  ASSERT_EQ(sinks.size(), 2u);
  // sinks[0] is s1's pin (distance 5), sinks[1] is s2's (50).
  EXPECT_LT(r.sink_path_um[0], r.sink_path_um[1]);
}

TEST(Route, SameTierNetHasNoMivs) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {10, 10});
  f.d.set_pos(f.s2, {20, 0});
  const auto r = mr::route_net(f.d, f.net);
  EXPECT_EQ(r.miv_count, 0);
  EXPECT_FALSE(r.sink_crosses_tier[0]);
  EXPECT_FALSE(r.sink_crosses_tier[1]);
}

TEST(Route, CrossTierNetGetsMivs) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {10, 0});
  f.d.set_pos(f.s2, {20, 0});
  f.d.set_tier(f.s1, mn::kTopTier);
  const auto r = mr::route_net(f.d, f.net);
  // Edges 0→1 and 1→2 both cross (tier pattern B,T,B on a chain).
  EXPECT_EQ(r.miv_count, 2);
  EXPECT_TRUE(r.sink_crosses_tier[0]);
  EXPECT_TRUE(r.sink_crosses_tier[1]);
}

TEST(Route, StackedCellsCostOneMivOnly) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {0, 0});  // directly above the driver
  f.d.set_pos(f.s2, {10, 0});
  f.d.set_tier(f.s1, mn::kTopTier);
  const auto r = mr::route_net(f.d, f.net);
  // 3-D's promise: vertical adjacency costs ~zero wirelength.
  EXPECT_DOUBLE_EQ(r.length_um, 10.0);
  EXPECT_EQ(r.miv_count, 1);
}

TEST(Route, WireCapScalesWithLength) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {100, 0});
  f.d.set_pos(f.s2, {200, 0});
  const auto r = mr::route_net(f.d, f.net);
  const auto& w = f.d.lib(mn::kBottomTier).wire();
  EXPECT_NEAR(r.wire_cap_ff, w.wire_cap_ff(200.0), 1e-9);
}

TEST(Route, EmptyAndUndrivenNets) {
  mn::Netlist nl("x");
  const auto a = nl.add_comb("a", mt::CellFunc::Buf, 1);
  const auto n_empty = nl.add_net("empty");
  const auto n_undriven = nl.add_net("undriven");
  nl.connect(n_undriven, nl.input_pin(a, 0));
  mn::Design d(std::move(nl), mt::make_12track());
  EXPECT_DOUBLE_EQ(mr::route_net(d, n_empty).length_um, 0.0);
  EXPECT_DOUBLE_EQ(mr::route_net(d, n_undriven).length_um, 0.0);
}

TEST(Route, DesignAggregates) {
  Fixture f;
  f.d.set_pos(f.drv, {0, 0});
  f.d.set_pos(f.s1, {10, 0});
  f.d.set_pos(f.s2, {20, 0});
  f.d.set_tier(f.s2, mn::kTopTier);
  const auto est = mr::route_design(f.d);
  EXPECT_DOUBLE_EQ(est.total_wirelength_um, 20.0);
  EXPECT_EQ(est.total_mivs, 1);
  EXPECT_GT(est.congestion, 0.0);
  EXPECT_EQ(est.nets.size(), 1u);
}

TEST(Route, CapacityScalesWithTiersAndLayers) {
  Fixture f;
  const double cap3d = mr::routing_capacity_um(f.d);
  mn::Design d2(Fixture::make(), mt::make_12track());
  d2.set_floorplan({0, 0, 100, 100});
  const double cap2d = mr::routing_capacity_um(d2);
  EXPECT_NEAR(cap3d / cap2d, 2.0, 1e-9);
}

TEST(Route, MstNeverWorseThanStarNeverBetterThanHpwlHalf) {
  // Property: for random placements, MST length >= HPWL/2 is not generally
  // a bound, but MST >= HPWL for 2-pin nets is an equality and MST <= star.
  m3d::util::Rng rng(123);
  for (int iter = 0; iter < 50; ++iter) {
    Fixture f;
    const m3d::util::Point pd{rng.uniform(0, 100), rng.uniform(0, 100)};
    const m3d::util::Point p1{rng.uniform(0, 100), rng.uniform(0, 100)};
    const m3d::util::Point p2{rng.uniform(0, 100), rng.uniform(0, 100)};
    f.d.set_pos(f.drv, pd);
    f.d.set_pos(f.s1, p1);
    f.d.set_pos(f.s2, p2);
    const auto r = mr::route_net(f.d, f.net);
    const double star =
        m3d::util::manhattan(pd, p1) + m3d::util::manhattan(pd, p2);
    EXPECT_LE(r.length_um, star + 1e-9);
    EXPECT_GE(r.length_um + 1e-9, mr::hpwl(f.d, f.net) / 2.0);
  }
}

// ---- parallel determinism ------------------------------------------------

#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "place/place.hpp"

namespace mgen = m3d::gen;
namespace mpl = m3d::place;
namespace mex = m3d::exec;

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace {

// Shrunk under a sanitizer, but still more than kParallelMinNets (1024)
// nets in play.
constexpr double kWideScale = M3D_TEST_WIDE_SCALE;

/// Placed hetero design from a generated netlist, wide enough that
/// route_design actually fans out across the pool.
mn::Design placed_wide(const char* which, double scale) {
  mn::Design d(mgen::make_design(which, {scale, 7}), mt::make_12track(),
               mt::make_9track());
  d.set_clock_period_ns(0.8);
  mpl::place_design(d);
  return d;
}

/// Exact (bitwise-value) comparison of two routing estimates.
void expect_identical(const mr::RoutingEstimate& a,
                      const mr::RoutingEstimate& b) {
  ASSERT_EQ(a.total_wirelength_um, b.total_wirelength_um);
  ASSERT_EQ(a.total_mivs, b.total_mivs);
  ASSERT_EQ(a.congestion, b.congestion);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    const auto& x = a.nets[n];
    const auto& y = b.nets[n];
    ASSERT_EQ(x.length_um, y.length_um) << "net " << n;
    ASSERT_EQ(x.miv_count, y.miv_count) << "net " << n;
    ASSERT_EQ(x.wire_cap_ff, y.wire_cap_ff) << "net " << n;
    ASSERT_EQ(x.sink_path_um, y.sink_path_um) << "net " << n;
    ASSERT_EQ(x.sink_crosses_tier, y.sink_crosses_tier) << "net " << n;
  }
}

}  // namespace

TEST(Route, ByteIdenticalAcrossPoolSizes) {
  const auto d = placed_wide("netcard", kWideScale);
  mex::Pool serial(1), wide(4);

  const auto base = mr::route_design(d);  // no pool at all
  const auto r1 = mr::route_design(d, {&serial});
  auto posted = wide.stats().posted;
  const auto r4 = mr::route_design(d, {&wide});
  EXPECT_GT(wide.stats().posted, posted);  // the wide run fanned out
  expect_identical(base, r1);
  expect_identical(base, r4);

  ASSERT_EQ(mr::total_hpwl(d), mr::total_hpwl(d, {&serial}));
  posted = wide.stats().posted;
  ASSERT_EQ(mr::total_hpwl(d), mr::total_hpwl(d, {&wide}));
  EXPECT_GT(wide.stats().posted, posted);
}

TEST(Route, UpdateRoutesByteIdenticalAcrossPoolSizes) {
  auto d = placed_wide("netcard", kWideScale);
  mex::Pool serial(1), wide(4);

  auto est0 = mr::route_design(d);
  auto est1 = est0;
  auto est4 = est0;

  // Flip a spread of cells across tiers and patch each estimate with a
  // different pool; all three must stay bitwise equal. Every fourth cell
  // dirties more than kParallelMinNets nets, so the wide patch fans out.
  std::vector<mn::CellId> moved;
  for (mn::CellId c = 0; c < d.nl().cell_count(); c += 4) {
    const auto& cc = d.nl().cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    d.set_tier(c, 1 - d.tier(c));
    moved.push_back(c);
  }
  ASSERT_GT(moved.size(), 4u);

  mr::update_routes_for_cells(d, moved, &est0);
  mr::update_routes_for_cells(d, moved, &est1, {&serial});
  const auto posted = wide.stats().posted;
  mr::update_routes_for_cells(d, moved, &est4, {&wide});
  EXPECT_GT(wide.stats().posted, posted);  // the wide update fanned out
  expect_identical(est0, est1);
  expect_identical(est0, est4);
}

TEST(Route, NullPoolRunsOnTheGlobalPool) {
  // A null RouteOptions::pool means exec::Pool::global(), as in every
  // kernel: a design of more than one 1,024-net chunk fans out there.
  mex::Pool& global = mex::Pool::global();
  if (global.size() <= 1) GTEST_SKIP() << "global pool has one worker";
  const auto d = placed_wide("netcard", kWideScale);
  const auto posted = global.stats().posted;
  mr::route_design(d);
  EXPECT_GT(global.stats().posted, posted);
}

// High-fanout nets switch route_net to the grid-bucketed spatial Prim;
// this replays the documented naive reference (ascending-j min scans,
// strict-< relaxation, leaf-to-root path folds) on the same terminals and
// demands bitwise agreement — the load-bearing invariant behind every
// O(k log k) shortcut in spatial_prim.
TEST(Route, SpatialPrimMatchesNaiveReference) {
  constexpr int kSinks = 300;  // well above the spatial threshold (64)
  mn::Netlist nl("hifan");
  const auto drv = nl.add_comb("drv", mt::CellFunc::Inv, 2);
  const auto net = nl.add_net("n");
  nl.connect(net, nl.output_pin(drv));
  for (int i = 0; i < kSinks; ++i) {
    const auto c =
        nl.add_comb("s" + std::to_string(i), mt::CellFunc::Inv, 1);
    nl.connect(net, nl.input_pin(c, 0));
  }
  mn::Design d(std::move(nl), mt::make_12track(), mt::make_9track());
  d.set_floorplan({0, 0, 200, 200});
  m3d::util::Rng rng(7);
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    d.set_pos(c, {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
    d.set_tier(c, rng.uniform_int(0, 1));
  }

  const auto r = mr::route_net(d, net);
  ASSERT_EQ(r.sink_path_um.size(), static_cast<std::size_t>(kSinks));

  // Naive Prim reference, replicating route_net's documented small-net
  // branch: terminals are driver then sinks in Netlist::for_each_sink
  // order.
  const auto& dnl = d.nl();
  std::vector<m3d::util::Point> pt;
  std::vector<int> tier;
  pt.push_back(d.pin_pos(dnl.net(net).driver));
  tier.push_back(d.tier(dnl.pin(dnl.net(net).driver).cell));
  dnl.for_each_sink(net, [&](mn::PinId p) {
    pt.push_back(d.pin_pos(p));
    tier.push_back(d.tier(dnl.pin(p).cell));
  });
  const std::size_t k = pt.size();
  std::vector<char> in_tree(k, 0);
  std::vector<double> best(k, std::numeric_limits<double>::max());
  std::vector<std::size_t> parent(k, 0);
  in_tree[0] = 1;
  for (std::size_t j = 1; j < k; ++j)
    best[j] = m3d::util::manhattan(pt[0], pt[j]);
  double length = 0.0;
  int mivs = 0;
  for (std::size_t added = 1; added < k; ++added) {
    std::size_t u = k;
    double bd = std::numeric_limits<double>::max();
    for (std::size_t j = 1; j < k; ++j)
      if (!in_tree[j] && best[j] < bd) {
        bd = best[j];
        u = j;
      }
    ASSERT_LT(u, k);
    in_tree[u] = 1;
    length += bd;
    if (tier[u] != tier[parent[u]]) ++mivs;
    for (std::size_t j = 1; j < k; ++j) {
      if (in_tree[j]) continue;
      const double dd = m3d::util::manhattan(pt[u], pt[j]);
      if (dd < best[j]) {
        best[j] = dd;
        parent[j] = u;
      }
    }
  }
  EXPECT_EQ(r.length_um, length);
  EXPECT_EQ(r.miv_count, mivs);
  for (std::size_t j = 1; j < k; ++j) {
    double acc = 0.0;
    bool x = false;
    for (std::size_t v = j; v != 0; v = parent[v]) {
      acc += m3d::util::manhattan(pt[v], pt[parent[v]]);
      x = x || (tier[v] != tier[parent[v]]);
    }
    EXPECT_EQ(r.sink_path_um[j - 1], acc) << "sink " << j - 1;
    EXPECT_EQ(r.sink_crosses_tier[j - 1], x) << "sink " << j - 1;
  }
}

TEST(Route, ScratchOverloadMatchesPlainRouteNet) {
  const auto d = placed_wide("ldpc", 0.05);
  mr::RouteScratch scratch;
  for (mn::NetId n = 0; n < d.nl().net_count(); ++n) {
    const auto a = mr::route_net(d, n);
    const auto b = mr::route_net(d, n, scratch);
    ASSERT_EQ(a.length_um, b.length_um) << "net " << n;
    ASSERT_EQ(a.miv_count, b.miv_count) << "net " << n;
    ASSERT_EQ(a.wire_cap_ff, b.wire_cap_ff) << "net " << n;
    ASSERT_EQ(a.sink_path_um, b.sink_path_um) << "net " << n;
    ASSERT_EQ(a.sink_crosses_tier, b.sink_crosses_tier) << "net " << n;
  }
}
