// Tests for partitioning: FM min-cut quality and balance, bin-based FM
// placement preservation, heterogeneity-aware area accounting, timing-based
// partitioning, and the repartitioning ECO (Algorithm 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "gen/designs.hpp"
#include "gen/fabric.hpp"
#include "netlist/design.hpp"
#include "part/fm.hpp"
#include "part/repartition.hpp"
#include "part/timing_partition.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"

namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mp = m3d::part;
namespace mpl = m3d::place;
namespace mr = m3d::route;
namespace ms = m3d::sta;
namespace mt = m3d::tech;

namespace {

/// Two internally dense clusters bridged by exactly `bridges` nets. Every
/// intra-cluster net is consumed inside its cluster (via a digest XOR
/// tree), so the only nets that must cross an ideal bisection are the
/// bridges and a handful of port nets.
mn::Netlist clusters(int size, int bridges, unsigned seed = 11) {
  mg::LogicFabric f("clusters", seed);
  auto build_cluster = [&](const std::string& tag) {
    std::vector<mn::NetId> pool;
    for (int i = 0; i < 4; ++i)
      pool.push_back(f.input(tag + std::to_string(i)));
    for (int round = 0; round < size / 8; ++round)
      for (auto n : f.random_layer(pool, 8, 0.5)) pool.push_back(n);
    f.output(tag + "_digest", f.xor_tree(pool));
    return pool;
  };
  auto a = build_cluster("a");
  auto b = build_cluster("b");
  for (int i = 0; i < bridges; ++i) {
    const auto g = f.gate(mt::CellFunc::Xor2,
                          {a[a.size() - 1 - static_cast<std::size_t>(i)],
                           b[b.size() - 1 - static_cast<std::size_t>(i)]});
    f.output("bridge" + std::to_string(i), g);
  }
  auto nl = std::move(f).take();
  mg::terminate_dangling(nl);
  nl.validate();
  return nl;
}

mn::Design hetero_design(mn::Netlist nl) {
  return mn::Design(std::move(nl), mt::make_12track(), mt::make_9track());
}

}  // namespace

TEST(Fm, AreaAccountingIsTierAware) {
  auto d = hetero_design(clusters(64, 2));
  mn::CellId any = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_comb()) any = c;
  ASSERT_NE(any, mn::kInvalidId);
  EXPECT_NEAR(mp::cell_area_on(d, any, mn::kTopTier) /
                  mp::cell_area_on(d, any, mn::kBottomTier),
              0.75, 1e-9);
}

TEST(Fm, CutMetricsCountCrossTierNets) {
  auto d = hetero_design(clusters(32, 1));
  EXPECT_EQ(mp::cut_size(d), 0);  // everything starts on the bottom
  // Move one comb cell up; its nets become cut.
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_comb()) {
      d.set_tier(c, mn::kTopTier);
      break;
    }
  EXPECT_GT(mp::cut_size(d), 0);
  EXPECT_GT(mp::cut_fraction(d), 0.0);
  EXPECT_LT(mp::cut_fraction(d), 1.0);
}

TEST(Fm, FindsTheClusterCut) {
  auto d = hetero_design(clusters(160, 3));
  mp::FmOptions opt;
  opt.balance_tol = 0.15;
  const int cut = mp::fm_mincut(d, opt);
  // The ideal cut is the 3 bridges (plus possibly a few PI-adjacent nets);
  // random splitting would cut hundreds.
  EXPECT_LE(cut, 20);
  EXPECT_EQ(cut, mp::cut_size(d));
}

TEST(Fm, RespectsAreaBalance) {
  auto d = hetero_design(clusters(160, 3));
  mp::FmOptions opt;
  opt.balance_tol = 0.10;
  mp::fm_mincut(d, opt);
  const double top = d.tier_std_cell_area(mn::kTopTier);
  const double bottom = d.tier_std_cell_area(mn::kBottomTier);
  const double share = top / (top + bottom);
  EXPECT_NEAR(share, 0.5, 0.13);
}

TEST(Fm, LockedCellsKeepTheirTier) {
  auto d = hetero_design(clusters(96, 2));
  std::vector<char> locked(static_cast<std::size_t>(d.nl().cell_count()), 0);
  std::vector<mn::CellId> pinned;
  for (mn::CellId c = 0; c < d.nl().cell_count() && pinned.size() < 10; ++c)
    if (d.nl().cell(c).is_comb()) {
      locked[static_cast<std::size_t>(c)] = 1;
      pinned.push_back(c);
    }
  mp::FmOptions opt;
  mp::fm_mincut(d, opt, &locked);
  for (auto c : pinned) EXPECT_EQ(d.tier(c), mn::kBottomTier);
}

TEST(Fm, BinVariantBalancesEachBin) {
  mg::GenOptions g;
  g.scale = 0.06;
  auto d = hetero_design(mg::make_netcard(g));
  mpl::PlaceOptions popt;
  mpl::init_floorplan(d, popt);
  mpl::global_place(d, popt);
  mp::FmOptions opt;
  opt.bins = 4;
  opt.balance_tol = 0.2;
  mp::bin_fm_partition(d, opt);

  // Check per-bin balance.
  const auto fp = d.floorplan();
  std::vector<double> top(16, 0.0), bottom(16, 0.0);
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    const auto p = d.pos(c);
    int bx = std::clamp(static_cast<int>((p.x - fp.xlo) / fp.width() * 4), 0,
                        3);
    int by = std::clamp(static_cast<int>((p.y - fp.ylo) / fp.height() * 4),
                        0, 3);
    const int bin = by * 4 + bx;
    if (d.tier(c) == mn::kTopTier)
      top[static_cast<std::size_t>(bin)] += d.cell_area(c);
    else
      bottom[static_cast<std::size_t>(bin)] += d.cell_area(c);
  }
  int checked = 0;
  for (int b = 0; b < 16; ++b) {
    const double total = top[static_cast<std::size_t>(b)] +
                         bottom[static_cast<std::size_t>(b)];
    if (total < 50.0) continue;  // skip nearly-empty bins
    EXPECT_NEAR(top[static_cast<std::size_t>(b)] / total, 0.5, 0.30)
        << "bin " << b;
    ++checked;
  }
  EXPECT_GT(checked, 4);
}

TEST(TimingPartition, PinsCriticalCellsToFastTier) {
  mg::GenOptions g;
  g.scale = 0.08;
  auto d = hetero_design(mg::make_cpu(g));
  d.set_clock_period_ns(0.8);
  mpl::PlaceOptions popt;
  mpl::place_design(d, popt);
  const auto routes = mr::route_design(d);
  const auto timing = ms::run_sta(d, &routes);

  mp::TimingPartitionOptions opt;
  opt.area_cap = 0.25;
  const auto res = mp::timing_partition(d, timing, opt);
  EXPECT_GT(res.pinned_cells, 0);
  EXPECT_LE(res.pinned_area, 0.26 * d.total_std_cell_area() + 50.0);
  EXPECT_GT(res.cut, 0);

  // The most critical cells must sit on the bottom (fast) tier.
  std::vector<std::pair<double, mn::CellId>> crit;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    const double s = timing.cell_slack(c);
    if (std::isfinite(s)) crit.emplace_back(s, c);
  }
  std::sort(crit.begin(), crit.end());
  const int probe = std::min<std::size_t>(res.pinned_cells / 2, crit.size());
  for (int i = 0; i < probe; ++i)
    EXPECT_EQ(d.tier(crit[static_cast<std::size_t>(i)].second),
              mn::kBottomTier);
}

TEST(TimingPartition, AreaCapLimitsPinning) {
  mg::GenOptions g;
  g.scale = 0.08;
  auto d = hetero_design(mg::make_cpu(g));
  d.set_clock_period_ns(0.8);
  mpl::place_design(d, {});
  const auto routes = mr::route_design(d);
  const auto timing = ms::run_sta(d, &routes);
  mp::TimingPartitionOptions small, big;
  small.area_cap = 0.10;
  big.area_cap = 0.40;
  auto d2 = d;
  const auto rs = mp::timing_partition(d, timing, small);
  const auto rb = mp::timing_partition(d2, timing, big);
  EXPECT_LT(rs.pinned_cells, rb.pinned_cells);
}

TEST(TimingPartition, PathBasedCoversFewerCells) {
  mg::GenOptions g;
  g.scale = 0.08;
  auto d = hetero_design(mg::make_cpu(g));
  d.set_clock_period_ns(0.8);
  mpl::place_design(d, {});
  const auto routes = mr::route_design(d);
  const auto timing = ms::run_sta(d, &routes);
  auto d2 = d;
  const auto cell_based = mp::timing_partition(d, timing, {});
  const auto path_based =
      mp::timing_partition_path_based(d2, timing, 20, {});
  // The paper's argument: path enumeration achieves less coverage than the
  // cell-based sweep under the same area budget.
  EXPECT_LT(path_based.pinned_cells, cell_based.pinned_cells);
}

TEST(Repartition, ImprovesOrHoldsWnsAndRespectsBalance) {
  mg::GenOptions g;
  g.scale = 0.08;
  auto d = hetero_design(mg::make_cpu(g));
  d.set_clock_period_ns(0.7);
  mpl::place_design(d, {});
  // Deliberately bad start: random half of cells on the slow tier with no
  // timing awareness.
  int i = 0;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    if (++i % 2 == 0) d.set_tier(c, mn::kTopTier);
  }
  mp::RepartitionOptions opt;
  opt.max_iters = 6;
  const auto res = mp::repartition_eco(d, opt);
  EXPECT_GE(res.wns_after, res.wns_before - 1e-9);
  constexpr double kUnbalanceTh = 0.15;  // repartition.cpp's budget
  EXPECT_LE(res.final_unbalance, kUnbalanceTh + 0.35);
  EXPECT_GE(res.iterations, 1);
}

TEST(Repartition, NoOpWhenTimingAlreadyMet) {
  mg::GenOptions g;
  g.scale = 0.06;
  auto d = hetero_design(mg::make_netcard(g));
  d.set_clock_period_ns(10.0);  // absurdly relaxed
  mpl::place_design(d, {});
  mp::fm_mincut(d, {});
  mp::RepartitionOptions opt;
  opt.max_iters = 4;
  const auto res = mp::repartition_eco(d, opt);
  // With huge positive slack nothing needs to move.
  EXPECT_GE(res.wns_after, 0.0);
}

TEST(Repartition, UnbalanceMetric) {
  auto d = hetero_design(clusters(64, 2));
  // All on bottom: unbalance 1.
  EXPECT_NEAR(mp::tier_unbalance(d), 1.0, 1e-9);
}

// ---- FM across pool sizes -----------------------------------------------

#include "exec/pool.hpp"

namespace me = m3d::exec;

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace {

constexpr double kWideScale = M3D_TEST_WIDE_SCALE;

/// fm_mincut on a fresh hetero design; returns the cut and the full tier
/// vector (the strongest equality one can assert — byte-identical
/// assignments, not just equal cut sizes).
std::pair<int, std::vector<int>> fm_outcome(mn::Netlist nl, me::Pool* pool,
                                            mp::FmStats* stats = nullptr) {
  auto d = hetero_design(std::move(nl));
  mp::FmOptions opt;
  opt.pool = pool;
  opt.stats = stats;
  const int cut = mp::fm_mincut(d, opt);
  std::vector<int> tiers(static_cast<std::size_t>(d.nl().cell_count()));
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    tiers[static_cast<std::size_t>(c)] = d.tier(c);
  return {cut, tiers};
}

}  // namespace

TEST(Fm, ByteIdenticalAcrossPoolSizes) {
  const auto make_paper = [] { return mg::make_cpu({}); };
  const auto make_wide = [] {
    mg::GenOptions g;
    g.scale = 100.0 * kWideScale;  // ~100k cells (shrunk under sanitizers)
    return mg::make_mesh(g);
  };

  for (int which = 0; which < 2; ++which) {
    auto make = which == 0 ? make_paper : make_wide;
    me::Pool serial(1);
    const auto ref = fm_outcome(make(), &serial);
    EXPECT_GT(ref.first, 0);

    for (int workers : {1, 2, 4, 8}) {
      me::Pool pool(workers);
      mp::FmStats stats;
      const auto got = fm_outcome(make(), &pool, &stats);
      if (workers > 1) {  // the multi-worker runs fanned out
        EXPECT_GT(pool.stats().posted, 0)
            << "design " << which << " pool " << workers;
      }
      if (workers > 1 && which == 1) {
        // The initial-gain sweep's 2048-cell chunks post at most
        // min(workers, ceil(cells / 2048) - 1) helpers per pass; on the
        // wide design the net-CSR, area-cache and pin-count sweeps post
        // more.
        const auto cells = static_cast<long long>(got.second.size());
        const long long gain_posts =
            stats.passes *
            std::min<long long>(workers, (cells + 2047) / 2048 - 1);
        EXPECT_GT(pool.stats().posted, gain_posts) << "pool " << workers;
      }
      EXPECT_EQ(got.first, ref.first) << "design " << which << " pool "
                                      << workers;
      EXPECT_EQ(got.second, ref.second)
          << "design " << which << " pool " << workers;
      EXPECT_GT(stats.moves, 0);
    }
  }
}

// ---- K-way (N-tier) FM ---------------------------------------------------

namespace {

/// Three-tier heterogeneous stack: 12-track bottom, two 9-track uppers.
mn::Design stack3_design(mn::Netlist nl) {
  return mn::Design(std::move(nl),
                    {mt::make_12track(), mt::make_9track(),
                     mt::make_9track()});
}

/// fm_mincut on a fresh 3-tier design; cut plus the full tier vector.
std::pair<int, std::vector<int>> kway_outcome(mn::Netlist nl, me::Pool* pool,
                                              double cost_weight = 0.0) {
  auto d = stack3_design(std::move(nl));
  mp::FmOptions opt;
  opt.pool = pool;
  opt.cost_weight = cost_weight;
  const int cut = mp::fm_mincut(d, opt);
  std::vector<int> tiers(static_cast<std::size_t>(d.nl().cell_count()));
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    tiers[static_cast<std::size_t>(c)] = d.tier(c);
  return {cut, tiers};
}

}  // namespace

TEST(Repartition, RoutesOnTheGivenPool) {
  // The ECO and the tier rebalance route and patch routes on the pool they
  // are given. This design's candidate scan is one 2,048-cell chunk and
  // its STA runs on a one-worker pool, so both run inline on the caller;
  // only the routing (more than one 1,024-net chunk) can post on `wide`.
  mg::GenOptions g;
  g.scale = 0.2;
  auto d = hetero_design(mg::make_aes(g));
  ASSERT_LE(d.nl().cell_count(), 2048);
  ASSERT_GT(d.nl().net_count(), 1024);
  d.set_clock_period_ns(0.7);
  mpl::place_design(d, {});
  mp::fm_mincut(d, {});
  me::Pool one(1), wide(4);

  mp::RepartitionOptions opt;
  opt.max_iters = 2;
  opt.pool = &wide;
  opt.sta.pool = &one;
  auto posted = wide.stats().posted;
  mp::repartition_eco(d, opt);
  EXPECT_GT(wide.stats().posted, posted);

  const auto timing = ms::run_sta(d, nullptr, opt.sta);
  posted = wide.stats().posted;
  mp::rebalance_to_top(d, timing, 0.0, 0.7, &wide, opt.sta);
  EXPECT_GT(wide.stats().posted, posted);
}

TEST(Kway, ThreeTierPartitionPopulatesEveryTier) {
  auto d = stack3_design(clusters(96, 3));
  mp::FmOptions opt;
  const int cut = mp::fm_mincut(d, opt);
  EXPECT_EQ(cut, mp::cut_size(d));
  int per_tier[3] = {0, 0, 0};
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    ++per_tier[d.tier(c)];
  for (int t = 0; t < 3; ++t) EXPECT_GT(per_tier[t], 0) << "tier " << t;
}

TEST(Kway, AreaCapsAreRespected) {
  auto d = stack3_design(clusters(96, 3));
  const double total = d.total_std_cell_area();
  mp::FmOptions opt;
  opt.tier_area_cap_um2 = {total, total / 3.0 * 1.4, total / 3.0 * 1.4};
  mp::fm_mincut(d, opt);
  double area[3] = {0.0, 0.0, 0.0};
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    if (!d.nl().cell(c).is_macro())
      area[d.tier(c)] += mp::cell_area_on(d, c, d.tier(c));
  }
  for (int t = 0; t < 3; ++t)
    EXPECT_LE(area[t], opt.tier_area_cap_um2[static_cast<std::size_t>(t)] *
                           (1.0 + 1e-9))
        << "tier " << t;
}

TEST(Kway, ByteIdenticalAcrossPoolSizes) {
  // The K-way engine commits the same move sequence — hence the same cut
  // AND the same per-cell tier vector — at any pool size, with and
  // without the cost term. The design clears the engine's 2,048-cell
  // threshold, so pools above one compute the initial gains in parallel.
  const auto make = [] { return clusters(640, 4); };
  ASSERT_GE(make().cell_count(), 2048);
  for (double mu : {0.0, 2e9}) {
    me::Pool serial(1);
    const auto ref = kway_outcome(make(), &serial, mu);
    for (int workers : {1, 2, 4}) {
      me::Pool pool(workers);
      const auto got = kway_outcome(make(), &pool, mu);
      if (workers > 1) {  // the multi-worker runs fanned out
        EXPECT_GT(pool.stats().posted, 0) << "mu " << mu << " pool "
                                          << workers;
      }
      EXPECT_EQ(got.first, ref.first) << "mu " << mu << " pool " << workers;
      EXPECT_EQ(got.second, ref.second)
          << "mu " << mu << " pool " << workers;
    }
  }
}

// ---- Pinned partitions --------------------------------------------------

namespace {

/// FNV-1a over the full tier vector.
std::uint64_t tier_digest(const mn::Design& d) {
  std::uint64_t h = 1469598103934665603ull;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    h ^= static_cast<std::uint64_t>(d.tier(c));
    h *= 1099511628211ull;
  }
  return h;
}

/// bin_fm_partition with default options on aes (seed 1) placed with
/// default PlaceOptions. `legal` places with place_design; without it the
/// partition sees the overlapping global placement, as in the flow. With
/// `lock`, every fourth logic cell is pinned to the bottom tier first, as
/// timing partitioning pins critical cells.
std::uint64_t pinned_partition(
    std::vector<std::shared_ptr<const mt::TechLib>> libs, double scale,
    bool legal, bool lock) {
  mg::GenOptions g;
  g.scale = scale;
  g.seed = 1;
  mn::Design d(mg::make_aes(g), std::move(libs));
  mpl::PlaceOptions popt;
  if (legal) {
    mpl::place_design(d, popt);
  } else {
    mpl::init_floorplan(d, popt);
    mpl::global_place(d, popt);
  }
  std::vector<char> locked(static_cast<std::size_t>(d.nl().cell_count()), 0);
  if (lock) {
    int i = 0;
    for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
      const auto& cc = d.nl().cell(c);
      if (!cc.is_comb() && !cc.is_sequential()) continue;
      if (i++ % 4 != 0) continue;
      d.set_tier(c, mn::kBottomTier);
      locked[static_cast<std::size_t>(c)] = 1;
    }
  }
  const int cut = mp::bin_fm_partition(d, {}, &locked);
  EXPECT_EQ(cut, mp::cut_size(d));
  return tier_digest(d);
}

}  // namespace

TEST(Fm, PinnedPartitions) {
  // Tier-vector digests recorded while two-tier stacks still ran their
  // own FM engine, before it was folded into the K-way one; the folded
  // engine must reproduce them. The cases are chosen so that each balance
  // rule fm.cpp documents (no escape and a top-share-only test on two
  // tiers, tier-order region totals, the escape on three tiers) moves at
  // least one digest when changed. A change here moves the flows built on
  // the partition: it needs a golden regeneration, not just new digests.
  const auto t9 = mt::make_9track();
  const auto t12 = mt::make_12track();
  struct Case {
    const char* name;
    std::vector<std::shared_ptr<const mt::TechLib>> libs;
    double scale;
    bool legal, lock;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"3D-9T", {t9, t9}, 0.05, true, false, 0xf9f6f1e263a64ef8u},
      {"3D-9T locked", {t9, t9}, 0.05, true, true, 0x18231b4fdbed26f5u},
      {"Hetero-3D", {t12, t9}, 0.05, true, false, 0xc3ba02928e02075cu},
      {"Hetero-3D locked", {t12, t9}, 0.05, true, true, 0xa0d1cb9c9f7f19bdu},
      {"12T/9T/9T", {t12, t9, t9}, 0.05, true, false, 0xd9fe3fc2dfdfd649u},
      {"12T/9T/9T locked", {t12, t9, t9}, 0.05, true, true,
       0x8ad6a2c98f3fcc91u},
      {"Hetero-3D, scale 0.125, global placement", {t12, t9}, 0.125, false,
       false, 0x39934b7cc2e9dafau},
  };
  for (const Case& k : cases)
    EXPECT_EQ(pinned_partition(k.libs, k.scale, k.legal, k.lock), k.digest)
        << k.name;
}

TEST(Kway, CostWeightNeverWorsensDieCost) {
  // With µ > 0 the objective J = cut + µ·die_cost accepts only prefixes
  // that improve J, so a huge µ must keep the max-tier area (die cost
  // proxy) no worse than the initial even assignment lets it be, and the
  // run must still produce a legal 3-way partition.
  auto d0 = stack3_design(clusters(96, 3));
  mp::FmOptions base;
  mp::fm_mincut(d0, base);

  auto d1 = stack3_design(clusters(96, 3));
  mp::FmOptions heavy = base;
  heavy.cost_weight = 1e12;
  mp::fm_mincut(d1, heavy);

  const auto max_area = [](const mn::Design& d) {
    double area[3] = {0.0, 0.0, 0.0};
    for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
      if (!d.nl().cell(c).is_macro())
        area[d.tier(c)] += mp::cell_area_on(d, c, d.tier(c));
    return std::max(area[0], std::max(area[1], area[2]));
  };
  EXPECT_LE(max_area(d1), max_area(d0) * (1.0 + 1e-9));
}
