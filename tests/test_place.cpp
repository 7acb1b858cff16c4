// Tests for the placer: floorplan sizing, port/macro pinning, global
// placement quality, legality after legalization, 3-D two-tier placement.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "netlist/design.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "tech/library_factory.hpp"
#include "util/rng.hpp"

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace me = m3d::exec;
namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mp = m3d::place;
namespace mr = m3d::route;
namespace mt = m3d::tech;

namespace {

mn::Design small_design(bool three_d = false, const char* which = "netcard") {
  mg::GenOptions g;
  g.scale = 0.06;
  return mn::Design(mg::make_design(which, g), mt::make_12track(),
                    three_d ? mt::make_9track() : nullptr);
}

bool inside(const m3d::util::Rect& fp, m3d::util::Point p, double slack) {
  return p.x >= fp.xlo - slack && p.x <= fp.xhi + slack &&
         p.y >= fp.ylo - slack && p.y <= fp.yhi + slack;
}

}  // namespace

TEST(Place, FloorplanMatchesUtilization) {
  auto d = small_design();
  mp::PlaceOptions opt;
  opt.utilization = 0.6;
  mp::init_floorplan(d, opt);
  const double core = d.floorplan().area();
  EXPECT_NEAR(d.total_std_cell_area() / core, 0.6, 0.02);
}

TEST(Place, ThreeDFloorplanIsHalved) {
  auto d2 = small_design(false);
  auto d3 = small_design(true);
  mp::PlaceOptions opt;
  mp::init_floorplan(d2, opt);
  mp::init_floorplan(d3, opt);
  EXPECT_NEAR(d3.floorplan().area() / d2.floorplan().area(), 0.5, 0.03);
}

TEST(Place, PortsOnBoundary) {
  auto d = small_design();
  mp::init_floorplan(d, {});
  const auto& fp = d.floorplan();
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    if (!d.nl().cell(c).is_port()) continue;
    const auto p = d.pos(c);
    const bool on_edge = std::abs(p.x - fp.xlo) < 1e-6 ||
                         std::abs(p.x - fp.xhi) < 1e-6 ||
                         std::abs(p.y - fp.ylo) < 1e-6 ||
                         std::abs(p.y - fp.yhi) < 1e-6;
    EXPECT_TRUE(on_edge) << d.nl().cell(c).name;
  }
}

TEST(Place, MacrosInsideAndSplitAcrossTiers) {
  auto d = mn::Design(mg::make_cpu({0.06, 7}), mt::make_12track(),
                      mt::make_9track());
  mp::init_floorplan(d, {});
  int on_tier[2] = {0, 0};
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    if (!d.nl().cell(c).is_macro()) continue;
    ++on_tier[d.tier(c)];
    EXPECT_TRUE(inside(d.floorplan(), d.pos(c), 1.0));
  }
  // Memories exist in both technology variants (paper), so the macros are
  // area-balanced across the two tiers.
  EXPECT_GT(on_tier[0], 0);
  EXPECT_GT(on_tier[1], 0);
  EXPECT_NEAR(mp::tier_macro_area(d, 0), mp::tier_macro_area(d, 1),
              0.6 * std::max(mp::tier_macro_area(d, 0),
                             mp::tier_macro_area(d, 1)));
}

TEST(Place, GlobalPlaceBeatsRandomScatter) {
  auto d = small_design();
  mp::PlaceOptions opt;
  mp::init_floorplan(d, opt);
  // Random scatter baseline.
  m3d::util::Rng rng(3);
  const auto fp = d.floorplan();
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    if (d.nl().cell(c).fixed || d.nl().cell(c).is_port()) continue;
    d.set_pos(c, {rng.uniform(fp.xlo, fp.xhi), rng.uniform(fp.ylo, fp.yhi)});
  }
  const double random_hpwl = mr::total_hpwl(d);
  mp::global_place(d, opt);
  const double placed_hpwl = mr::total_hpwl(d);
  EXPECT_LT(placed_hpwl, 0.6 * random_hpwl);
}

TEST(Place, AllCellsInsideAfterPlacement) {
  auto d = small_design();
  mp::place_design(d, {});
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    EXPECT_TRUE(inside(d.floorplan(), d.pos(c), 1.0))
        << d.nl().cell(c).name;
}

TEST(Place, LegalizationRemovesOverlap) {
  auto d = small_design();
  mp::PlaceOptions opt;
  opt.utilization = 0.55;
  mp::place_design(d, opt);
  EXPECT_LT(mp::max_overlap_um2(d), 1e-6);
}

TEST(Place, LegalizationSnapsToRows) {
  auto d = small_design();
  mp::place_design(d, {});
  const double row_h = d.lib(mn::kBottomTier).row_height_um();
  const double ylo = d.floorplan().ylo;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (cc.is_port() || cc.is_macro()) continue;
    const double rel = (d.pos(c).y - ylo) / row_h - 0.5;
    EXPECT_NEAR(rel, std::round(rel), 1e-6) << cc.name;
  }
}

TEST(Place, ThreeDTiersEachLegal) {
  auto d = small_design(true);
  mp::PlaceOptions opt;
  opt.utilization = 0.5;
  mp::init_floorplan(d, opt);
  mp::global_place(d, opt);
  // Split cells across tiers arbitrarily, then legalize.
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (cc.fixed || cc.is_port()) continue;
    if (c % 2 == 0) d.set_tier(c, mn::kTopTier);
  }
  mp::legalize(d);
  EXPECT_LT(mp::max_overlap_um2(d), 1e-6);
  // Top-tier rows use the 9-track pitch.
  const double row9 = d.lib(mn::kTopTier).row_height_um();
  const double ylo = d.floorplan().ylo;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto& cc = d.nl().cell(c);
    if (cc.is_port() || cc.is_macro() || d.tier(c) != mn::kTopTier) continue;
    const double rel = (d.pos(c).y - ylo) / row9 - 0.5;
    EXPECT_NEAR(rel, std::round(rel), 1e-6);
  }
}

TEST(Place, CellsAvoidMacroRegions) {
  auto d = mn::Design(mg::make_cpu({0.06, 7}), mt::make_12track());
  mp::PlaceOptions opt;
  opt.utilization = 0.5;
  mp::place_design(d, opt);
  // No std cell center may fall inside a macro's rectangle on tier 0.
  for (mn::CellId m = 0; m < d.nl().cell_count(); ++m) {
    if (!d.nl().cell(m).is_macro()) continue;
    const auto mp_ = d.pos(m);
    const double w = d.cell_width(m), h = d.cell_height(m);
    const m3d::util::Rect r{mp_.x - w / 2, mp_.y - h / 2, mp_.x + w / 2,
                            mp_.y + h / 2};
    for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
      const auto& cc = d.nl().cell(c);
      if (cc.is_port() || cc.is_macro()) continue;
      EXPECT_FALSE(r.contains(d.pos(c))) << cc.name;
    }
  }
}

TEST(Place, DeterministicForSameSeed) {
  auto d1 = small_design();
  auto d2 = small_design();
  mp::place_design(d1, {});
  mp::place_design(d2, {});
  for (mn::CellId c = 0; c < d1.nl().cell_count(); ++c)
    EXPECT_EQ(d1.pos(c), d2.pos(c));
}

// Brute-force reference for max_overlap_um2: examine every same-tier pair.
// The grid-bucket sweep must agree bit for bit — it compares a superset
// of pairs through an order-independent max over the same pair overlaps.
static double brute_force_max_overlap(const mn::Design& d) {
  const auto& nl = d.nl();
  double worst = 0.0;
  for (int tier = 0; tier < d.num_tiers(); ++tier) {
    std::vector<mn::CellId> cells;
    for (mn::CellId c = 0; c < nl.cell_count(); ++c)
      if (!nl.cell(c).is_port() && d.tier(c) == tier) cells.push_back(c);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto pi = d.pos(cells[i]);
      const double wi = d.cell_width(cells[i]) / 2.0;
      const double hi = d.cell_height(cells[i]) / 2.0;
      for (std::size_t j = i + 1; j < cells.size(); ++j) {
        const auto pj = d.pos(cells[j]);
        const double wj = d.cell_width(cells[j]) / 2.0;
        const double hj = d.cell_height(cells[j]) / 2.0;
        const double ox =
            std::min(pi.x + wi, pj.x + wj) - std::max(pi.x - wi, pj.x - wj);
        const double oy =
            std::min(pi.y + hi, pj.y + hj) - std::max(pi.y - hi, pj.y - hj);
        if (ox > 1e-9 && oy > 1e-9) worst = std::max(worst, ox * oy);
      }
    }
  }
  return worst;
}

TEST(PlaceScale, GridOverlapMatchesBruteForce) {
  // Overlapping snapshot: global placement before legalization piles
  // cells up, exercising the multi-bucket and cross-bucket pair paths.
  auto d = small_design(true);
  mp::PlaceOptions opt;
  mp::init_floorplan(d, opt);
  mp::global_place(d, opt);
  EXPECT_GT(mp::max_overlap_um2(d), 0.0);
  EXPECT_EQ(mp::max_overlap_um2(d), brute_force_max_overlap(d));

  // Legal snapshot: both sides must agree the placement is clean.
  mp::legalize(d);
  EXPECT_EQ(mp::max_overlap_um2(d), brute_force_max_overlap(d));
}

TEST(PlaceScale, GridOverlapMatchesBruteForceOnMesh) {
  mg::GenOptions g;
  g.scale = 0.05;  // a few hundred cells: brute force stays cheap
  mn::Design d(mg::make_mesh(g), mt::make_12track(), mt::make_9track());
  mp::PlaceOptions opt;
  mp::init_floorplan(d, opt);
  mp::global_place(d, opt);
  EXPECT_EQ(mp::max_overlap_um2(d), brute_force_max_overlap(d));
}

TEST(Place, MeanDisplacementMeasuresChange) {
  auto d = small_design();
  mp::place_design(d, {});
  std::vector<m3d::util::Point> snap;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    snap.push_back(d.pos(c));
  EXPECT_DOUBLE_EQ(mp::mean_displacement_um(d, snap), 0.0);
  mn::CellId movable = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_comb()) movable = c;
  ASSERT_NE(movable, mn::kInvalidId);
  d.set_pos(movable, d.pos(movable) + m3d::util::Point{10.0, 0.0});
  EXPECT_GT(mp::mean_displacement_um(d, snap), 0.0);
}

namespace {

// The per-element relaxation and spreading loops global_place ran before
// it moved to flat arrays, kept here (serially, through the Design) as the
// reference its positions must match bit for bit. The spreading histogram
// sums one partial per 2,048-id range of cell ids and combines them in
// range order, as global_place does at any pool size.
void reference_global_place(mn::Design& d, unsigned seed) {
  constexpr int kChunk = 2048;
  constexpr int kRelaxIters = 60;
  constexpr int kSpreadIters = 3;
  constexpr int kGrid = 24;
  const auto& nl = d.nl();
  const m3d::util::Rect fp = d.floorplan();
  m3d::util::Rng rng(seed);
  const auto nc = static_cast<std::size_t>(nl.cell_count());
  const auto nn = static_cast<std::size_t>(nl.net_count());

  std::vector<char> mv(nc, 0);
  for (mn::CellId c = 0; c < nl.cell_count(); ++c) {
    const auto& cc = nl.cell(c);
    if (cc.fixed || cc.is_port()) continue;
    mv[static_cast<std::size_t>(c)] = 1;
    d.set_pos(c, {rng.uniform(fp.xlo, fp.xhi), rng.uniform(fp.ylo, fp.yhi)});
  }

  std::vector<double> cx(nn), cy(nn);
  std::vector<int> cn(nn);
  for (int iter = 0; iter < kRelaxIters; ++iter) {
    for (mn::NetId n = 0; n < nl.net_count(); ++n) {
      double x = 0.0, y = 0.0;
      int k = 0;
      const auto& net = nl.net(n);
      if (!net.is_clock) {
        for (mn::PinId p : net.pins) {
          const auto q = d.pin_pos(p);
          x += q.x;
          y += q.y;
          ++k;
        }
      }
      cx[static_cast<std::size_t>(n)] = x;
      cy[static_cast<std::size_t>(n)] = y;
      cn[static_cast<std::size_t>(n)] = k;
    }
    for (mn::CellId c = 0; c < nl.cell_count(); ++c) {
      if (!mv[static_cast<std::size_t>(c)]) continue;
      double sx = 0.0, sy = 0.0;
      int k = 0;
      for (mn::PinId p : nl.cell(c).pins) {
        const mn::NetId n = nl.pin(p).net;
        if (n == mn::kInvalidId || nl.net(n).is_clock) continue;
        const int cnt = cn[static_cast<std::size_t>(n)];
        if (cnt < 2) continue;
        const auto self = d.pos(c);
        sx += (cx[static_cast<std::size_t>(n)] - self.x) / (cnt - 1);
        sy += (cy[static_cast<std::size_t>(n)] - self.y) / (cnt - 1);
        ++k;
      }
      if (k == 0) continue;
      d.set_pos(c, fp.clamp({sx / k, sy / k}));
    }
  }

  for (int pass = 0; pass < kSpreadIters; ++pass) {
    for (int axis = 0; axis < 2; ++axis) {
      const double lo = axis == 0 ? fp.xlo : fp.ylo;
      const double hi = axis == 0 ? fp.xhi : fp.yhi;
      const double span = hi - lo;
      std::vector<double> mass(kGrid, 0.0);
      for (std::size_t begin = 0; begin < nc; begin += kChunk) {
        std::vector<double> m(kGrid, 0.0);
        for (std::size_t c = begin; c < std::min(nc, begin + kChunk); ++c) {
          if (!mv[c]) continue;
          const auto id = static_cast<mn::CellId>(c);
          const double v = axis == 0 ? d.pos(id).x : d.pos(id).y;
          int b = static_cast<int>((v - lo) / span * kGrid);
          b = std::clamp(b, 0, kGrid - 1);
          m[static_cast<std::size_t>(b)] += d.cell_area(id);
        }
        for (std::size_t b = 0; b < mass.size(); ++b) mass[b] += m[b];
      }
      std::vector<double> cum(kGrid + 1, 0.0);
      for (std::size_t b = 0; b < mass.size(); ++b)
        cum[b + 1] = cum[b] + mass[b];
      const double total = cum.back();
      if (total <= 0.0) continue;
      const double blend = 0.5;
      for (mn::CellId c = 0; c < nl.cell_count(); ++c) {
        if (!mv[static_cast<std::size_t>(c)]) continue;
        auto p = d.pos(c);
        const double v = axis == 0 ? p.x : p.y;
        double f = (v - lo) / span * kGrid;
        f = std::clamp(f, 0.0, static_cast<double>(kGrid) - 1e-9);
        const int b = static_cast<int>(f);
        const double frac = f - b;
        const double cdf = (cum[static_cast<std::size_t>(b)] +
                            frac * mass[static_cast<std::size_t>(b)]) /
                           total;
        const double target = lo + cdf * span;
        const double nv = v * (1.0 - blend) + target * blend;
        if (axis == 0)
          p.x = nv;
        else
          p.y = nv;
        d.set_pos(c, fp.clamp(p));
      }
    }
  }
}

// Every cell's position, compared bit for bit.
void expect_same_position_bits(const mn::Design& a, const mn::Design& b,
                               const std::string& what) {
  ASSERT_EQ(a.nl().cell_count(), b.nl().cell_count()) << what;
  for (mn::CellId c = 0; c < a.nl().cell_count(); ++c) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.pos(c).x),
              std::bit_cast<std::uint64_t>(b.pos(c).x))
        << what << ": cell " << c;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.pos(c).y),
              std::bit_cast<std::uint64_t>(b.pos(c).y))
        << what << ": cell " << c;
  }
}

// Ports, a cell whose two inputs share one net, a net with one pin, an
// unconnected input, a cell with no net of two pins, and a flop on a
// clock net.
mn::Netlist corner_case_netlist() {
  mn::Netlist nl("corners");
  const auto a = nl.add_input_port("a");
  const auto clk = nl.add_input_port("clk");
  const auto y = nl.add_output_port("y");
  const auto g = nl.add_comb("g", mt::CellFunc::Nand2, 1);  // inputs share na
  const auto h = nl.add_comb("h", mt::CellFunc::Inv, 1);
  const auto k = nl.add_comb("k", mt::CellFunc::Inv, 1);    // drives lonely
  const auto u = nl.add_comb("u", mt::CellFunc::Nand2, 1);  // input 1 open
  const auto z = nl.add_comb("z", mt::CellFunc::Inv, 1);    // no 2-pin net
  const auto ff = nl.add_dff("ff", 1);
  const auto na = nl.add_net("na");
  nl.connect(na, nl.output_pin(a));
  nl.connect(na, nl.input_pin(g, 0));
  nl.connect(na, nl.input_pin(g, 1));
  nl.connect(na, nl.input_pin(k, 0));
  const auto ng = nl.add_net("ng");
  nl.connect(ng, nl.output_pin(g));
  nl.connect(ng, nl.input_pin(h, 0));
  nl.connect(ng, nl.input_pin(u, 0));
  const auto lonely = nl.add_net("lonely");
  nl.connect(lonely, nl.output_pin(k));
  const auto nh = nl.add_net("nh");
  nl.connect(nh, nl.output_pin(h));
  nl.connect(nh, nl.input_pin(ff, 0));
  const auto nclk = nl.add_net("nclk", /*is_clock=*/true);
  nl.connect(nclk, nl.output_pin(clk));
  nl.connect(nclk, nl.clock_pin(ff));
  const auto nq = nl.add_net("nq");
  nl.connect(nq, nl.output_pin(ff));
  nl.connect(nq, nl.input_pin(y, 0));
  const auto nu = nl.add_net("nu");
  nl.connect(nu, nl.output_pin(u));
  const auto nz = nl.add_net("nz");
  nl.connect(nz, nl.output_pin(z));
  return nl;
}

}  // namespace

TEST(Place, GlobalPlaceMatchesReferenceSweep) {
  struct Case {
    std::string name;
    mn::Design d;
  };
  std::vector<Case> cases;
  // Macros (split across two tiers, so cell areas come from both
  // libraries), ports and fixed cells.
  cases.push_back({"cpu", mn::Design(mg::make_cpu({0.06, 7}),
                                     mt::make_12track(), mt::make_9track())});
  // Flops on the clock net; more than one 2,048-cell chunk.
  mg::GenOptions g;
  g.scale = M3D_TEST_WIDE_SCALE;
  cases.push_back(
      {"netcard", mn::Design(mg::make_netcard(g), mt::make_12track())});
  cases.push_back(
      {"corners", mn::Design(corner_case_netlist(), mt::make_12track())});
  for (auto& [name, d] : cases) {
    mp::PlaceOptions opt;
    opt.seed = 5;
    mp::init_floorplan(d, opt);
    mn::Design ref = d;
    mp::global_place(d, opt);
    reference_global_place(ref, opt.seed);
    expect_same_position_bits(d, ref, name);
  }
}

TEST(Place, ByteIdenticalAcrossPoolSizes) {
  // init_floorplan + global_place on a one- and a four-worker pool, then
  // legalize, which packs each tier as one task on the global pool. Cells
  // are dealt round-robin across the stack's tiers before global_place, so
  // both the spreading areas and the per-tier packs see every tier.
  const auto lib12 = mt::make_12track();
  const auto lib9 = mt::make_9track();
  const std::vector<std::vector<std::shared_ptr<const mt::TechLib>>> stacks = {
      {lib12}, {lib12, lib9}, {lib12, lib9, lib12}};
  mg::GenOptions g;
  g.scale = M3D_TEST_WIDE_SCALE;
  const mn::Netlist nl = mg::make_netcard(g);
  ASSERT_GT(nl.cell_count(), 2048);  // several chunks per sweep
  me::Pool serial(1), wide(4);
  for (const auto& libs : stacks) {
    auto place = [&](me::Pool& pool) {
      mn::Design d(nl, libs);
      mp::PlaceOptions opt;
      opt.pool = &pool;
      mp::init_floorplan(d, opt);
      for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
        const auto& cc = d.nl().cell(c);
        if (!cc.fixed && !cc.is_port()) d.set_tier(c, c % d.num_tiers());
      }
      mp::global_place(d, opt);
      mp::legalize(d);
      return d;
    };
    const std::string what = std::to_string(libs.size()) + " tiers";
    const mn::Design one = place(serial);
    const auto posted = wide.stats().posted;
    const mn::Design four = place(wide);
    EXPECT_GT(wide.stats().posted, posted) << what;  // the wide run fanned out
    EXPECT_LT(mp::max_overlap_um2(four), 1e-6) << what;
    expect_same_position_bits(one, four, what);
  }
}
