// Unit tests for the tech module: NLDM interpolation, library factory
// calibration (9T vs 12T relations from the paper), boundary derates, wire
// and cost-relevant electrical models.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tech/liberty.hpp"
#include "tech/library_factory.hpp"
#include "tech/nldm.hpp"
#include "tech/tech_lib.hpp"
#include "tech/wire_model.hpp"

namespace mt = m3d::tech;

namespace {
mt::NldmTable simple_table() {
  // 2x2: value = slew*10 + load
  return mt::NldmTable({0.0, 1.0}, {0.0, 2.0}, {0.0, 2.0, 10.0, 12.0});
}
}  // namespace

TEST(Nldm, ExactCornerLookup) {
  const auto t = simple_table();
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 2.0), 12.0);
}

TEST(Nldm, BilinearInterior) {
  const auto t = simple_table();
  EXPECT_DOUBLE_EQ(t.lookup(0.5, 1.0), 6.0);
}

TEST(Nldm, LinearExtrapolationBeyondAxes) {
  const auto t = simple_table();
  // Beyond the load axis: slope continues.
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 4.0), 4.0);
  // Beyond the slew axis.
  EXPECT_DOUBLE_EQ(t.lookup(2.0, 0.0), 20.0);
}

TEST(Nldm, InRangeQuery) {
  const auto t = simple_table();
  EXPECT_TRUE(t.in_range(0.5, 1.0));
  EXPECT_FALSE(t.in_range(1.5, 1.0));
  EXPECT_FALSE(t.in_range(0.5, 3.0));
}

TEST(Nldm, ScaleMultipliesValues) {
  auto t = simple_table();
  t.scale(2.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 2.0), 24.0);
}

TEST(Nldm, RejectsMalformedAxes) {
  EXPECT_THROW(mt::NldmTable({1.0, 0.5}, {0.0}, {1.0, 2.0}),
               m3d::util::Error);
  EXPECT_THROW(mt::NldmTable({0.0, 1.0}, {0.0}, {1.0}), m3d::util::Error);
}

TEST(LibraryFactory, BuildsAllFunctionsAndDrives) {
  const auto lib = mt::make_12track();
  for (auto f : {mt::CellFunc::Inv, mt::CellFunc::Buf, mt::CellFunc::Nand2,
                 mt::CellFunc::Nor2, mt::CellFunc::Xor2, mt::CellFunc::Mux2,
                 mt::CellFunc::Dff, mt::CellFunc::ClkBuf, mt::CellFunc::Aoi21,
                 mt::CellFunc::Oai21, mt::CellFunc::Nand3, mt::CellFunc::Nor3,
                 mt::CellFunc::And2, mt::CellFunc::Or2, mt::CellFunc::Xnor2}) {
    for (int d : {1, 2, 4, 8}) {
      EXPECT_NE(lib->find(f, d), nullptr)
          << mt::func_name(f) << "_X" << d;
    }
  }
}

TEST(LibraryFactory, RowHeightsFollowTrackCounts) {
  const auto l9 = mt::make_9track();
  const auto l12 = mt::make_12track();
  EXPECT_DOUBLE_EQ(l9->row_height_um(), 0.9);
  EXPECT_DOUBLE_EQ(l12->row_height_um(), 1.2);
  // The paper: 9-track cells are 25 % smaller in area (same width).
  const auto* i9 = l9->find(mt::CellFunc::Inv, 1);
  const auto* i12 = l12->find(mt::CellFunc::Inv, 1);
  const double a9 = i9->area_um2(l9->row_height_um());
  const double a12 = i12->area_um2(l12->row_height_um());
  EXPECT_NEAR(a9 / a12, 0.75, 1e-9);
}

TEST(LibraryFactory, NineTrackIsSlower) {
  const auto l9 = mt::make_9track();
  const auto l12 = mt::make_12track();
  const double f9 = mt::fo4_delay_ns(*l9);
  const double f12 = mt::fo4_delay_ns(*l12);
  // Calibration: the slow library is ~1.4–2.2× slower at FO4 (Table II
  // shows ~1.8× between the fast and slow FO4 delays).
  EXPECT_GT(f9 / f12, 1.4);
  EXPECT_LT(f9 / f12, 2.4);
}

TEST(LibraryFactory, NineTrackLeaksFarLess) {
  const auto l9 = mt::make_9track();
  const auto l12 = mt::make_12track();
  const auto* i9 = l9->find(mt::CellFunc::Inv, 1);
  const auto* i12 = l12->find(mt::CellFunc::Inv, 1);
  // Table II: slow-tier FO4 leakage ~30× lower (0.093 µW vs 0.003 µW).
  EXPECT_GT(i12->leakage_uw / i9->leakage_uw, 15.0);
}

TEST(LibraryFactory, NineTrackUsesLessEnergy) {
  const auto l9 = mt::make_9track();
  const auto l12 = mt::make_12track();
  const auto* i9 = l9->find(mt::CellFunc::Inv, 1);
  const auto* i12 = l12->find(mt::CellFunc::Inv, 1);
  EXPECT_LT(i9->internal_energy_fj, i12->internal_energy_fj);
  EXPECT_LT(i9->input_cap_ff, i12->input_cap_ff);
}

TEST(LibraryFactory, VoltagesMatchPaperSetup) {
  const auto l9 = mt::make_9track();
  const auto l12 = mt::make_12track();
  EXPECT_DOUBLE_EQ(l9->vdd(), 0.81);
  EXPECT_DOUBLE_EQ(l12->vdd(), 0.90);
}

TEST(LibraryFactory, FallSlowerThanRise) {
  const auto lib = mt::make_12track();
  const auto* inv = lib->find(mt::CellFunc::Inv, 1);
  const auto& arc = inv->arc(0);
  const double rise =
      arc.delay[int(mt::Transition::Rise)].lookup(0.02, 4.0);
  const double fall =
      arc.delay[int(mt::Transition::Fall)].lookup(0.02, 4.0);
  EXPECT_GT(fall, rise);  // matches Table II's fall > rise delays
}

TEST(LibraryFactory, DelayMonotoneInLoadAndSlew) {
  const auto lib = mt::make_12track();
  const auto* nand = lib->find(mt::CellFunc::Nand2, 2);
  const auto& d = nand->arc(0).delay[int(mt::Transition::Rise)];
  double prev = 0.0;
  for (double load : {1.0, 2.0, 4.0, 8.0, 16.0, 64.0}) {
    const double v = d.lookup(0.02, load);
    EXPECT_GT(v, prev);
    prev = v;
  }
  EXPECT_GT(d.lookup(0.1, 4.0), d.lookup(0.01, 4.0));
}

TEST(LibraryFactory, UpsizingReducesDelayIncreasesArea) {
  const auto lib = mt::make_12track();
  const auto* x1 = lib->find(mt::CellFunc::Inv, 1);
  const auto* x4 = lib->find(mt::CellFunc::Inv, 4);
  const double d1 =
      x1->arc(0).delay[int(mt::Transition::Rise)].lookup(0.02, 16.0);
  const double d4 =
      x4->arc(0).delay[int(mt::Transition::Rise)].lookup(0.02, 16.0);
  EXPECT_LT(d4, d1);
  EXPECT_GT(x4->width_um, x1->width_um);
  EXPECT_GT(x4->input_cap_ff, x1->input_cap_ff);
}

TEST(TechLib, FindAndDriveLadder) {
  const auto lib = mt::make_12track();
  EXPECT_EQ(lib->find(mt::CellFunc::Inv, 3), nullptr);
  EXPECT_EQ(lib->upsize(mt::CellFunc::Inv, 1), 2);
  EXPECT_EQ(lib->upsize(mt::CellFunc::Inv, 8), -1);
  EXPECT_EQ(lib->downsize(mt::CellFunc::Inv, 2), 1);
  EXPECT_EQ(lib->downsize(mt::CellFunc::Inv, 1), -1);
  const auto drives = lib->drives_for(mt::CellFunc::Nand2);
  EXPECT_EQ(drives, (std::vector<int>{1, 2, 4, 8}));
}

namespace {

/// Every drive-ladder query of `lib`, for every function and drives
/// -1..20, against a scan of cell(i).
void expect_ladders_match_scan(const mt::TechLib& lib) {
  for (int f = 0; f < mt::kCellFuncCount; ++f) {
    const auto func = static_cast<mt::CellFunc>(f);
    SCOPED_TRACE(mt::func_name(func));
    std::vector<int> drives;
    for (int i = 0; i < lib.cell_count(); ++i)
      if (lib.cell(i).func == func) drives.push_back(lib.cell(i).drive);
    std::sort(drives.begin(), drives.end());
    EXPECT_EQ(lib.drives_for(func), drives);
    for (int drive = -1; drive <= 20; ++drive) {
      int want = -1;
      for (int i = 0; i < lib.cell_count(); ++i)
        if (lib.cell(i).func == func && lib.cell(i).drive == drive) want = i;
      EXPECT_EQ(lib.find_index(func, drive), want) << "drive " << drive;
      EXPECT_EQ(lib.find(func, drive), want < 0 ? nullptr : &lib.cell(want))
          << "drive " << drive;
      int up = -1, down = -1;
      for (int d : drives) {
        if (d > drive && up < 0) up = d;
        if (d < drive) down = d;
      }
      EXPECT_EQ(lib.upsize(func, drive), up) << "drive " << drive;
      EXPECT_EQ(lib.downsize(func, drive), down) << "drive " << drive;
    }
  }
}

}  // namespace

TEST(TechLib, DriveLadderMatchesBruteForce) {
  expect_ladders_match_scan(*mt::make_12track());
  expect_ladders_match_scan(*mt::make_9track());

  // A Liberty round trip rewritten to an irregular ladder: the k-th cell
  // written gets drive 1 + 7k mod 19, so each function's four cells get
  // four distinct drives in 1..19, in no particular order.
  std::string text = mt::liberty_string(*mt::make_12track());
  const std::string key = "m3d_drive : ";
  int k = 0;
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos), ++k) {
    pos += key.size();
    const std::size_t end = text.find(';', pos);
    text.replace(pos, end - pos, std::to_string(1 + 7 * k % 19));
  }
  ASSERT_EQ(k, mt::make_12track()->cell_count());
  const auto irregular = mt::parse_liberty(text);
  ASSERT_EQ(irregular.cell_count(), k);
  expect_ladders_match_scan(irregular);

  // A duplicate (function, drive) still throws.
  auto lib = mt::parse_liberty(text);
  mt::LibCell dup = lib.cell(5);
  dup.name = "DUP";
  EXPECT_THROW(lib.add_cell(dup), m3d::util::Error);
  EXPECT_EQ(lib.cell_count(), k);
}

TEST(TechLib, MacrosPresentAndIdenticalAcrossLibraries) {
  const auto l9 = mt::make_9track();
  const auto l12 = mt::make_12track();
  const int m9 = l9->find_macro("SRAM_1KX32");
  const int m12 = l12->find_macro("SRAM_1KX32");
  ASSERT_GE(m9, 0);
  ASSERT_GE(m12, 0);
  // Paper: "memories in the CPU design are of the same size in both
  // technology variants".
  EXPECT_DOUBLE_EQ(l9->macro(m9).area_um2(), l12->macro(m12).area_um2());
  EXPECT_DOUBLE_EQ(l9->macro(m9).access_ns, l12->macro(m12).access_ns);
}

TEST(Boundary, OverdriveSpeedsUpUnderdriveSlowsDown) {
  // Input driven from 0.90 V rail into a 0.81 V cell: overdrive → faster.
  const double fast_in = mt::boundary_delay_derate(0.90, 0.81, 0.30);
  EXPECT_LT(fast_in, 1.0);
  // Input from 0.81 V into a 0.90 V cell: underdrive → slower.
  const double slow_in = mt::boundary_delay_derate(0.81, 0.90, 0.32);
  EXPECT_GT(slow_in, 1.0);
  // Homogeneous: exactly 1.
  EXPECT_DOUBLE_EQ(mt::boundary_delay_derate(0.9, 0.9, 0.32), 1.0);
  // Magnitudes stay modest (paper: stage-delay shifts of a few percent
  // with opposite signs).
  EXPECT_GT(fast_in, 0.75);
  EXPECT_LT(slow_in, 1.35);
}

TEST(Boundary, LeakageDerateIsExponentialAndAsymmetric) {
  const double up = mt::boundary_leakage_derate(0.90, 0.81);
  const double down = mt::boundary_leakage_derate(0.81, 0.90);
  EXPECT_GT(up, 2.0);    // Table III: +250 % leakage with overdriven input
  EXPECT_LT(down, 0.6);  // Table III: −45 % with underdriven input
  EXPECT_DOUBLE_EQ(mt::boundary_leakage_derate(0.9, 0.9), 1.0);
  // Asymmetry: up-shift is much larger than the down-shift is small.
  EXPECT_GT(up * down, 0.9);  // exp(x)*exp(-x) == 1
}

TEST(Boundary, LevelShifterFreeRule) {
  // Paper setup: 0.90 / 0.81 with Vthp ≥ 0.30 → no level shifters needed.
  EXPECT_TRUE(mt::level_shifter_free(0.90, 0.81, 0.30));
  // A 0.9 vs 0.55 gap breaks the 0.3·VDDH rule.
  EXPECT_FALSE(mt::level_shifter_free(0.90, 0.55, 0.30));
  // Gap below 30 % but above Vth still fails.
  EXPECT_FALSE(mt::level_shifter_free(0.90, 0.70, 0.15));
}

TEST(WireModel, ElmoreDelayScalesQuadratically) {
  mt::WireModel w;
  const double d1 = w.elmore_ns(100.0, 0.0);
  const double d2 = w.elmore_ns(200.0, 0.0);
  EXPECT_NEAR(d2 / d1, 4.0, 1e-9);  // 0.5*R*C term dominates with no load
}

TEST(WireModel, LoadTermLinearInLength) {
  mt::WireModel w;
  const double base = w.elmore_ns(100.0, 10.0) - w.elmore_ns(100.0, 0.0);
  const double twice = w.elmore_ns(200.0, 10.0) - w.elmore_ns(200.0, 0.0);
  EXPECT_NEAR(twice / base, 2.0, 1e-9);
}

TEST(WireModel, MivIsCheap) {
  mt::MivModel miv;
  mt::WireModel w;
  // An MIV should cost less than a few microns of wire — that is the
  // premise of monolithic gate-level partitioning.
  EXPECT_LT(miv.delay_ns(10.0), w.elmore_ns(5.0, 10.0));
}

// ---- process corners (corners.hpp) ---------------------------------------

#include <cstdlib>

#include "tech/corners.hpp"

TEST(Corners, NominalLaneIsExactDerate) {
  mt::CornerSpec spec;
  spec.count = 8;
  spec.derate[0] = 1.0;
  spec.derate[1] = 1.05;
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;
  const auto cs = mt::CornerSet::generate(spec);
  ASSERT_EQ(cs.count(), 8);
  // Corner 0 carries the systematic derate bit for bit — that is what
  // keeps sweep lane 0 identical to the scalar engine.
  EXPECT_EQ(cs.factor(0, 0), 1.0);
  EXPECT_EQ(cs.factor(1, 0), 1.05);
  for (int k = 1; k < cs.count(); ++k) {
    EXPECT_GT(cs.factor(0, k), 0.0);
    EXPECT_GT(cs.factor(1, k), 0.0);
  }
}

TEST(Corners, ZeroSigmaCollapsesToDerate) {
  mt::CornerSpec spec;
  spec.count = 16;
  spec.derate[0] = 0.97;
  spec.derate[1] = 1.12;
  const auto cs = mt::CornerSet::generate(spec);
  for (int k = 0; k < cs.count(); ++k) {
    EXPECT_EQ(cs.factor(0, k), 0.97);
    EXPECT_EQ(cs.factor(1, k), 1.12);
  }
}

TEST(Corners, PrefixStableAcrossK) {
  mt::CornerSpec a;
  a.count = 16;
  a.sigma[0] = 0.03;
  a.sigma[1] = 0.08;
  a.derate[1] = 1.05;
  mt::CornerSpec b = a;
  b.count = 64;
  const auto small = mt::CornerSet::generate(a);
  const auto large = mt::CornerSet::generate(b);
  // Corner k depends only on (seed, k): the K=16 set is a bitwise prefix
  // of the K=64 set.
  for (int t : {0, 1})
    for (int k = 0; k < small.count(); ++k)
      EXPECT_EQ(small.factor(t, k), large.factor(t, k))
          << "tier " << t << " corner " << k;
}

TEST(Corners, DeterministicAndSeedSensitive) {
  mt::CornerSpec spec;
  spec.count = 32;
  spec.sigma[0] = spec.sigma[1] = 0.1;
  const auto a = mt::CornerSet::generate(spec);
  const auto b = mt::CornerSet::generate(spec);
  for (int k = 0; k < spec.count; ++k)
    EXPECT_EQ(a.factor(0, k), b.factor(0, k));
  mt::CornerSpec other = spec;
  other.seed += 1;
  const auto c = mt::CornerSet::generate(other);
  int same = 0;
  for (int k = 1; k < spec.count; ++k)
    if (a.factor(0, k) == c.factor(0, k)) ++same;
  EXPECT_LT(same, 2);
}

TEST(Corners, CountAndFactorClamps) {
  mt::CornerSpec spec;
  spec.count = 0;
  EXPECT_EQ(mt::CornerSet::generate(spec).count(), 1);
  spec.count = 1 << 20;
  EXPECT_EQ(mt::CornerSet::generate(spec).count(), 4096);
  // A wild sigma cannot produce a negative or absurd "delay" factor.
  mt::CornerSpec wild;
  wild.count = 64;
  wild.sigma[0] = wild.sigma[1] = 50.0;
  const auto cs = mt::CornerSet::generate(wild);
  for (int t : {0, 1})
    for (int k = 0; k < cs.count(); ++k) {
      EXPECT_GE(cs.factor(t, k), 0.05);
      EXPECT_LE(cs.factor(t, k), 20.0);
    }
}

TEST(Corners, SingleCarriesExactFactors) {
  mt::CornerSpec spec;
  spec.count = 8;
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;
  spec.derate[1] = 1.05;
  const auto cs = mt::CornerSet::generate(spec);
  for (int k = 0; k < cs.count(); ++k) {
    const mt::CornerSpec s = cs.single(k);
    EXPECT_EQ(s.count, 1);
    EXPECT_EQ(s.sigma[0], 0.0);
    EXPECT_EQ(s.sigma[1], 0.0);
    EXPECT_EQ(s.derate[0], cs.factor(0, k));
    EXPECT_EQ(s.derate[1], cs.factor(1, k));
    // Round trip: a set generated from single(k) has corner k's factors
    // as its (only) nominal lane.
    const auto one = mt::CornerSet::generate(s);
    EXPECT_EQ(one.count(), 1);
    EXPECT_EQ(one.factor(0, 0), cs.factor(0, k));
    EXPECT_EQ(one.factor(1, 0), cs.factor(1, k));
  }
}

TEST(Corners, EnvSpecDefaultsAndOverrides) {
  ::unsetenv("M3D_STA_CORNERS");
  ::unsetenv("M3D_TIER_SIGMA");
  ::unsetenv("M3D_TIER_DERATE");
  EXPECT_EQ(mt::corner_spec_from_env(), mt::CornerSpec{});

  ::setenv("M3D_STA_CORNERS", "16", 1);
  mt::CornerSpec spec = mt::corner_spec_from_env();
  EXPECT_EQ(spec.count, 16);
  EXPECT_EQ(spec.sigma[0], 0.03);
  EXPECT_EQ(spec.sigma[1], 0.08);
  EXPECT_EQ(spec.derate[0], 1.0);
  EXPECT_EQ(spec.derate[1], 1.05);

  ::setenv("M3D_TIER_SIGMA", "0.02,0.05", 1);
  ::setenv("M3D_TIER_DERATE", "1.1", 1);
  spec = mt::corner_spec_from_env();
  EXPECT_EQ(spec.sigma[0], 0.02);
  EXPECT_EQ(spec.sigma[1], 0.05);
  EXPECT_EQ(spec.derate[0], 1.1);
  EXPECT_EQ(spec.derate[1], 1.1);  // single value applies to both tiers

  // K <= 1 disables the sweep regardless of the other knobs.
  ::setenv("M3D_STA_CORNERS", "1", 1);
  EXPECT_EQ(mt::corner_spec_from_env(), mt::CornerSpec{});

  ::unsetenv("M3D_STA_CORNERS");
  ::unsetenv("M3D_TIER_SIGMA");
  ::unsetenv("M3D_TIER_DERATE");
}

TEST(Corners, EnvSpecRejectsMalformedValues) {
  // A value is one whole token, never its numeric prefix: "16x" is not
  // 16 and "0.05abc" is not 0.05; each is a util::Error.
  ::unsetenv("M3D_TIER_SIGMA");
  ::unsetenv("M3D_TIER_DERATE");
  ::setenv("M3D_STA_CORNERS", "16x", 1);
  EXPECT_THROW(mt::corner_spec_from_env(), m3d::util::Error);
  ::setenv("M3D_STA_CORNERS", "x", 1);
  EXPECT_THROW(mt::corner_spec_from_env(), m3d::util::Error);
  ::setenv("M3D_STA_CORNERS", "0", 1);  // 0 and 1 still mean one corner
  EXPECT_EQ(mt::corner_spec_from_env(), mt::CornerSpec{});
  ::setenv("M3D_STA_CORNERS", "4", 1);
  ::setenv("M3D_TIER_SIGMA", "0.05abc", 1);
  EXPECT_THROW(mt::corner_spec_from_env(), m3d::util::Error);
  ::setenv("M3D_TIER_SIGMA", "0.02,0.05", 1);
  ::setenv("M3D_TIER_DERATE", "1.0,", 1);
  EXPECT_THROW(mt::corner_spec_from_env(), m3d::util::Error);
  ::unsetenv("M3D_STA_CORNERS");
  ::unsetenv("M3D_TIER_SIGMA");
  ::unsetenv("M3D_TIER_DERATE");
}
