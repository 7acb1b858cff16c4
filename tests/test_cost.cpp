// Tests for the Table IV cost model and PPAC metrics, cross-checked
// against the paper's published values where the table gives them.

#include <gtest/gtest.h>

#include <cmath>

#include "cost/cost.hpp"
#include "util/check.hpp"

namespace mc = m3d::cost;

TEST(Cost, WaferCostsMatchTableIV) {
  mc::CostModel m;
  EXPECT_NEAR(m.wafer_cost(1), 0.96, 1e-12);
  EXPECT_NEAR(m.wafer_cost(2), 1.97, 1e-12);
}

TEST(Cost, WaferAreaFor300mm) {
  mc::CostModel m;
  EXPECT_NEAR(m.wafer_area_mm2(), M_PI * 150.0 * 150.0, 1e-6);
}

TEST(Cost, DiesPerWaferEdgeLoss) {
  mc::CostModel m;
  const double dpw = m.dies_per_wafer(100.0);  // 10×10 mm die
  // Raw area ratio ~707; edge loss removes ~sqrt(2π·707) ≈ 67.
  EXPECT_LT(dpw, m.wafer_area_mm2() / 100.0);
  EXPECT_NEAR(dpw, 707.0 - 66.6, 2.0);
}

TEST(Cost, YieldDecreasesWithArea) {
  mc::CostModel m;
  EXPECT_GT(m.die_yield_2d(1.0), m.die_yield_2d(100.0));
  EXPECT_NEAR(m.die_yield_2d(0.0), 0.95, 1e-12);  // κ at zero area
}

TEST(Cost, ThreeDYieldDegraded) {
  mc::CostModel m;
  EXPECT_NEAR(m.die_yield(10.0, 2) / m.die_yield_2d(10.0), 0.95, 1e-12);
}

TEST(Cost, DieCostReproducesTableVI_Cpu) {
  // Paper Table VI CPU: Si area 0.390 mm² over two tiers → 0.195 mm²
  // footprint, hetero-3-D die cost 6.26 × 10⁻⁶ C′.
  mc::CostModel m;
  const double cost = m.die_cost(0.195, /*tiers=*/2);
  EXPECT_NEAR(cost * 1e6, 6.26, 0.15);
}

TEST(Cost, DieCostReproducesTableVI_Aes) {
  // AES: Si area 0.126 mm² → footprint 0.063 mm², die cost 1.97e-6 C′.
  mc::CostModel m;
  const double cost = m.die_cost(0.063, /*tiers=*/2);
  EXPECT_NEAR(cost * 1e6, 1.97, 0.08);
}

TEST(Cost, PublishedFormulaDiffersByYield) {
  mc::CostModel m;
  const double a = 0.2;
  EXPECT_NEAR(m.die_cost_as_published(a, 2),
              m.die_cost(a, 2) / m.die_yield(a, 2), 1e-15);
}

TEST(Cost, SmallerDieIsCheaper) {
  mc::CostModel m;
  EXPECT_LT(m.die_cost(0.1, 1), m.die_cost(0.2, 1));
  EXPECT_LT(m.die_cost(0.1, 2), m.die_cost(0.2, 2));
}

TEST(Cost, ThreeDDieCostVsTwoSeparateDies) {
  // A 3-D die with half the footprint is cheaper than the 2-D die of the
  // same silicon when the area is large (yield wins), a core paper trade.
  mc::CostModel m;
  const double big = 1.2;  // mm² of silicon
  const double cost_2d = m.die_cost(big, 1);
  const double cost_3d = m.die_cost(big / 2.0, 2);
  // 3-D wafer is ~2× the cost but the die is half area with better yield;
  // at this size the 3-D premium is modest.
  EXPECT_LT(cost_3d / cost_2d, 1.15);
}

TEST(Cost, PdpMatchesTableVI) {
  // Netcard: 550 mW × 0.608 ns = 334.4 pJ (table: 334.5).
  EXPECT_NEAR(mc::pdp_pj(550.0, 0.608), 334.4, 0.5);
  EXPECT_NEAR(mc::effective_delay_ns(0.571, -0.037), 0.608, 1e-12);
}

TEST(Cost, PpcMatchesTableVI) {
  // CPU: 1.2 GHz, 188 mW, 6.26e-6 C′ → 1.02.
  EXPECT_NEAR(mc::ppc(1.2, 188.0, 6.26e-6), 1.02, 0.01);
  // Netcard: 1.75 GHz, 550 mW, 6.16e-6 C′ → 0.517.
  EXPECT_NEAR(mc::ppc(1.75, 550.0, 6.16e-6), 0.517, 0.005);
  // AES: 3.0 GHz, 138 mW, 1.97e-6 C′ → 11.06.
  EXPECT_NEAR(mc::ppc(3.0, 138.0, 1.97e-6), 11.03, 0.1);
}

TEST(Cost, CostPerCm2Normalization) {
  // 1e-6 C′ die on 1 mm² of silicon = 100e-6 C′ per cm².
  EXPECT_NEAR(mc::cost_per_cm2(1e-6, 1.0), 100.0, 1e-9);
}

TEST(Cost, GuardsInvalidInputs) {
  mc::CostModel m;
  EXPECT_THROW(m.dies_per_wafer(0.0), m3d::util::Error);
  EXPECT_THROW(mc::ppc(1.0, 0.0, 1.0), m3d::util::Error);
  EXPECT_THROW(mc::cost_per_cm2(1.0, 0.0), m3d::util::Error);
}

// ---- N-tier stacks -------------------------------------------------------

TEST(Cost, NTierWaferCostReproducesPublished) {
  mc::CostModel m;
  EXPECT_EQ(m.wafer_cost(1), 0.30 + 0.66);
  EXPECT_EQ(m.wafer_cost(2), 2.0 * (0.30 + 0.66) + 0.05);
  // Each extra tier adds one FEOL + BEOL pass and one bond premium.
  EXPECT_NEAR(m.wafer_cost(3), 3 * 0.96 + 2 * 0.05, 1e-12);
  // A uniform per-tier stack must price identically to the int form.
  const std::vector<mc::TierProcess> stack(4);
  EXPECT_NEAR(m.wafer_cost(stack), m.wafer_cost(4), 1e-12);
}

TEST(Cost, NTierDieCostMatchesPublishedEquations) {
  // One and two tiers are equations (1)-(5) as printed for 2-D and 3-D,
  // bit for bit: C / (DPW · Y) with Y_3D = β · Y_2D.
  mc::CostModel m;
  for (double a : {0.5, 5.0, 50.0}) {
    const double dpw = m.dies_per_wafer(a);
    const double y2d = m.die_yield_2d(a);
    EXPECT_EQ(m.die_cost(a, 1), (0.30 + 0.66) / (dpw * y2d)) << a;
    EXPECT_EQ(m.die_cost(a, 2),
              (2.0 * (0.30 + 0.66) + 0.05) / (dpw * (0.95 * y2d)))
        << a;
  }
}

TEST(Cost, NTierDieCostMonotoneInTierCount) {
  // Same footprint, taller stack: every tier adds wafer processing and
  // every bond degrades yield, so cost per good die strictly rises.
  mc::CostModel m;
  for (double a : {1.0, 20.0}) {
    double prev = 0.0;
    for (int tiers = 1; tiers <= 5; ++tiers) {
      const double c = m.die_cost(a, tiers);
      EXPECT_GT(c, prev) << "area " << a << " tiers " << tiers;
      prev = c;
    }
  }
}

TEST(Cost, HugeDieCostsInfinity) {
  // A die larger than the usable wafer yields no good dies: the model
  // reports +inf instead of a negative or divide-by-zero cost.
  mc::CostModel m;
  const double huge = m.wafer_area_mm2() * 2.0;
  EXPECT_EQ(m.good_dies(huge, 2), 0.0);
  EXPECT_TRUE(std::isinf(m.die_cost(huge, 2)));
  EXPECT_GT(m.die_cost(huge, 2), 0.0);
}

TEST(Cost, ZeroAreaStillGuardedInNTierForm) {
  mc::CostModel m;
  EXPECT_THROW(m.die_cost(0.0, 3), m3d::util::Error);
  EXPECT_THROW(m.die_cost(-1.0, 3), m3d::util::Error);
  EXPECT_THROW(m.die_cost(1.0, 0), m3d::util::Error);
}

TEST(Cost, PublishedFormulaDivergesFromStandardAtLowYield) {
  // The literal equation (5) divides by yield twice; at big-die (low
  // yield) sizes the published form overstates cost by exactly 1/yield.
  mc::CostModel m;
  const double a = 100.0;
  const double y = m.die_yield(a, 2);
  ASSERT_LT(y, 0.5);
  EXPECT_NEAR(m.die_cost_as_published(a, 2) / m.die_cost(a, 2), 1.0 / y,
              1e-9);
}

TEST(Cost, FoldCrossoverBracketsTheSignChange) {
  // The bisected break-even must actually separate "2-D cheaper" from
  // "fold cheaper" to within the tolerance — the old 1.05x geometric
  // scan overshot by up to 5 % of the die size.
  mc::CostModel m;
  const double tol = 0.01;
  const double x = mc::fold_crossover_area_mm2(m, 2, 0.05, 120.0, tol);
  ASSERT_GT(x, 0.0);
  EXPECT_GT(m.die_cost((x - 0.1) / 2.0, 2), m.die_cost(x - 0.1, 1));
  EXPECT_LE(m.die_cost((x + 0.1) / 2.0, 2), m.die_cost(x + 0.1, 1));
  // Resolution: the sign change sits inside [x - tol, x + tol], far
  // tighter than the 0.1 mm² the ISSUE asks for.
  EXPECT_GT(m.die_cost((x - tol * 2) / 2.0, 2), m.die_cost(x - tol * 2, 1));
}

TEST(Cost, FoldCrossoverNeverReachedReturnsMinusOne) {
  // With no integration premium and no yield degradation the fold is
  // cheaper at every size — the scan reports that as -1 ("no crossover
  // in range" / already cheaper at the left edge).
  mc::CostModel m;
  m.integration_3d = 0.0;
  m.yield_degradation_3d = 1.0;
  EXPECT_EQ(mc::fold_crossover_area_mm2(m), -1.0);
}
