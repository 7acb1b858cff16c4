#pragma once
/// \file cost.hpp
/// \brief The paper's cost model (Table IV, after Ku et al. ICCAD'16) and
///        the derived PPAC metrics (PDP, PPC, cost/cm²).
///
/// All die costs are expressed in units of C′, the baseline wafer cost
/// (FEOL + 8 metals); the paper reports die costs in 10⁻⁶·C′.
///
/// Note on equation (5): the published formula reads
///   Die Cost = C / (N_GD × Y)
/// but reproducing Table VI's numbers requires Die Cost = C / N_GD
/// (the standard cost-per-good-die), which is also what Ku et al. use.
/// We implement the standard form and flag the typo in EXPERIMENTS.md;
/// `die_cost_as_published()` evaluates the literal formula for comparison.

#include <vector>

namespace m3d::cost {

/// Per-tier process cost shares of one tier of a stack, in units of C′.
/// Heterogeneous stacks mix tiers fabricated in different flavors (a
/// trimmed-metal top tier, a cheaper relaxed-pitch FEOL, ...); the default
/// values are the Table-IV uniform shares every tier of the paper's 2-tier
/// stack uses.
struct TierProcess {
  double feol_fraction = 0.30;   ///< this tier's FEOL share of C′
  double beol_fraction = 0.66;   ///< this tier's BEOL share of C′
};

/// Table IV assumptions. Defaults are the paper's values.
struct CostModel {
  double feol_fraction = 0.30;       ///< FEOL share of C′
  double beol_fraction_6m = 0.66;    ///< six-metal BEOL share of C′
  double integration_3d = 0.05;      ///< α: 3-D integration wafer penalty
  double wafer_diameter_mm = 300.0;
  double defect_density_mm2 = 0.2;   ///< D_w
  double wafer_yield = 0.95;         ///< κ
  double yield_degradation_3d = 0.95;  ///< β

  /// Usable wafer area in mm².
  double wafer_area_mm2() const;

  /// Equation (1): dies per wafer with the edge-loss correction term.
  double dies_per_wafer(double die_area_mm2) const;

  /// Equation (2): 2-D die yield.
  double die_yield_2d(double die_area_mm2) const;

  // ---- N-tier stacks -----------------------------------------------------
  // The monolithic generalization of Table IV: every tier adds its own
  // FEOL + BEOL wafer processing, every sequential bond between adjacent
  // tiers adds the α integration penalty, and every bond multiplies the
  // die yield by β. tiers == 1 and tiers == 2 are the published 2-D and
  // 3-D equations, bit for bit (1·x + α·0, β⁰ and β¹ are exact).

  /// Wafer cost of a `tiers`-high stack with uniform Table-IV shares:
  /// tiers·(FEOL + BEOL) + α·(tiers − 1). C_2D = wafer_cost(1) = 0.96 C′,
  /// C_3D = wafer_cost(2) = 1.97 C′.
  double wafer_cost(int tiers) const;

  /// Wafer cost of a stack with per-tier process shares (bottom first):
  /// Σᵢ(FEOLᵢ + BEOLᵢ) + α·(tiers − 1).
  double wafer_cost(const std::vector<TierProcess>& stack) const;

  /// Stacked die yield: β^(tiers−1) · die_yield_2d (equation (3) at two
  /// tiers).
  double die_yield(double die_area_mm2, int tiers) const;

  /// Equation (4): good stacked dies per wafer; 0 when the die outgrows
  /// the wafer.
  double good_dies(double die_area_mm2, int tiers) const;

  /// Cost per good die of a `tiers`-high stack (uniform shares), in C′
  /// (standard form; see file comment). +inf when no good die can come
  /// out of the wafer (die too large).
  double die_cost(double die_area_mm2, int tiers) const;

  /// Same with per-tier process shares.
  double die_cost(double die_area_mm2,
                  const std::vector<TierProcess>& stack) const;

  /// Equation (5) exactly as printed (divides by yield twice).
  double die_cost_as_published(double die_area_mm2, int tiers) const;
};

/// Power-delay product in pJ: total power (mW) × effective delay (ns).
/// Effective delay = clock period − worst slack, per the paper.
double pdp_pj(double power_mw, double effective_delay_ns);

/// Effective delay (ns) from period and WNS.
double effective_delay_ns(double period_ns, double wns_ns);

/// Performance per cost, in the paper's units GHz / (mW · 10⁻⁶C′):
/// matches Table VI when power is converted to watts internally.
double ppc(double freq_ghz, double power_mw, double die_cost_cprime);

/// Die cost divided by total silicon area, normalized to cost per cm².
/// Units: 10⁻⁶C′ per cm² when die_cost is in C′ and area in mm².
double cost_per_cm2(double die_cost_cprime, double silicon_area_mm2);

/// Break-even die size of the `tiers`-high monolithic fold: the smallest
/// 2-D die area (mm²) at which folding the same silicon into `tiers` tiers
/// of footprint area/tiers costs no more than the flat die. Scans a
/// geometric grid over [lo_mm2, hi_mm2] to bracket the sign change, then
/// bisects the bracket down to tol_mm2. Returns −1 when the fold never
/// breaks even in the range (or is already cheaper at lo_mm2's left edge).
double fold_crossover_area_mm2(const CostModel& m, int tiers = 2,
                               double lo_mm2 = 0.05, double hi_mm2 = 120.0,
                               double tol_mm2 = 0.01);

}  // namespace m3d::cost
