#include "cost/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace m3d::cost {

double CostModel::wafer_area_mm2() const {
  const double r = wafer_diameter_mm / 2.0;
  return M_PI * r * r;
}

double CostModel::dies_per_wafer(double die_area_mm2) const {
  M3D_CHECK(die_area_mm2 > 0.0);
  const double aw = wafer_area_mm2();
  // Equation (1): A_w/A_d − sqrt(2π·A_w/A_d) — the subtraction models
  // partial dies lost at the wafer edge.
  return aw / die_area_mm2 - std::sqrt(2.0 * M_PI * aw / die_area_mm2);
}

double CostModel::die_yield_2d(double die_area_mm2) const {
  const double t = 1.0 + die_area_mm2 * defect_density_mm2 / 2.0;
  return wafer_yield / (t * t);
}

double CostModel::wafer_cost(int tiers) const {
  M3D_CHECK(tiers >= 1);
  return tiers * (feol_fraction + beol_fraction_6m) +
         integration_3d * (tiers - 1);
}

double CostModel::wafer_cost(const std::vector<TierProcess>& stack) const {
  M3D_CHECK(!stack.empty());
  double c = integration_3d * (static_cast<double>(stack.size()) - 1.0);
  for (const TierProcess& t : stack) c += t.feol_fraction + t.beol_fraction;
  return c;
}

double CostModel::die_yield(double die_area_mm2, int tiers) const {
  M3D_CHECK(tiers >= 1);
  return std::pow(yield_degradation_3d, tiers - 1) *
         die_yield_2d(die_area_mm2);
}

double CostModel::good_dies(double die_area_mm2, int tiers) const {
  // A die larger than the edge-loss-corrected wafer yields nothing; the
  // raw equation (1) goes negative there, which would produce a negative
  // "cost" — clamp instead.
  return std::max(0.0, dies_per_wafer(die_area_mm2)) *
         die_yield(die_area_mm2, tiers);
}

double CostModel::die_cost(double die_area_mm2, int tiers) const {
  const double gd = good_dies(die_area_mm2, tiers);
  if (gd <= 0.0) return std::numeric_limits<double>::infinity();
  return wafer_cost(tiers) / gd;
}

double CostModel::die_cost(double die_area_mm2,
                           const std::vector<TierProcess>& stack) const {
  const double gd =
      good_dies(die_area_mm2, static_cast<int>(stack.size()));
  if (gd <= 0.0) return std::numeric_limits<double>::infinity();
  return wafer_cost(stack) / gd;
}

double CostModel::die_cost_as_published(double die_area_mm2,
                                        int tiers) const {
  return die_cost(die_area_mm2, tiers) / die_yield(die_area_mm2, tiers);
}

double pdp_pj(double power_mw, double effective_delay_ns) {
  // mW × ns = pJ.
  return power_mw * effective_delay_ns;
}

double effective_delay_ns(double period_ns, double wns_ns) {
  return period_ns - wns_ns;
}

double ppc(double freq_ghz, double power_mw, double die_cost_cprime) {
  M3D_CHECK(power_mw > 0.0 && die_cost_cprime > 0.0);
  // Table VI evaluates PPC with power in watts and die cost in 10⁻⁶ C′
  // (e.g. CPU: 1.2 / (0.188 × 6.26) = 1.02).
  const double power_w = power_mw / 1000.0;
  const double cost_e6 = die_cost_cprime * 1e6;
  return freq_ghz / (power_w * cost_e6);
}

double cost_per_cm2(double die_cost_cprime, double silicon_area_mm2) {
  M3D_CHECK(silicon_area_mm2 > 0.0);
  return die_cost_cprime * 1e6 / (silicon_area_mm2 / 100.0);
}

double fold_crossover_area_mm2(const CostModel& m, int tiers, double lo_mm2,
                               double hi_mm2, double tol_mm2) {
  M3D_CHECK(tiers >= 2 && lo_mm2 > 0.0 && hi_mm2 > lo_mm2 && tol_mm2 > 0.0);
  // Positive while the flat die is still cheaper; the crossover is the
  // smallest root. The premium is continuous in the area, so a sign change
  // between two grid points brackets a root the bisection can pin down.
  const auto premium = [&](double a) {
    return m.die_cost(a / tiers, tiers) - m.die_cost(a, 1);
  };
  double prev = lo_mm2;
  if (premium(prev) <= 0.0) return -1.0;  // no bracket: already even at lo
  for (double a = lo_mm2 * 1.05; prev < hi_mm2; a *= 1.05) {
    if (premium(a) <= 0.0) {
      double lo = prev, hi = a;
      while (hi - lo > tol_mm2) {
        const double mid = 0.5 * (lo + hi);
        (premium(mid) <= 0.0 ? hi : lo) = mid;
      }
      return 0.5 * (lo + hi);
    }
    prev = a;
  }
  return -1.0;
}

}  // namespace m3d::cost
