#pragma once
/// \file power.hpp
/// \brief Activity-based power analysis with per-tier supply voltages and
///        heterogeneous boundary leakage effects.
///
/// Components:
///  * net switching: ½·α·C·V²·f per net, where C is wire + MIV + sink-pin
///    capacitance and V the *driver's* tier rail (the driver charges the
///    net);
///  * cell internal: per-cell internal energy × output activity × f;
///  * leakage: per-cell static leakage, multiplied by the exponential
///    boundary derate when an input rests at a foreign rail (paper
///    Table III: +250 % when overdriven, −45 % when underdriven — large in
///    relative terms, negligible against total power);
///  * clock: switching on clock nets + internal/leakage of clock buffers +
///    flop/macro clock-pin loading, reported separately.

#include "netlist/design.hpp"
#include "route/route.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::power {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;

/// Power analysis knobs.
struct PowerOptions {
  bool boundary_leakage = true;  ///< apply hetero leakage derates
  /// Worker pool for the per-net and per-cell gathers; nullptr means
  /// exec::Pool::global(). Totals accumulate serially in id order
  /// afterwards, so the report is byte-identical at any pool size.
  exec::Pool* pool = nullptr;
};

/// Result of one power analysis, all in mW.
struct PowerReport {
  double switching_mw = 0.0;  ///< signal-net charging power
  double internal_mw = 0.0;   ///< cell-internal (short-circuit etc.)
  double leakage_mw = 0.0;    ///< static
  double clock_mw = 0.0;      ///< clock network total (all components)
  double total_mw = 0.0;

  /// Per-net switching power (µW), indexed by NetId (clock nets included).
  std::vector<double> net_switching_uw;
};

/// Analyze power at the given clock frequency. `routes` supplies wire
/// capacitance; pass nullptr for a pre-route estimate (pin caps only).
PowerReport analyze_power(const Design& d,
                          const route::RoutingEstimate* routes,
                          double freq_ghz, const PowerOptions& opt = {});

}  // namespace m3d::power
