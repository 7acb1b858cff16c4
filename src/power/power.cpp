#include "power/power.hpp"

#include "exec/pool.hpp"
#include "util/check.hpp"

namespace m3d::power {

using netlist::Cell;
using netlist::kInvalidId;
using netlist::Pin;
using netlist::PinDir;
using netlist::PinId;

namespace {

/// Items per parallel_for chunk; the per-item kernels write their own
/// slots, so only the scheduling depends on it.
constexpr int kChunk = 2048;

/// Is this combinational cell part of the clock distribution?
bool is_clock_cell(const Design& d, CellId c) {
  const Cell& cc = d.nl().cell(c);
  if (!cc.is_comb()) return false;
  for (PinId p : cc.pins) {
    const auto net = d.nl().pin(p).net;
    if (net != kInvalidId && d.nl().net(net).is_clock) return true;
  }
  return false;
}

}  // namespace

PowerReport analyze_power(const Design& d,
                          const route::RoutingEstimate* routes,
                          double freq_ghz, const PowerOptions& opt) {
  M3D_CHECK(freq_ghz > 0.0);
  const auto& nl = d.nl();
  exec::Pool& pool = exec::pool_or_global(opt.pool);
  PowerReport rep;
  rep.net_switching_uw.assign(static_cast<std::size_t>(nl.net_count()), 0.0);

  // --- net switching -------------------------------------------------------
  // Gather: each net's µW lands in its own slot; the clock/signal totals
  // accumulate serially in net order below, bitwise-identical to the old
  // single loop at any pool size.
  pool.parallel_for(0, nl.net_count(), [&](int n) {
    const auto& net = nl.net(n);
    if (net.driver == kInvalidId) return;
    double cap_ff = 0.0;
    nl.for_each_sink(n, [&](PinId s) { cap_ff += d.pin_cap_ff(s); });
    if (routes != nullptr)
      cap_ff += routes->nets[static_cast<std::size_t>(n)].wire_cap_ff;
    const int drv_tier = d.tier(nl.pin(net.driver).cell);
    const double vdd = d.lib(drv_tier).vdd();
    // ½·α·C·V²·f; fF·V²·GHz = µW.
    rep.net_switching_uw[static_cast<std::size_t>(n)] =
        0.5 * net.activity * cap_ff * vdd * vdd * freq_ghz;
  }, kChunk);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (nl.net(n).driver == kInvalidId) continue;
    const double uw = rep.net_switching_uw[static_cast<std::size_t>(n)];
    if (nl.net(n).is_clock)
      rep.clock_mw += uw / 1000.0;
    else
      rep.switching_mw += uw / 1000.0;
  }

  // --- cell internal + leakage ---------------------------------------------
  // Same discipline: per-cell µW pairs gather into slots, totals reduce
  // serially in cell order.
  const std::size_t nc = static_cast<std::size_t>(nl.cell_count());
  std::vector<double> internal(nc, 0.0);
  std::vector<double> leakage(nc, 0.0);
  std::vector<char> skip(nc, 0);
  std::vector<char> clocky(nc, 0);
  pool.parallel_for(0, nl.cell_count(), [&](int c) {
    const Cell& cc = nl.cell(c);
    const auto ci = static_cast<std::size_t>(c);
    double internal_uw = 0.0;
    double leakage_uw = 0.0;

    if (cc.is_comb() || cc.is_sequential()) {
      const tech::LibCell* lc = d.lib_cell(c);
      // Output activity drives internal energy; flops switch with their Q
      // activity plus clock loading handled via the clock net cap.
      double act = 0.1;
      const auto outs = nl.output_pins_of(c);
      if (!outs.empty() && nl.pin(outs[0]).net != kInvalidId)
        act = nl.net(nl.pin(outs[0]).net).activity;
      internal_uw = lc->internal_energy_fj * act * freq_ghz;
      leakage_uw = lc->leakage_uw;

      if (opt.boundary_leakage && d.num_tiers() == 2) {
        // Average the exponential derate over inputs fed from a foreign
        // rail (paper Table III's leakage rows).
        double derate_sum = 0.0;
        int inputs = 0;
        for (PinId p : nl.input_pins_of(c)) {
          const auto net = nl.pin(p).net;
          double derate = 1.0;
          if (net != kInvalidId && nl.net(net).driver != kInvalidId) {
            const int drv_tier = d.tier(nl.pin(nl.net(net).driver).cell);
            if (drv_tier != d.tier(c))
              derate = tech::boundary_leakage_derate(d.lib(drv_tier).vdd(),
                                                     d.lib_of(c).vdd());
          }
          derate_sum += derate;
          ++inputs;
        }
        if (inputs > 0) leakage_uw *= derate_sum / inputs;
      }
    } else if (cc.is_macro()) {
      const tech::MacroCell* mc = d.macro(c);
      internal_uw = mc->internal_energy_fj * 0.5 * freq_ghz;  // access rate
      leakage_uw = mc->leakage_uw;
    } else {
      skip[ci] = 1;
      return;
    }
    internal[ci] = internal_uw;
    leakage[ci] = leakage_uw;
    clocky[ci] = is_clock_cell(d, c) ? 1 : 0;
  }, kChunk);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    if (skip[ci]) continue;
    if (clocky[ci]) {
      rep.clock_mw += (internal[ci] + leakage[ci]) / 1000.0;
    } else {
      rep.internal_mw += internal[ci] / 1000.0;
      rep.leakage_mw += leakage[ci] / 1000.0;
    }
  }

  rep.total_mw =
      rep.switching_mw + rep.internal_mw + rep.leakage_mw + rep.clock_mw;
  return rep;
}

}  // namespace m3d::power
