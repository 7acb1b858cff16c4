#include "core/metrics.hpp"

#include <cmath>

#include "cost/cost.hpp"
#include "part/fm.hpp"
#include "util/stats.hpp"

namespace m3d::core {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinId;

double pct_delta(double hetero, double config) {
  M3D_CHECK(config != 0.0);
  return (hetero - config) / config * 100.0;
}

MemoryNetReport analyze_memory_nets(const netlist::Design& d,
                                    const route::RoutingEstimate& routes,
                                    const power::PowerReport& power) {
  MemoryNetReport rep;
  const auto& nl = d.nl();
  const auto& wire = d.lib(netlist::kBottomTier).wire();

  std::vector<double> in_lat, out_lat, sw;
  std::vector<PinId> sinks;
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.driver == kInvalidId) continue;

    const bool from_macro = nl.cell(nl.pin(net.driver).cell).is_macro();
    bool to_macro = false;
    nl.for_each_sink(n, [&](PinId s) {
      if (nl.cell(nl.pin(s).cell).is_macro()) to_macro = true;
    });
    if (!from_macro && !to_macro) continue;

    // Net wire latency: worst sink path delay on this net.
    const auto& nr = routes.nets[static_cast<std::size_t>(n)];
    double worst = 0.0;
    nl.sinks_into(n, sinks);
    for (std::size_t i = 0;
         i < sinks.size() && i < nr.sink_path_um.size(); ++i) {
      worst = std::max(worst, wire.elmore_ns(nr.sink_path_um[i],
                                             d.pin_cap_ff(sinks[i])));
    }
    if (to_macro) in_lat.push_back(worst * 1000.0);   // ns → ps
    if (from_macro) out_lat.push_back(worst * 1000.0);
    sw.push_back(power.net_switching_uw[static_cast<std::size_t>(n)]);
  }
  rep.input_latency_ps = util::rms(in_lat);
  rep.output_latency_ps = util::rms(out_lat);
  rep.switching_uw = util::rms(sw);
  rep.input_nets = static_cast<int>(in_lat.size());
  rep.output_nets = static_cast<int>(out_lat.size());
  return rep;
}

DesignMetrics collect_metrics(const netlist::Design& d,
                              const route::RoutingEstimate& routes,
                              const sta::StaResult& timing,
                              const power::PowerReport& power,
                              const cts::ClockTreeReport& clock,
                              const std::string& netlist_name,
                              const std::string& config_name) {
  DesignMetrics m;
  m.netlist_name = netlist_name;
  m.config_name = config_name;

  m.clock_period_ns = d.clock_period_ns();
  m.frequency_ghz = 1.0 / d.clock_period_ns();
  m.wns_ns = timing.wns();
  m.tns_ns = timing.tns();
  m.sta_corners = timing.corner_count();
  m.wns_worst_corner_ns = timing.guard_wns();
  // Yield against the paper's "timing met" rule: a corner passes when its
  // WNS stays within 5 % of the period.
  m.timing_yield = timing.timing_yield(-0.05 * d.clock_period_ns());
  m.effective_delay_ns =
      cost::effective_delay_ns(d.clock_period_ns(), m.wns_ns);

  const double footprint_um2 = d.floorplan().area();
  m.footprint_mm2 = footprint_um2 * 1e-6;
  m.silicon_area_mm2 = m.footprint_mm2 * d.num_tiers();
  m.chip_width_um = d.floorplan().width();
  m.density_pct = d.density() * 100.0;

  m.wirelength_m = routes.total_wirelength_um * 1e-6;
  m.mivs = routes.total_mivs;
  m.cut_fraction = d.num_tiers() == 2 ? part::cut_fraction(d) : 0.0;

  m.total_power_mw = power.total_mw;
  m.switching_mw = power.switching_mw;
  m.internal_mw = power.internal_mw;
  m.leakage_mw = power.leakage_mw;
  m.clock_power_mw = power.clock_mw;

  // Every tier prices its own FEOL/BEOL pass, bond premium and β yield
  // hit; one and two tiers are the paper's 2-D and 3-D equations.
  const double die_cost =
      cost::CostModel{}.die_cost(m.footprint_mm2, d.num_tiers());
  m.die_cost_e6 = die_cost * 1e6;
  m.cost_per_cm2 = cost::cost_per_cm2(die_cost, m.silicon_area_mm2);
  m.pdp_pj = cost::pdp_pj(m.total_power_mw, m.effective_delay_ns);
  m.ppc = cost::ppc(m.frequency_ghz, m.total_power_mw, die_cost);

  const auto stats = d.nl().stats();
  m.std_cells = stats.cells;
  m.macros = stats.macros;

  m.clock = clock;
  if (timing.endpoint_count() > 0) {
    m.critical_path = timing.critical_path();
    double delay[2] = {0.0, 0.0};
    long long cells[2] = {0, 0};
    double skew_sum = 0.0;
    int paths = 0;
    for (const auto& p : timing.worst_paths(100)) {
      for (const auto& st : p.stages) {
        if (st.cell == kInvalidId || st.out_pin == kInvalidId) continue;
        const int t = st.tier == netlist::kTopTier ? 1 : 0;
        delay[t] += st.cell_delay_ns;
        ++cells[t];
      }
      skew_sum += p.clock_skew_ns;
      ++paths;
    }
    for (int t : {0, 1})
      m.avg_stage_delay_tier_ns[t] =
          cells[t] > 0 ? delay[t] / static_cast<double>(cells[t]) : 0.0;
    m.avg_path_skew_ns = paths > 0 ? skew_sum / paths : 0.0;
  }
  m.memory_nets = analyze_memory_nets(d, routes, power);
  return m;
}

}  // namespace m3d::core
