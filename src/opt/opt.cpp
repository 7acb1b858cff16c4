#include "opt/opt.hpp"

#include <algorithm>
#include <cmath>

#include "route/route.hpp"
#include "tech/library_factory.hpp"
#include "util/log.hpp"

namespace m3d::opt {

using netlist::Cell;
using netlist::kInvalidId;
using netlist::PinId;
using util::Point;

namespace {

/// Drive strength of the fanout buffers and repeaters optimize_timing
/// inserts.
constexpr int kBufferDrive = 4;

/// Slew limit as a multiple of the driving library's FO-4 delay (slow
/// libraries get proportionally relaxed limits, as real low-power corners
/// do — a fixed ns limit would force the 9-track tier into blanket
/// upsizing and erase its area/power advantage).
constexpr double kMaxTransitionFo4 = 8.0;

bool sizable(const Design& d, CellId c) {
  const Cell& cc = d.nl().cell(c);
  if (!cc.is_comb() && !cc.is_sequential()) return false;
  // Leave clock distribution to CTS.
  for (PinId p : cc.pins) {
    const auto n = d.nl().pin(p).net;
    if (n != kInvalidId && d.nl().net(n).is_clock) {
      if (cc.is_comb()) return false;  // clock buffer
    }
  }
  return true;
}

/// Every library carries the same drive ladder, so a drive chosen through
/// the cell's current tier is valid on the other tier as well.
int next_drive_up(const Design& d, CellId c) {
  const Cell& cc = d.nl().cell(c);
  return d.lib_of(c).upsize(cc.func, cc.drive);
}

int next_drive_down(const Design& d, CellId c) {
  const Cell& cc = d.nl().cell(c);
  return d.lib_of(c).downsize(cc.func, cc.drive);
}

}  // namespace

int insert_fanout_buffers(Design& d, int max_fanout, int buffer_drive) {
  M3D_CHECK(max_fanout >= 2);
  auto& nl = d.nl();
  int added = 0;
  const int original_nets = nl.net_count();
  std::vector<PinId> sinks;
  for (NetId n = 0; n < original_nets; ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.driver == kInvalidId) continue;
    nl.sinks_into(n, sinks);
    if (static_cast<int>(sinks.size()) <= max_fanout) continue;

    const int groups = static_cast<int>(
        std::ceil(static_cast<double>(sinks.size()) / max_fanout));
    const int per_group = static_cast<int>(
        std::ceil(static_cast<double>(sinks.size()) / groups));

    // Cluster sinks spatially (by x then y) so each buffer serves a
    // coherent region rather than a random sample.
    std::vector<PinId> ordered = sinks;
    std::sort(ordered.begin(), ordered.end(), [&](PinId a, PinId b) {
      const Point pa = d.pin_pos(a), pb = d.pin_pos(b);
      return pa.x != pb.x ? pa.x < pb.x : pa.y < pb.y;
    });

    const CellId drv_cell = nl.pin(net.driver).cell;
    const double act = net.activity;
    for (int g = 0; g < groups; ++g) {
      const std::size_t lo = static_cast<std::size_t>(g * per_group);
      const std::size_t hi = std::min(ordered.size(),
                                      static_cast<std::size_t>((g + 1) *
                                                               per_group));
      if (lo >= hi) break;
      const CellId buf = nl.add_comb("fobuf_" + std::to_string(n) + "_" +
                                         std::to_string(g),
                                     tech::CellFunc::Buf, buffer_drive,
                                     nl.cell(drv_cell).block);
      const NetId bnet =
          nl.add_net("fonet_" + std::to_string(n) + "_" + std::to_string(g));
      nl.set_activity(bnet, act);
      Point centroid{0.0, 0.0};
      for (std::size_t i = lo; i < hi; ++i) {
        const PinId s = ordered[i];
        centroid = centroid + d.pin_pos(s);
        nl.disconnect(s);
        nl.connect(bnet, s);
      }
      nl.connect(bnet, nl.output_pin(buf));
      nl.connect(n, nl.input_pin(buf, 0));
      d.sync(d.tier(drv_cell));
      d.set_tier(buf, d.tier(drv_cell));
      d.set_pos(buf, centroid * (1.0 / static_cast<double>(hi - lo)));
      ++added;
    }
  }
  if (added > 0) util::log_info("fanout buffering: ", added, " buffers");
  return added;
}

int insert_wire_repeaters(Design& d, double max_seg_um, int drive) {
  M3D_CHECK(max_seg_um > 5.0);
  auto& nl = d.nl();
  int added = 0;
  const int original_nets = nl.net_count();
  route::RouteScratch scratch;
  std::vector<PinId> sinks;
  for (NetId n = 0; n < original_nets; ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.driver == kInvalidId) continue;
    const auto route = route::route_net(d, n, scratch);
    nl.sinks_into(n, sinks);
    const Point drv_pos = d.pin_pos(net.driver);
    const int drv_tier = d.tier(nl.pin(net.driver).cell);
    // Copy before add_comb/add_net below: they may reallocate the net
    // array and invalidate `net`.
    const double activity = net.activity;

    // Collect the sinks whose tree path is too long; one repeater serves
    // all of them (placed at their centroid's midpoint toward the driver).
    std::vector<PinId> far;
    Point centroid{0.0, 0.0};
    for (std::size_t i = 0;
         i < sinks.size() && i < route.sink_path_um.size(); ++i) {
      if (route.sink_path_um[i] <= max_seg_um) continue;
      far.push_back(sinks[i]);
      centroid = centroid + d.pin_pos(sinks[i]);
    }
    if (far.empty()) continue;
    centroid = centroid * (1.0 / static_cast<double>(far.size()));
    const Point mid = (drv_pos + centroid) * 0.5;

    const CellId rep = nl.add_comb("wrep_" + std::to_string(n),
                                   tech::CellFunc::Buf, drive,
                                   nl.cell(nl.pin(net.driver).cell).block);
    const NetId rnet = nl.add_net("wrepnet_" + std::to_string(n));
    nl.set_activity(rnet, activity);
    for (PinId s : far) {
      nl.disconnect(s);
      nl.connect(rnet, s);
    }
    nl.connect(rnet, nl.output_pin(rep));
    nl.connect(n, nl.input_pin(rep, 0));
    d.sync(drv_tier);
    d.set_tier(rep, drv_tier);
    d.set_pos(rep, d.floorplan().clamp(mid));
    ++added;
  }
  if (added > 0) util::log_info("wire repeaters: ", added, " inserted");
  return added;
}

namespace {

/// Effective output resistance (ns per fF of load) extracted from the
/// rise-delay NLDM slope.
double effective_res(const tech::LibCell& lc) {
  const auto& t = lc.arc(0).delay[static_cast<int>(tech::Transition::Rise)];
  return (t.lookup(0.02, 32.0) - t.lookup(0.02, 8.0)) / 24.0;
}

/// Load on a cell's output net: sink pins plus an HPWL-based wire-cap
/// estimate. Wire cap routinely dominates pin cap on placed designs, so
/// excluding it would make the upsizing benefit test blind to exactly the
/// nets that need driving.
double output_pin_load(const Design& d, CellId c) {
  const auto outs = d.nl().output_pins_of(c);
  if (outs.empty()) return 0.0;
  const auto n = d.nl().pin(outs[0]).net;
  if (n == kInvalidId) return 0.0;
  double load = 0.0;
  d.nl().for_each_sink(n, [&](PinId s) { load += d.pin_cap_ff(s); });
  load += d.lib(netlist::kBottomTier)
              .wire()
              .wire_cap_ff(route::hpwl(d, n));
  return load;
}

}  // namespace

int upsize_critical(Design& d, const sta::StaResult& timing,
                    double slack_threshold, std::vector<CellId>* resized) {
  int changed = 0;
  auto& nl = d.nl();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!sizable(d, c)) continue;
    if (timing.cell_slack(c) >= slack_threshold) continue;
    const int up = next_drive_up(d, c);
    if (up < 0) continue;

    // Benefit check: the self-delay saved on this cell's load must beat
    // the extra delay its heavier input pins inflict on the drivers.
    // Blind upsizing cascades input capacitance up the cone and makes
    // every stage slower.
    const tech::TechLib& lib = d.lib_of(c);
    const tech::LibCell* cur = d.lib_cell(c);
    const tech::LibCell* next = lib.find(nl.cell(c).func, up);
    M3D_CHECK(next != nullptr);
    const double load = output_pin_load(d, c);
    const double gain = (effective_res(*cur) - effective_res(*next)) * load;
    const double d_cin = next->input_cap_ff - cur->input_cap_ff;
    double penalty = 0.0;
    for (PinId p : nl.input_pins_of(c)) {
      const auto n = nl.pin(p).net;
      if (n == kInvalidId || nl.net(n).driver == kInvalidId) continue;
      const CellId drv = nl.pin(nl.net(n).driver).cell;
      const tech::LibCell* dl = d.lib_cell(drv);
      if (dl == nullptr) continue;  // port or macro driver: cheap
      // Slower drivers only matter if they are on critical paths too;
      // loading a slack-rich driver is free.
      if (timing.cell_slack(drv) >= slack_threshold + 0.03) continue;
      penalty += effective_res(*dl) * d_cin;
    }
    if (gain <= penalty) continue;

    nl.set_drive(c, up);
    if (resized != nullptr) resized->push_back(c);
    ++changed;
  }
  return changed;
}

int fix_max_transition(Design& d, const sta::StaResult& timing,
                       double max_tran_fo4, std::vector<CellId>* resized) {
  int changed = 0;
  auto& nl = d.nl();
  // Per-tier slew limits derived from each library's own speed.
  std::vector<double> limit(static_cast<std::size_t>(d.num_tiers()));
  for (int t = 0; t < d.num_tiers(); ++t)
    limit[static_cast<std::size_t>(t)] =
        max_tran_fo4 * tech::fo4_delay_ns(d.lib(t));
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.driver == kInvalidId) continue;
    double worst = 0.0;
    nl.for_each_sink(n,
                     [&](PinId s) { worst = std::max(worst, timing.pin_slew(s)); });
    const CellId drv = nl.pin(net.driver).cell;
    if (worst <= limit[static_cast<std::size_t>(d.tier(drv))]) continue;
    if (!sizable(d, drv)) continue;
    const int up = next_drive_up(d, drv);
    if (up < 0) continue;
    nl.set_drive(drv, up);
    if (resized != nullptr) resized->push_back(drv);
    ++changed;
  }
  return changed;
}

int recover_power(Design& d, const sta::StaResult& timing,
                  double slack_threshold, std::vector<CellId>* resized) {
  int changed = 0;
  auto& nl = d.nl();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!sizable(d, c)) continue;
    if (timing.cell_slack(c) <= slack_threshold) continue;
    const int down = next_drive_down(d, c);
    if (down < 0) continue;
    nl.set_drive(c, down);
    if (resized != nullptr) resized->push_back(c);
    ++changed;
  }
  return changed;
}

OptResult optimize_timing(Design& d, const OptOptions& opt) {
  OptResult res;
  res.buffers_added = insert_fanout_buffers(d, opt.max_fanout, kBufferDrive);
  // Repeaters only make sense once positions exist (post-placement).
  if (opt.routed)
    res.buffers_added +=
        insert_wire_repeaters(d, opt.max_wire_um, kBufferDrive);

  // Those were the only topology edits. From here on only drive strengths
  // change, which moves no cell and edits no net: the one route estimate
  // stays exact, and the one engine retimes just the resized cells —
  // bitwise what a fresh route + full STA would report (see sta::Sta).
  route::RoutingEstimate routes;
  if (opt.routed) routes = route::route_design(d, {opt.sta.pool});
  sta::Sta sta(d, opt.routed ? &routes : nullptr, opt.sta);
  // The engine's live result: every retime() below updates it in place.
  const sta::StaResult& timing = sta.run();
  res.wns_before = timing.wns();

  std::vector<CellId> resized;
  for (int round = 0; round < opt.max_sizing_rounds; ++round) {
    resized.clear();
    int changed = fix_max_transition(d, timing, kMaxTransitionFo4, &resized);
    if (timing.wns() < opt.target_slack_ns)
      changed += upsize_critical(d, timing, opt.target_slack_ns, &resized);
    res.cells_upsized += changed;
    if (changed == 0) break;
    sta.retime(resized);
    util::log_debug("sizing round ", round, ": ", changed,
                    " upsized, wns=", timing.wns());
  }

  const double recovery_threshold =
      opt.recovery_slack_frac * d.clock_period_ns();
  for (int round = 0; round < opt.power_recovery_rounds; ++round) {
    resized.clear();
    const int changed = recover_power(d, timing, recovery_threshold, &resized);
    res.cells_downsized += changed;
    if (changed == 0) break;
    sta.retime(resized);
    // Downsizing must never break timing it was told to preserve; if it
    // did (shared nets shifted), one upsizing round repairs it.
    if (timing.wns() < res.wns_before) {
      resized.clear();
      upsize_critical(d, timing, opt.target_slack_ns, &resized);
      sta.retime(resized);
    }
  }

  res.wns_after = timing.wns();
  util::log_info("optimize_timing: wns ", res.wns_before, " -> ",
                 res.wns_after, " (", res.cells_upsized, " up, ",
                 res.cells_downsized, " down, ", res.buffers_added,
                 " buffers)");
  return res;
}

}  // namespace m3d::opt
