#include "core/flow.hpp"

#include <cstdio>
#include <memory>

#include "core/checkpoint.hpp"
#include "cost/cost.hpp"
#include "exec/flow_cache.hpp"
#include "part/fm.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace m3d::core {

using netlist::Design;
using netlist::kBottomTier;
using netlist::kTopTier;
using netlist::Netlist;

const char* config_name(Config c) {
  switch (c) {
    case Config::TwoD9T: return "2D-9T";
    case Config::TwoD12T: return "2D-12T";
    case Config::ThreeD9T: return "3D-9T";
    case Config::ThreeD12T: return "3D-12T";
    case Config::Hetero3D: return "Hetero-3D";
  }
  return "?";
}

bool config_is_3d(Config c) {
  return c == Config::ThreeD9T || c == Config::ThreeD12T ||
         c == Config::Hetero3D;
}

Design design_for_config(const Netlist& nl, Config cfg) {
  switch (cfg) {
    case Config::TwoD9T:
      return Design(nl, tech::make_9track());
    case Config::TwoD12T:
      return Design(nl, tech::make_12track());
    case Config::ThreeD9T:
      return Design(nl, tech::make_9track(), tech::make_9track());
    case Config::ThreeD12T:
      return Design(nl, tech::make_12track(), tech::make_12track());
    case Config::Hetero3D:
      return Design(nl, tech::make_12track(), tech::make_9track());
  }
  M3D_CHECK(false);
  return Design(nl, tech::make_12track());
}

Design design_for_flow(const Netlist& nl, Config cfg,
                       const FlowOptions& opt) {
  if (opt.tiers.empty()) return design_for_config(nl, cfg);
  std::vector<std::shared_ptr<const tech::TechLib>> libs;
  libs.reserve(opt.tiers.size());
  for (const TierSpec& t : opt.tiers) {
    M3D_CHECK_MSG(t.tech == "9T" || t.tech == "12T",
                  "unknown tier tech '" << t.tech << "'");
    tech::LibSpec spec =
        t.tech == "9T" ? tech::spec_9track() : tech::spec_12track();
    if (t.vdd_scale != 1.0) {
      M3D_CHECK_MSG(t.vdd_scale > 0.0, "vdd_scale must be positive");
      spec.vdd *= t.vdd_scale;
      char buf[32];
      std::snprintf(buf, sizeof buf, "_v%.3f", t.vdd_scale);
      spec.name += buf;
    }
    libs.push_back(
        std::make_shared<const tech::TechLib>(tech::make_library(spec)));
  }
  return Design(nl, std::move(libs));
}

namespace {

/// Propagate the flow-level pool into every nested options struct that
/// carries its own, unless the caller already named one there.
FlowOptions with_pool(FlowOptions o) {
  if (o.pool == nullptr) return o;
  if (o.place.pool == nullptr) o.place.pool = o.pool;
  if (o.fm.pool == nullptr) o.fm.pool = o.pool;
  if (o.opt.sta.pool == nullptr) o.opt.sta.pool = o.pool;
  if (o.repart.sta.pool == nullptr) o.repart.sta.pool = o.pool;
  if (o.repart.pool == nullptr) o.repart.pool = o.pool;
  if (o.cts.pool == nullptr) o.cts.pool = o.pool;
  return o;
}

/// Propagate the flow-level corner spec into the ECO's STA options: the
/// repartition loop is the flow's variation-aware stage (guard-banded
/// accept metric). The synth/opt/partition-stage STAs deliberately stay
/// single-corner — see FlowOptions::sta_corners.
FlowOptions with_corners(FlowOptions o) {
  if (o.repart.sta.corners == tech::CornerSpec{})
    o.repart.sta.corners = o.sta_corners;
  return o;
}

/// FM options for the partition stage: µ, the utilization and the
/// per-tier caps/process shares from the flow-level knobs. A two-tier
/// stack without explicit shares gets the macro-aware pair {1 − t, t}:
/// with macros split across tiers, equal plan-view occupation means the
/// tier holding less macro area carries extra cells.
part::FmOptions partition_fm_options(const Design& d, const FlowOptions& opt) {
  part::FmOptions fm = opt.fm;
  fm.cost_weight = opt.part_cost_weight;
  fm.utilization = opt.utilization;
  if (!opt.tiers.empty()) {
    M3D_CHECK(static_cast<int>(opt.tiers.size()) == d.num_tiers());
    fm.tier_area_cap_um2.clear();
    fm.tier_process.clear();
    for (const TierSpec& t : opt.tiers) {
      fm.tier_area_cap_um2.push_back(t.area_cap_um2);
      fm.tier_process.push_back(t.process);
    }
    bool any_cap = false;
    for (double c : fm.tier_area_cap_um2) any_cap |= c > 0.0;
    if (!any_cap) fm.tier_area_cap_um2.clear();
  }
  if (d.num_tiers() == 2 && fm.tier_share.empty()) {
    double top = 0.5;
    const double cells = d.total_std_cell_area();
    const double mb = place::tier_macro_area(d, kBottomTier);
    const double mt = place::tier_macro_area(d, kTopTier);
    if (cells > 0.0 && (mb > 0.0 || mt > 0.0))
      top = std::clamp(
          0.5 + opt.utilization * 1.05 * (mb - mt) / (2.0 * cells), 0.1, 0.9);
    fm.tier_share = {1.0 - top, top};
  }
  return fm;
}

/// A fresh route of the design and a full STA on it.
struct RoutedTiming {
  sta::StaOptions sopt;
  route::RoutingEstimate routes;
  sta::StaResult timing;
};

/// Route `d`, then time it over `corners`, both on `pool`: the Hetero-3D
/// partition stage (single-corner), the rebalance and finalize.
RoutedTiming route_and_time(const Design& d, exec::Pool* pool,
                            const tech::CornerSpec& corners) {
  RoutedTiming t;
  t.sopt.pool = pool;
  t.sopt.corners = corners;
  t.routes = route::route_design(d, {pool});
  t.timing = sta::run_sta(d, &t.routes, t.sopt);
  return t;
}

}  // namespace

void finalize(FlowResult& res, Config cfg, const FlowOptions& opt) {
  // The signoff STA sweeps the flow's corner spec, so the metrics carry
  // the guard-banded WNS and the timing yield.
  const Design& d = res.design;
  const std::string& name = d.nl().name();
  util::TraceSpan span("finalize", name);
  const RoutedTiming rt = route_and_time(d, opt.pool, opt.sta_corners);
  power::PowerOptions popt;
  popt.pool = opt.pool;
  const auto pw =
      power::analyze_power(d, &rt.routes, 1.0 / d.clock_period_ns(), popt);
  res.metrics = collect_metrics(d, rt.routes, rt.timing, pw, res.clock, name,
                                config_name(cfg));
}

FlowResult run_flow(const Netlist& nl, Config cfg, const FlowOptions& opt_in) {
  const FlowOptions opt = with_corners(with_pool(opt_in));
  util::TraceSpan flow_span(
      "flow", std::string(config_name(cfg)) + " " + nl.name());
  util::log_info("=== flow ", config_name(cfg), " on ", nl.name(), " @ ",
                 1.0 / opt.clock_period_ns, " GHz ===");
  FlowResult res(design_for_flow(nl, cfg, opt));
  res.design.set_clock_period_ns(opt.clock_period_ns);

  // Stage-level checkpoint/restart (core/checkpoint.hpp). Inactive without
  // a directory; with one, every completed stage below lands on disk and
  // resume() fast-forwards `res` (design included) past the stages a
  // previous (interrupted) identical invocation already ran. Each stage is
  // a deterministic function of (design state, options) — RNG streams are
  // seeded from options, never carried across stages — so the resumed run
  // is byte-identical to an uninterrupted one.
  flow::Checkpoint ckpt(!opt.checkpoint_dir.empty()
                            ? opt.checkpoint_dir
                            : flow::Checkpoint::default_dir(),
                        nl, cfg, opt);
  ckpt.resume(res);
  Design& d = res.design;

  // The one stage boundary. A stage the restored checkpoint completed is
  // skipped; any other runs its body under a trace span of the stage's
  // name, then writes its checkpoint and passes its kill point.
  const auto stage = [&](flow::Stage s, const auto& body) {
    if (ckpt.done(s)) return;
    {
      util::TraceSpan span(flow::stage_name(s), nl.name());
      body();
    }
    ckpt.save(s, res);
  };

  // ---- synthesis-like stage ------------------------------------------------
  // Zero-wire sizing/buffering toward the frequency target *before* the
  // floorplan is cut: the floorplan is then sized from the synthesized
  // area (paper §IV-A2). Driving the slow 9-track library to a 12-track
  // frequency target over-corrects here, inflating its chip area.
  stage(flow::Stage::Synth, [&] {
    opt::OptOptions synth = opt.opt;
    synth.routed = false;
    res.opt = opt::optimize_timing(d, synth);
  });

  // ---- pseudo-3-D / 2-D placement stage ----------------------------------
  stage(flow::Stage::Place, [&] {
    place::PlaceOptions popt = opt.place;
    popt.utilization = opt.utilization;
    place::init_floorplan(d, popt);
    place::global_place(d, popt);
  });

  // ---- tier partitioning (3-D) + legalization ------------------------------
  stage(flow::Stage::Partition, [&] {
    if (d.num_tiers() >= 2) {
      const part::FmOptions fm = partition_fm_options(d, opt);
      if (cfg == Config::Hetero3D && d.num_tiers() == 2) {
        // Pseudo-3-D knows only the 12-track bottom technology. Partition
        // with timing awareness (unless ablated), then restore utilization:
        // the 9-track remap shrank the cell area ~12.5 %.
        // Timing below runs on the (overlapping) global placement —
        // legalizing the whole netlist into the folded footprint before
        // partitioning would scatter it at ~2x density and wreck the
        // placement. Legality only exists per tier, after the fold.
        const RoutedTiming rt = route_and_time(d, opt.pool, {});
        if (opt.enable_timing_partition) {
          part::TimingPartitionOptions tp = opt.timing_part;
          tp.fm = fm;
          if (opt.path_based_criticality) {
            res.timing_part = part::timing_partition_path_based(
                d, rt.timing, opt.path_based_paths, tp);
          } else {
            res.timing_part = part::timing_partition(d, rt.timing, tp);
          }
        } else {
          res.timing_part.cut = part::bin_fm_partition(d, fm);
        }
        place::rescale_to_utilization(d, opt.utilization);
      } else {
        // Homogeneous 3-D (any stack height): placement-driven bin FM.
        part::bin_fm_partition(d, fm);
      }
    }
    place::legalize(d);
  });

  // ---- post-placement timing optimization ---------------------------------
  stage(flow::Stage::PostPlaceOpt, [&] {
    opt::OptOptions oopt = opt.opt;
    oopt.routed = true;
    // The heterogeneous design is accepted at WNS within ~5-7 % of the
    // period (the paper's own hetero runs all sit slightly negative);
    // optimizing it to zero would over-correct — blanket-upsizing the slow
    // tier and erasing the area/power benefit heterogeneity exists for.
    if (cfg == Config::Hetero3D)
      oopt.target_slack_ns = -0.04 * opt.clock_period_ns;
    const auto post = opt::optimize_timing(d, oopt);
    res.opt.cells_upsized += post.cells_upsized;
    res.opt.cells_downsized += post.cells_downsized;
    res.opt.buffers_added += post.buffers_added;
    res.opt.wns_after = post.wns_after;
    // Sizing changed cell area; restore the utilization target.
    place::rescale_to_utilization(d, opt.utilization);
    place::legalize(d);
  });

  // ---- clock tree ----------------------------------------------------------
  // The 3-D mode and the trunk tier follow from the configuration alone;
  // a 2-D configuration keeps the CtsOptions defaults (the CTS reads both
  // only on two-tier designs).
  cts::CtsOptions copt = opt.cts;
  if (cfg == Config::Hetero3D) {
    copt.mode = opt.enable_cover_cts ? cts::Mode3D::CoverCell
                                     : cts::Mode3D::PerDie;
    copt.prefer_low_power_trunk = opt.enable_cover_cts;
  } else if (config_is_3d(cfg)) {
    copt.mode = cts::Mode3D::CoverCell;
    copt.prefer_low_power_trunk = false;  // homogeneous: no power asymmetry
  } else {
    copt.mode = cts::CtsOptions{}.mode;
    copt.prefer_low_power_trunk = cts::CtsOptions{}.prefer_low_power_trunk;
  }
  // Every stage from here on ends the same way: re-legalize what it moved
  // or resized, then refresh the clock latencies. res.clock keeps the
  // last annotation's report for the metrics.
  const auto legalize_and_annotate = [&] {
    place::legalize(d);
    res.clock = cts::annotate_clock_latencies(d, copt.pool);
  };
  stage(flow::Stage::Cts, [&] {
    cts::build_clock_tree(d, copt);
    legalize_and_annotate();
  });

  // ---- post-CTS optimization ----------------------------------------------
  // The pre-CTS power recovery ran against stale wire loads (the floorplan
  // rescale and the clock tree both moved things); repair slew and setup
  // without further recovery, as commercial flows do after CTS.
  stage(flow::Stage::PostCtsOpt, [&] {
    opt::OptOptions post = opt.opt;
    post.routed = true;
    post.max_sizing_rounds = 2;
    if (cfg == Config::Hetero3D)
      post.target_slack_ns = -0.04 * opt.clock_period_ns;
    post.power_recovery_rounds = 0;
    post.max_fanout = 0x7fffffff;  // no topology changes after CTS
    post.max_wire_um = 1e9;
    const auto fix = opt::optimize_timing(d, post);
    res.opt.cells_upsized += fix.cells_upsized;
    legalize_and_annotate();
  });

  // ---- repartitioning ECO (hetero only; the engine is two-tier) -----------
  if (cfg == Config::Hetero3D && d.num_tiers() == 2 &&
      opt.enable_repartition) {
    stage(flow::Stage::RepartEco, [&] {
      const part::EcoHooks hooks =
          ckpt.eco_hooks(flow::Stage::RepartEco, res);
      res.repart = part::repartition_eco(d, opt.repart, &hooks);
    });
    // Counter-move: park slack-rich bottom cells on the 9-track tier so
    // the fast die does not balloon the footprint (and the slow die does
    // the power saving it exists for). A 12T→9T remap roughly doubles the
    // stage delay, so only cells with a comfortable margin qualify; a
    // second ECO pass pulls back anything that turned critical anyway.
    stage(flow::Stage::Rebalance, [&] {
      const RoutedTiming rt = route_and_time(d, opt.pool, opt.sta_corners);
      part::rebalance_to_top(d, rt.timing, 0.05 * d.clock_period_ns(),
                             opt.utilization, opt.pool, rt.sopt);
      place::rescale_to_utilization(d, opt.utilization);
      legalize_and_annotate();
    });
    // Final ECO pass at settled positions: pull back anything the
    // migration or the rescale shake-up turned critical.
    stage(flow::Stage::RepartFixup, [&] {
      part::RepartitionOptions fixup = opt.repart;
      fixup.max_iters = 4;
      const part::EcoHooks hooks =
          ckpt.eco_hooks(flow::Stage::RepartFixup, res);
      part::repartition_eco(d, fixup, &hooks);
      legalize_and_annotate();
    });
  }

  finalize(res, cfg, opt);
  ckpt.finish();
  util::log_info("=== ", config_name(cfg), " done: wns ",
                 res.metrics.wns_ns, " ns, power ",
                 res.metrics.total_power_mw, " mW, WL ",
                 res.metrics.wirelength_m, " m ===");
  return res;
}

double find_max_frequency(const Netlist& nl, Config cfg, FlowOptions opt,
                          double lo_ghz, double hi_ghz, int iters,
                          double wns_budget_frac, const exec::Ctx* ctx) {
  M3D_CHECK(lo_ghz > 0.0 && hi_ghz > lo_ghz);
  util::TraceSpan search_span("find_max_frequency", nl.name());
  const exec::Ctx defaults;
  if (!ctx) ctx = &defaults;
  exec::FlowCache& cache = ctx->cache_or_global();

  auto eval = [&](double ghz) {
    FlowOptions o = opt;
    o.clock_period_ns = 1.0 / ghz;
    const auto res = cache.get_or_run(nl, cfg, o);
    // Variation-aware "timing met": the worst corner's WNS must fit the
    // budget. Equal to wns_ns when the flow runs single-corner.
    return -res->metrics.wns_worst_corner_ns <=
           wns_budget_frac * o.clock_period_ns;
  };

  // The paper sweeps 12-track 2-D frequencies and accepts designs whose
  // WNS stays within ~5–7 % of the period. Binary search on that rule.
  double lo = lo_ghz, hi = hi_ghz;
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (eval(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace m3d::core
