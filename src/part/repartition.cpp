#include "part/repartition.hpp"

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"
#include "part/fm.hpp"
#include "route/route.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace m3d::part {

using netlist::kBottomTier;
using netlist::kInvalidId;
using netlist::kTopTier;

namespace {

// Algorithm 1's thresholds (names follow the paper's pseudocode).
/// Max |top−bottom|/total area unbalance the ECO may add.
constexpr double kUnbalanceTh = 0.15;
/// Initial delay-threshold multiplier d_k.
constexpr double kD0 = 1.2;
/// Paths examined per iteration (n_p).
constexpr int kNPaths = 50;
/// Stop when slow_crit/all_crit drops below this.
constexpr double kCritTh = 0.25;
/// Threshold tightening on rejected moves (d_k *= alpha).
constexpr double kAlpha = 0.7;
/// Required WNS improvement per iteration.
constexpr double kWnsTh = 0.0;
/// Required TNS improvement per iteration.
constexpr double kTnsTh = 0.0;

/// Slack-ordered candidate scan shared by rebalance_to_top and the ECO's
/// counterweight selection: bottom-tier std cells passing `keep`, keyed
/// (-slack, cell) so a plain sort yields most-slack-first with cell id as
/// the deterministic tiebreak. Gathered in chunk order on the pool —
/// byte-identical to the serial append loop at any pool size; the sort
/// key set is the same either way.
template <typename Keep>
std::vector<std::pair<double, CellId>> bottom_slack_cands(
    const Design& d, const sta::StaResult& timing, exec::Pool& pool,
    Keep&& keep) {
  constexpr int kChunk = 2048;
  const int nc = d.nl().cell_count();
  auto scan = [&](int ci, std::vector<std::pair<double, CellId>>& out) {
    const CellId c = ci;
    const auto& cc = d.nl().cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) return;
    if (d.tier(c) != kBottomTier) return;
    const double s = timing.cell_slack(c);
    if (!keep(c, s)) return;
    out.emplace_back(-s, c);
  };
  std::vector<std::pair<double, CellId>> cands =
      exec::ordered_gather<std::pair<double, CellId>>(pool, nc, kChunk, scan);
  std::sort(cands.begin(), cands.end());
  return cands;
}

}  // namespace

double tier_unbalance(const Design& d) {
  const double top = d.tier_std_cell_area(kTopTier);
  const double bottom = d.tier_std_cell_area(kBottomTier);
  const double total = top + bottom;
  return total > 0.0 ? std::abs(top - bottom) / total : 0.0;
}

int rebalance_to_top(Design& d, const sta::StaResult& timing,
                     double min_slack_ns, double utilization,
                     exec::Pool* pool, const sta::StaOptions& sta_opt) {
  M3D_CHECK(d.num_tiers() == 2);
  auto tier_req = [&](int tier) {
    double macro = 0.0;
    for (CellId c = 0; c < d.nl().cell_count(); ++c)
      if (d.nl().cell(c).is_macro() && d.tier(c) == tier)
        macro += d.cell_area(c);
    return d.tier_std_cell_area(tier) / utilization + macro * 1.05;
  };

  // Candidates: bottom-tier std cells, most slack first.
  exec::Pool& pl = exec::pool_or_global(pool);
  const std::vector<std::pair<double, CellId>> cands = bottom_slack_cands(
      d, timing, pl, [&](CellId, double s) {
        return std::isfinite(s) && s >= min_slack_ns;
      });

  // Batch-verified migration: move a slack-ordered batch, re-time, undo the
  // batch if WNS degraded (the 12T→9T remap costs ~2× per stage, so the
  // slack filter alone is not a safety proof). Re-timing is incremental:
  // one Sta instance persists across batches and only the moved cells'
  // cones (plus their re-estimated incident nets) are re-propagated.
  // Accept/undo decisions run on the guard-banded WNS: the worst corner
  // of a multi-corner spec, or exactly the nominal WNS when sta_opt is
  // single-corner (guard_wns() == wns() bitwise at K = 1).
  route::RoutingEstimate routes = route::route_design(d, {&pl});
  sta::Sta sta(d, &routes, sta_opt);
  const double wns_start = sta.run().guard_wns();
  auto retime_moved = [&](const std::vector<CellId>& moved_cells) {
    route::update_routes_for_cells(d, moved_cells, &routes, {&pl});
    return sta.retime(moved_cells).guard_wns();
  };
  // Migration may consume positive slack and even dip negative up to the
  // paper's own acceptance band (WNS within ~7 % of the period — its
  // hetero designs all sit a few percent below zero), but never degrade an
  // already-violating design further.
  const double wns_floor =
      std::min(wns_start, -0.08 * d.clock_period_ns());
  std::size_t batch = std::max<std::size_t>(40, cands.size() / 12);
  int moved = 0;
  double bottom = tier_req(kBottomTier);
  double top = tier_req(kTopTier);
  std::size_t i = 0;
  int attempts = 0;
  while (i < cands.size() && bottom > top && attempts++ < 48) {
    const std::size_t batch_start = i;
    std::vector<CellId> moved_batch;
    for (; i < cands.size() && moved_batch.size() < batch && bottom > top;
         ++i) {
      const CellId c = cands[i].second;
      const double a_b = cell_area_on(d, c, kBottomTier) / utilization;
      const double a_t = cell_area_on(d, c, kTopTier) / utilization;
      d.set_tier(c, kTopTier);
      bottom -= a_b;
      top += a_t;
      moved_batch.push_back(c);
    }
    if (moved_batch.empty()) break;
    const double wns = retime_moved(moved_batch);
    if (wns < wns_floor) {
      // One poisoned cell fails the whole batch: undo, shrink the batch
      // and retry from the same point to isolate it.
      for (CellId c : moved_batch) {
        d.set_tier(c, kBottomTier);
        bottom += cell_area_on(d, c, kBottomTier) / utilization;
        top -= cell_area_on(d, c, kTopTier) / utilization;
      }
      retime_moved(moved_batch);
      if (batch <= 8) {
        // Skip the poisoned head cell and continue with small batches.
        i = batch_start + 1;
        continue;
      }
      i = batch_start;
      batch /= 4;
      continue;
    }
    moved += static_cast<int>(moved_batch.size());
  }
  util::log_info("rebalance: ", moved, " slack-rich cells to the top tier");
  return moved;
}

RepartitionResult repartition_eco(Design& d, const RepartitionOptions& opt,
                                  const EcoHooks* hooks) {
  M3D_CHECK(d.num_tiers() == 2);
  RepartitionResult res;
  exec::Pool& pool = exec::pool_or_global(opt.pool);

  // One routing estimate and one Sta persist across the whole ECO: every
  // accept/reject re-times only the cone of the touched cells instead of
  // re-routing and re-propagating the entire design (the dominant cost of
  // Algorithm 1 as designs grow).
  route::RoutingEstimate routes = route::route_design(d, {&pool});
  sta::Sta sta(d, &routes, opt.sta);
  const sta::StaResult& timing = sta.run();
  auto retime_moved = [&](const std::vector<CellId>& moved_cells) {
    route::update_routes_for_cells(d, moved_cells, &routes, {&pool});
    sta.retime(moved_cells);
  };
  // Variation-aware accept metric: guard-banded (worst-over-corners)
  // WNS/TNS, which degenerate to the nominal values bitwise when the ECO's
  // StaOptions carry a single corner — decisions are unchanged then.
  res.wns_before = timing.guard_wns();
  res.tns_before = timing.guard_tns();
  double wns = res.wns_before;
  double tns = res.tns_before;

  double d_k = kD0;
  const int n_p = kNPaths;

  // The budget bounds how far the ECO may *push* the tier balance away
  // from wherever the partitioner left it (which is deliberately offset
  // when macros occupy the bottom tier).
  double initial_unbalance = tier_unbalance(d);

  if (hooks && hooks->resume) {
    // Checkpoint resume: the design is already the snapshot taken at an
    // iteration boundary, and the full run() above rebuilt the timing
    // view the interrupted run was holding incrementally — assert that
    // equivalence before trusting it, then pick up the loop state.
    const EcoIterState& st = *hooks->resume;
    M3D_CHECK_MSG(sta::timing_fingerprint(timing) == st.sta_fingerprint,
                  "ECO resume: rebuilt STA state does not match checkpoint");
    res = st.partial;
    d_k = st.d_k;
    wns = st.wns;
    tns = st.tns;
    initial_unbalance = st.initial_unbalance;
  }

  while (res.iterations < opt.max_iters &&
         tier_unbalance(d) - initial_unbalance <= kUnbalanceTh) {
    ++res.iterations;

    // Average stage delay over the n_p worst paths sets the threshold.
    const auto paths = timing.worst_paths(n_p);
    if (paths.empty()) break;
    double delay_sum = 0.0;
    long long stage_count = 0;
    for (const auto& p : paths)
      for (const auto& st : p.stages) {
        if (st.cell == kInvalidId || st.out_pin == kInvalidId) continue;
        delay_sum += st.cell_delay_ns;
        ++stage_count;
      }
    if (stage_count == 0) break;
    const double d_th = d_k * (delay_sum / static_cast<double>(stage_count));

    // Collect critical cells above the threshold; count slow-die share.
    int all_crit = 0, slow_crit = 0;
    std::vector<CellId> move_list;
    std::vector<char> in_list(
        static_cast<std::size_t>(d.nl().cell_count()), 0);
    for (const auto& p : paths)
      for (const auto& st : p.stages) {
        if (st.cell == kInvalidId || st.out_pin == kInvalidId) continue;
        const auto& cc = d.nl().cell(st.cell);
        if (!cc.is_comb() && !cc.is_sequential()) continue;
        if (st.cell_delay_ns <= d_th) continue;
        if (in_list[static_cast<std::size_t>(st.cell)]) continue;
        in_list[static_cast<std::size_t>(st.cell)] = 1;
        ++all_crit;
        if (d.tier(st.cell) == kTopTier) {
          ++slow_crit;
          move_list.push_back(st.cell);
        }
      }

    if (all_crit == 0 ||
        static_cast<double>(slow_crit) / all_crit < kCritTh) {
      util::log_info("repartition: critical cells now fast-die dominated (",
                     slow_crit, "/", all_crit, "), stopping");
      break;
    }
    if (move_list.empty()) break;

    // Counterweights: the ECO is a *swap*, not a one-way migration — an
    // equal area of the most slack-rich bottom cells rides to the top
    // tier so the fast die does not outgrow the footprint.
    double area_added = 0.0;
    for (CellId c : move_list)
      area_added += cell_area_on(d, c, kBottomTier);
    const double counter_min_slack = 0.05 * d.clock_period_ns();
    const std::vector<std::pair<double, CellId>> counter_cands =
        bottom_slack_cands(d, timing, pool, [&](CellId c, double s) {
          return !in_list[static_cast<std::size_t>(c)] &&
                 std::isfinite(s) && s >= counter_min_slack;
        });
    std::vector<CellId> counter_list;
    double area_removed = 0.0;
    for (const auto& [neg_s, c] : counter_cands) {
      if (area_removed >= area_added) break;
      counter_list.push_back(c);
      area_removed += cell_area_on(d, c, kBottomTier);
    }

    // Move to the fast die (ECO), swap counterweights up, re-time
    // incrementally over the touched cells' cones.
    std::vector<CellId> touched = move_list;
    touched.insert(touched.end(), counter_list.begin(), counter_list.end());
    for (CellId c : move_list) d.set_tier(c, kBottomTier);
    for (CellId c : counter_list) d.set_tier(c, kTopTier);
    retime_moved(touched);
    const double new_wns = timing.guard_wns();
    const double new_tns = timing.guard_tns();

    if (new_wns - wns < kWnsTh || new_tns - tns < kTnsTh) {
      // Not enough improvement: undo and tighten the threshold.
      for (CellId c : move_list) d.set_tier(c, kTopTier);
      for (CellId c : counter_list) d.set_tier(c, kBottomTier);
      res.moves_undone += static_cast<int>(move_list.size());
      d_k *= kAlpha;
      retime_moved(touched);
      util::log_debug("repartition iter ", res.iterations,
                      ": undone (wns ", new_wns, " vs ", wns, "), d_k=", d_k);
    } else {
      res.cells_moved += static_cast<int>(move_list.size());
      wns = new_wns;
      tns = new_tns;
      util::log_debug("repartition iter ", res.iterations, ": moved ",
                      move_list.size(), " cells (+",
                      counter_list.size(), " counterweights up), wns=", wns);
    }
    if (util::trace_enabled()) {
      // ECO convergence tracks for chrome://tracing: WNS/TNS and the
      // cumulative accepted moves, sampled once per iteration.
      util::trace_counter("eco_wns_ns", wns);
      util::trace_counter("eco_tns_ns", tns);
      util::trace_counter("eco_cells_moved",
                          static_cast<double>(res.cells_moved));
      util::trace_counter("eco_moves_undone",
                          static_cast<double>(res.moves_undone));
    }
    if (hooks && hooks->after_iteration) {
      EcoIterState st;
      st.partial = res;
      st.d_k = d_k;
      st.wns = wns;
      st.tns = tns;
      st.initial_unbalance = initial_unbalance;
      st.sta_fingerprint = sta::timing_fingerprint(timing);
      hooks->after_iteration(d, st);
    }
  }

  res.wns_after = wns;
  res.tns_after = tns;
  res.final_unbalance = tier_unbalance(d);
  util::log_info("repartition ECO: ", res.cells_moved, " cells to fast die, ",
                 res.moves_undone, " undone, wns ", res.wns_before, " -> ",
                 res.wns_after);
  return res;
}

}  // namespace m3d::part
