#pragma once
/// \file repartition.hpp
/// \brief Repartitioning via ECO (paper §III-C, Algorithm 1).
///
/// After the 3-D database exists, the pseudo-3-D timing that drove the
/// initial partition is stale: the pseudo stage knew only one technology.
/// Algorithm 1 walks the current critical paths, finds cells whose stage
/// delay exceeds a threshold *and* that sit on the slow tier, moves them to
/// the fast tier as an ECO, and keeps the move only if WNS/TNS improve.
/// On a rejected move the delay threshold is tightened (d_k *= alpha) so
/// only the very slowest offenders are retried. The loop stops when
///  * the slow-tier share of critical cells drops below crit_th (the
///    critical population now lives on the fast die), or
///  * the tier-area unbalance budget is exhausted, or
///  * max_iters is hit.

#include <cstdint>
#include <functional>

#include "netlist/design.hpp"
#include "sta/sta.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::part {

using netlist::CellId;
using netlist::Design;

/// Algorithm 1 knobs. Its thresholds (unbalance_th, d0, n_p, crit_th,
/// alpha, wns_th, tns_th) are constants in repartition.cpp.
struct RepartitionOptions {
  int max_iters = 12;
  sta::StaOptions sta;         ///< timing options for the ECO updates
  /// Worker pool for the per-iteration candidate scans (counterweight
  /// selection) and for routing and re-routing the design; nullptr means
  /// exec::Pool::global(). The scans gather in deterministic chunk order
  /// and routes are per-net slots, so results are byte-identical at any
  /// pool size and the field is excluded from flow-cache option hashes.
  /// The STA runs on `sta.pool`.
  exec::Pool* pool = nullptr;
};

/// Outcome diagnostics.
struct RepartitionResult {
  int iterations = 0;
  int cells_moved = 0;   ///< net accepted moves to the fast tier
  int moves_undone = 0;  ///< cells moved then rolled back
  double wns_before = 0.0;
  double wns_after = 0.0;
  double tns_before = 0.0;
  double tns_after = 0.0;
  double final_unbalance = 0.0;
};

/// Everything the ECO loop carries across an iteration boundary besides
/// the design itself. Restoring a design snapshot plus this state resumes
/// the loop bitwise-identically to an uninterrupted run: the incremental
/// Sta is rebuilt from the design with a full run(), which is
/// bitwise-equal to the retime() chain the interrupted run held
/// (the engine's core invariant), and `sta_fingerprint` asserts exactly
/// that on resume.
struct EcoIterState {
  RepartitionResult partial;       ///< accumulators through this iteration
  double d_k = 0.0;                ///< current delay-threshold multiplier
  double wns = 0.0;                ///< last accepted WNS
  double tns = 0.0;                ///< last accepted TNS
  double initial_unbalance = 0.0;  ///< unbalance baseline of the budget
  std::uint64_t sta_fingerprint = 0;  ///< sta::timing_fingerprint at boundary
};

/// Checkpoint hooks threaded into repartition_eco by the flow checkpoint
/// layer. Plain callers pass nothing and get the historical behaviour.
struct EcoHooks {
  /// Called after every iteration (accepted or undone) with the live
  /// design and the state needed to resume from that boundary. May throw
  /// (fault injection); the exception propagates out of the loop.
  std::function<void(const Design&, const EcoIterState&)> after_iteration;
  /// When set, the loop resumes from this state instead of starting
  /// fresh. The design must be the exact snapshot the state was taken on.
  const EcoIterState* resume = nullptr;
};

/// Run Algorithm 1 on a partitioned, placed 3-D design. Re-times the design
/// with routing-aware STA after every move batch (the "ECO update").
RepartitionResult repartition_eco(Design& d,
                                  const RepartitionOptions& opt = {},
                                  const EcoHooks* hooks = nullptr);

/// Area unbalance |top − bottom| / total, areas measured in each tier's
/// own library units (the quantity Algorithm 1 budgets).
double tier_unbalance(const Design& d);

/// Heterogeneous tier rebalancing: while the bottom (fast) tier needs more
/// plan-view room than the top, migrate the *least critical* bottom cells
/// (slack above `min_slack_ns`) to the top tier. This is the flow's
/// area/power recovery lever — non-critical logic belongs on the small,
/// low-power 9-track die. Returns cells moved.
///
/// `sta_opt` configures the verification STA the batches are accepted
/// against; with a multi-corner spec the WNS floor is checked on the
/// guard-banded (worst-over-corners) WNS, so a migration that only breaks
/// a slow-tier corner is undone too. The candidate scan and the routing
/// run on `pool` (exec::Pool::global() when null), the STA on
/// `sta_opt.pool`.
int rebalance_to_top(Design& d, const sta::StaResult& timing,
                     double min_slack_ns, double utilization,
                     exec::Pool* pool = nullptr,
                     const sta::StaOptions& sta_opt = {});

}  // namespace m3d::part
