#pragma once
/// \file common.hpp
/// \brief Shared machinery for the paper-reproduction benches: netlist
///        construction at a bench scale, the iso-performance frequency
///        targeting methodology of §IV-A2, and flow-run helpers.
///
/// Environment knobs:
///   M3D_BENCH_SCALE — netlist width multiplier (default 0.5; the paper's
///                     netlists are 150k–250k cells, the default keeps a
///                     full 4×5 sweep in tens of seconds).
///   M3D_BENCH_OUT   — directory for SVG/CSV artifacts (default
///                     "bench_artifacts").
///   M3D_STA_CORNERS / M3D_TIER_SIGMA / M3D_TIER_DERATE — multi-corner
///                     signoff spec (tech::corner_spec_from_env), threaded
///                     into every flow's FlowOptions::sta_corners.

#include <string>
#include <vector>

#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "gen/designs.hpp"
#include "netlist/netlist.hpp"

namespace m3d::bench {

/// Netlist width multiplier from M3D_BENCH_SCALE; a value that is not one
/// whole finite number throws util::Error (util::env_double).
double bench_scale();

/// Artifact directory from M3D_BENCH_OUT (created if missing).
std::string artifact_dir();

/// The paper's four evaluation netlists, in its column order.
const std::vector<std::string>& netlist_names();

/// Build one evaluation netlist at the bench scale.
netlist::Netlist build(const std::string& name);

/// Flow options tuned for bench runs.
core::FlowOptions flow_options(double period_ns);

/// Per-netlist flow options (LDPC runs at lower utilization — the paper's
/// wire-dominance observation).
core::FlowOptions flow_options_for(const std::string& netlist_name,
                                   double period_ns);

/// The paper's frequency methodology: sweep the 12-track 2-D
/// implementation to its maximum achievable frequency (WNS within ~7 % of
/// the period) and use that as the iso-performance target for every other
/// configuration of the same netlist. Returns the target period (ns).
/// `ctx` selects the cache and the pool the flows' kernels run on
/// (nullptr = process-wide defaults).
double target_period_ns(const netlist::Netlist& nl,
                        const exec::Ctx* ctx = nullptr);

/// Run one configuration at the given period, memoized in the context's
/// flow cache (a repeated (netlist, config, period) run is a lookup), with
/// its kernels on the context's pool.
exec::FlowCache::ResultPtr run_config_cached(const netlist::Netlist& nl,
                                             core::Config cfg,
                                             double period_ns,
                                             const exec::Ctx* ctx = nullptr);

/// Run one configuration at the given period (value-returning wrapper
/// around run_config_cached, kept for the simpler benches).
core::FlowResult run_config(const netlist::Netlist& nl, core::Config cfg,
                            double period_ns);

/// One cell of a sweep: a (netlist, config) pair evaluated at that
/// netlist's iso-performance period.
struct SweepItem {
  std::string netlist;
  core::Config cfg = core::Config::Hetero3D;
  double period_ns = 0.0;
  int cells = 0;  ///< std-cell count of the *input* netlist
  exec::FlowCache::ResultPtr result;

  const core::DesignMetrics& metrics() const { return result->metrics; }
};

/// Sweep shape and execution knobs for run_sweep.
struct SweepOptions {
  std::vector<std::string> netlists;  ///< empty → netlist_names()
  std::vector<core::Config> configs;  ///< empty → all five (paper order)
  /// Period for every run (>0), or 0 for the paper's per-netlist
  /// iso-performance target (12-track 2-D maximum frequency).
  double fixed_period_ns = 0.0;
  /// >0: private pool of that size for the sweep's tasks and the flows'
  /// kernels alike.
  int threads = 0;
  exec::FlowCache* cache = nullptr;   ///< nullptr → FlowCache::global()
};

/// Fan a netlist × config grid across the pool as a task graph: each
/// netlist's build feeds its frequency-search node, which feeds that
/// netlist's per-config flows — so flows of a fast netlist start while a
/// slow netlist is still searching. Results come back in deterministic
/// (netlist-major, config-minor) order and are bit-identical at any
/// thread count.
std::vector<SweepItem> run_sweep(const SweepOptions& opt = {});

/// Silence the flow logs (benches print tables, not logs).
void quiet_logs();

/// Peak resident-set size of this process so far (kB, getrusage
/// ru_maxrss; 0 where unsupported). Monotone over the process lifetime,
/// so size sweeps should run ascending and read it after each point.
long peak_rss_kb();

}  // namespace m3d::bench
