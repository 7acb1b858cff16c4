#pragma once
/// \file flow.hpp
/// \brief The five implementation flows of the paper (Fig. 1) and the
///        Hetero-Pin-3D methodology of §III/§IV-A2.
///
/// Configurations:
///  * TwoD9T / TwoD12T   — classic 2-D RTL-to-GDS in one library;
///  * ThreeD9T / ThreeD12T — homogeneous M3D via the pseudo-3-D recipe:
///    place at the folded (half) footprint, bin-based FM min-cut
///    tier partitioning, per-tier legalization, 3-D CTS;
///  * Hetero3D — 12-track bottom + 9-track top. The pseudo-3-D stage runs
///    entirely in the 12-track technology (only it exists pre-partition),
///    then timing-based partitioning pins the critical 20–30 % of cell
///    area to the fast bottom tier and bin-FM splits the rest; mapping
///    half the cell area onto 25 %-smaller 9-track rows shrinks total cell
///    area ~12.5 %, and the footprint is rescaled to hold utilization;
///    a COVER-cell unified 3-D clock tree and the Algorithm-1
///    repartitioning ECO close timing.
///
/// The three heterogeneous enhancements can be disabled individually to
/// reproduce the Pin-3D baseline of Table V and the ablation benches.
///
/// FlowOptions names only the values callers vary; each stage of run_flow
/// builds its kernel's options from them and the kernel's defaults.
/// options_hash, declared beside the struct, is the one key over them.

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "cost/cost.hpp"
#include "cts/cts.hpp"
#include "netlist/netlist.hpp"
#include "opt/opt.hpp"
#include "part/repartition.hpp"
#include "part/timing_partition.hpp"
#include "tech/corners.hpp"

namespace m3d::exec {
class Pool;
struct Ctx;  // exec/flow_cache.hpp — pool + cache execution context
}

namespace m3d::core {

/// The five technology/design configurations of Fig. 1.
enum class Config { TwoD9T, TwoD12T, ThreeD9T, ThreeD12T, Hetero3D };

/// Short label, e.g. "2D-12T", "Hetero-3D".
const char* config_name(Config c);

/// Is this a two-tier configuration?
bool config_is_3d(Config c);

/// One tier of an explicit N-tier stack, bottom first. The design-space
/// explorer and the partitioner use these to override a configuration's
/// built-in two-library mapping.
struct TierSpec {
  /// Library flavor: "12T" (fast/large) or "9T" (slow/small).
  std::string tech = "12T";
  /// Supply scale on the flavor's nominal VDD (voltage knob of the
  /// design-space sweep); 1.0 keeps the stock library.
  double vdd_scale = 1.0;
  /// Hard standard-cell area cap for this tier in µm² (0 = uncapped),
  /// enforced by the partitioner.
  double area_cap_um2 = 0.0;
  /// This tier's wafer-cost shares for the cost-aware objective.
  cost::TierProcess process;
};

/// Flow knobs. The defaults implement the full heterogeneous methodology.
struct FlowOptions {
  double clock_period_ns = 0.8;
  double utilization = 0.65;
  /// Upsizing rounds of the synthesis and post-placement optimizations;
  /// the post-CTS repair always runs two.
  int max_sizing_rounds = opt::OptOptions{}.max_sizing_rounds;
  /// Iteration cap of the repartitioning ECO; the fixup pass after the
  /// rebalance always runs four.
  int eco_iters = part::RepartitionOptions{}.max_iters;
  /// Max fraction of standard-cell area the timing partition pins to the
  /// fast tier (the paper's 20-30 % cap).
  double timing_area_cap = part::TimingPartitionOptions{}.area_cap;

  // Heterogeneous-flow enhancements (Table V / ablations). Only consulted
  // by the Hetero3D configuration.
  bool enable_timing_partition = true;
  bool enable_repartition = true;
  bool enable_cover_cts = true;

  /// Use the path-based criticality baseline of [14] instead of the
  /// cell-based sweep (criticality ablation).
  bool path_based_criticality = false;
  int path_based_paths = 100;

  /// Worker pool for the parallel kernels inside every stage (placement,
  /// FM gains, STA, routing, CTS, power, the ECO scans); nullptr means
  /// exec::Pool::global(), as it does for every kernel. Flow results are
  /// byte-identical for any pool size, so options_hash leaves it out.
  exec::Pool* pool = nullptr;

  /// Multi-corner signoff: when sta_corners.count > 1, the repartition
  /// ECO, the tier rebalance and the final analysis all time the design
  /// across K inter-tier process corners in one vectorized STA sweep, and
  /// accept/undo decisions use the guard-banded (worst-over-corners)
  /// WNS/TNS. The mid-flow synthesis/optimization/partition STAs stay
  /// single-corner — variation awareness belongs to signoff and the ECO,
  /// not to every inner sizing loop. With the default (count == 1) spec
  /// every artifact is byte-identical to the single-corner flow.
  tech::CornerSpec sta_corners;

  /// Explicit stack overriding the configuration's library mapping: one
  /// entry per tier, bottom first. Empty keeps the Config-defined stack
  /// (the entire pre-existing flow surface). The partition stage applies
  /// the per-tier caps and process shares; the heterogeneity-specific
  /// stages (timing partition, repartition ECO) stay gated to
  /// exactly-two-tier designs.
  std::vector<TierSpec> tiers;

  /// µ: weight of the die-cost term inside the partition objective
  /// J = cut + µ · die_cost (see part::FmOptions::cost_weight). Zero —
  /// the default — keeps partitioning pure min-cut.
  double part_cost_weight = 0.0;

  /// Stage-level checkpoint/restart (see core/checkpoint.hpp): when this
  /// names a directory — or, if empty, when M3D_CHECKPOINT_DIR does —
  /// run_flow persists the full flow state after every stage and every
  /// repartition-ECO iteration there, and a later identical invocation
  /// resumes from the newest valid boundary. Resumed results are
  /// byte-identical to an uninterrupted run, so options_hash leaves this
  /// knob out.
  std::string checkpoint_dir;
};

/// The flow's key over its options, shared by exec::FlowCache and
/// flow::Checkpoint: every field above that run_flow reads, each TierSpec
/// and CornerSpec field included, mixed once. `pool` and `checkpoint_dir`
/// stay out, so runs that differ only there share one key.
std::uint64_t options_hash(const FlowOptions& opt);

/// Everything a flow run produces.
struct FlowResult {
  netlist::Design design;
  DesignMetrics metrics;
  part::TimingPartitionResult timing_part;
  part::RepartitionResult repart;
  opt::OptResult opt;
  /// Report of the last annotation: every stage from CTS on ends with a
  /// clock-latency annotation; finalize feeds it to collect_metrics.
  cts::ClockTreeReport clock;

  FlowResult(netlist::Design d) : design(std::move(d)) {}
};

/// Construct the Design (tier count + libraries) for a configuration —
/// exactly the mapping run_flow starts from, and the one io::read_snapshot
/// rebuilds persisted flow state into (through design_for_flow).
netlist::Design design_for_config(const netlist::Netlist& nl, Config cfg);

/// Like design_for_config, but honoring FlowOptions::tiers when set: the
/// stack is built from the tier specs (library flavor + VDD scale per
/// tier) instead of the configuration's two-library mapping.
netlist::Design design_for_flow(const netlist::Netlist& nl, Config cfg,
                                const FlowOptions& opt);

/// Run the complete RTL-to-"GDS" flow for one configuration.
FlowResult run_flow(const netlist::Netlist& nl, Config cfg,
                    const FlowOptions& opt = {});

/// The analysis that ends run_flow: route, signoff STA over
/// opt.sta_corners, power and collect_metrics over res.design and
/// res.clock, with kernels on opt.pool. The disk flow cache runs it on a
/// restored snapshot, so a loaded result carries the metrics of the run
/// that stored it.
void finalize(FlowResult& res, Config cfg, const FlowOptions& opt);

/// Binary-search the maximum achievable frequency for a configuration:
/// highest frequency whose flow lands with |WNS| below `wns_budget_frac`
/// of the period (the paper's "timing met" rule: WNS ≲ 5–7 % of period).
/// Returns GHz.
///
/// The search runs its `iters` candidate flows one after another on the
/// calling thread, each memoized in the context's FlowCache (a later
/// search or table row asking for the same flow gets a hit); the flows'
/// kernels run on `opt.pool`. `ctx == nullptr` uses the process-wide
/// cache.
double find_max_frequency(const netlist::Netlist& nl, Config cfg,
                          FlowOptions opt, double lo_ghz, double hi_ghz,
                          int iters = 5, double wns_budget_frac = 0.05,
                          const exec::Ctx* ctx = nullptr);

}  // namespace m3d::core
