#pragma once
/// \file sta.hpp
/// \brief Graph-based static timing analysis with rise/fall slew
///        propagation, NLDM lookup, Elmore net delays, and heterogeneous
///        boundary-cell derating.
///
/// The timing graph's nodes are pins. Launch points are primary inputs,
/// flip-flop Q pins (clock latency + CLK→Q) and macro outputs (clock
/// latency + access time); capture points are flip-flop D pins, macro
/// inputs and primary outputs. Setup slack at a capture point is
///   slack = (T + capture_latency − setup) − arrival,
/// so clock skew between tiers — the crux of heterogeneous CTS — enters
/// through per-cell clock latencies installed by the CTS stage.
///
/// Heterogeneity enters the delay model in the two ways of paper §II-B:
///  * "heterogeneity at driver output": an output's load is summed from the
///    sinks' *own* libraries, so driving a lighter/heavier foreign tier
///    shifts delay and slew exactly as Table II describes;
///  * "heterogeneity at input": when a cell's input swings to a foreign
///    rail, an alpha-power-law derate speeds up overdriven stages and slows
///    underdriven ones (Table III), with opposite signs in the two
///    directions so long paths largely cancel.

#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "netlist/design.hpp"
#include "route/route.hpp"
#include "tech/corners.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::sta {

namespace detail {
class StaEngine;

/// Allocator whose value-less construct() leaves the element as it is, so
/// resize() allocates without touching the memory. The engine's per-pin
/// arrays use it: each slot is then first written by a pooled sweep (of
/// the engine's construction, or of run()), which spreads the page faults
/// of a million-pin design over the workers.
template <typename T>
struct UninitAlloc : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAlloc<U>;
  };
  UninitAlloc() = default;
  template <typename U>
  UninitAlloc(const UninitAlloc<U>&) noexcept {}
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A per-pin (or per-endpoint) array that resize() leaves unwritten.
template <typename T>
using PinArray = std::vector<T, UninitAlloc<T>>;
}  // namespace detail

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;

/// Analysis knobs. The port constraints (primary-input slew and arrival,
/// primary-output margin and virtual capture clock) are constants in
/// sta.cpp.
struct StaOptions {
  bool boundary_derates = true;   ///< model hetero voltage-boundary effects
  bool ideal_clock = false;       ///< ignore CTS latencies (pre-CTS timing)
  bool hold_analysis = true;      ///< also run the min-delay (hold) check
  /// Worker pool for the level-synchronous propagation, the endpoint
  /// constraints and the retime buckets (192-pin chunks), and for the
  /// engine's construction sweeps and endpoint ranking (32k-pin and
  /// 16k-endpoint chunks); nullptr means exec::Pool::global(). Results
  /// are byte-identical at any pool size.
  exec::Pool* pool = nullptr;
  /// Process-corner sweep: K = corners.count per-tier delay factors are
  /// propagated as stride-K SoA lanes in a single level-synchronous pass
  /// (the graph walk, levelization, Elmore net delays, NLDM lookups and
  /// slew propagation are shared across corners — factors scale device
  /// delays only, the `set_timing_derate`-style OCV model). Lane 0 is
  /// the systematic (nominal) corner; with the default spec it is
  /// bitwise-identical to the historical scalar engine at any pool size.
  tech::CornerSpec corners;
};

/// One stage of a reported timing path (a cell traversal plus the wire
/// into it).
struct PathStage {
  CellId cell = netlist::kInvalidId;
  PinId in_pin = netlist::kInvalidId;   ///< invalid for launch stage
  PinId out_pin = netlist::kInvalidId;
  double cell_delay_ns = 0.0;
  double wire_delay_ns = 0.0;  ///< net delay *into* in_pin
  double wire_length_um = 0.0;
  int tier = 0;
  bool entered_through_miv = false;
};

/// A fully annotated register-to-register (or port) path.
struct CriticalPath {
  std::vector<PathStage> stages;
  PinId endpoint = netlist::kInvalidId;
  double slack_ns = 0.0;
  double path_delay_ns = 0.0;       ///< launch latency excluded: data delay
  double cell_delay_ns = 0.0;
  double wire_delay_ns = 0.0;
  double wirelength_um = 0.0;
  int miv_count = 0;
  double launch_latency_ns = 0.0;
  double capture_latency_ns = 0.0;
  double setup_ns = 0.0;
  /// capture − launch latency; positive skew helps setup here.
  double clock_skew_ns = 0.0;
  int cells_on_tier[2] = {0, 0};
  double delay_on_tier[2] = {0.0, 0.0};

  int total_cells() const { return static_cast<int>(stages.size()); }
};

/// Result of one STA run.
class StaResult {
 public:
  double wns() const { return wns_; }
  double tns() const { return tns_; }
  int endpoint_count() const { return static_cast<int>(endpoints_.size()); }
  int violated_endpoints() const { return violated_; }

  /// Worst hold slack (min-delay analysis): earliest data arrival minus
  /// (capture latency + hold requirement). Positive = no race.
  double whs() const { return whs_; }
  int hold_violations() const { return hold_violations_; }

  /// Worst slack among all pins of a cell — the paper's *cell-based*
  /// criticality used by timing-driven partitioning. Cells not on any
  /// constrained path report +inf.
  double cell_slack(CellId c) const;

  /// Worst slack at one pin (min over rise/fall); +inf if unconstrained.
  double pin_slack(PinId p) const;
  double pin_arrival(PinId p) const;
  double pin_slew(PinId p) const;

  /// Endpoints sorted by ascending slack (worst first).
  const std::vector<PinId>& endpoints_by_slack() const { return endpoints_; }

  /// Trace the worst path ending at `endpoint`.
  CriticalPath trace_path(PinId endpoint) const;

  /// The single most critical path in the design.
  CriticalPath critical_path() const;

  /// Worst paths through the top-n worst endpoints (one path each).
  std::vector<CriticalPath> worst_paths(int n) const;

  // ---- multi-corner view (see StaOptions::corners) ------------------------
  // Every per-pin/endpoint accessor above reads lane 0, the nominal
  // corner, so single-corner callers are unaffected by a sweep.

  /// Number of corner lanes this result carries (1 = scalar run).
  int corner_count() const { return corners_; }

  /// WNS / TNS / violation count of corner k.
  double corner_wns(int k) const {
    return corner_wns_[static_cast<std::size_t>(k)];
  }
  double corner_tns(int k) const {
    return corner_tns_[static_cast<std::size_t>(k)];
  }
  int corner_violated(int k) const {
    return corner_violated_[static_cast<std::size_t>(k)];
  }

  /// Guard-banded (worst-over-corners) WNS/TNS: the variation-aware ECO's
  /// accept metric. Equal to wns()/tns() when corner_count() == 1.
  double guard_wns() const;
  double guard_tns() const;

  /// Fraction of corners whose WNS is at or above `min_wns_ns` — the
  /// timing yield against a slack floor (0 = all paths meet the period
  /// exactly; the flow reports yield at the paper's −5 %·T budget).
  double timing_yield(double min_wns_ns = 0.0) const;

 private:
  friend class detail::StaEngine;

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Pred {
    PinId from = netlist::kInvalidId;
    int from_trans = 0;
    double delay = 0.0;
    double wire_len = 0.0;
    bool is_net_arc = false;
    bool via_miv = false;
  };

  const Design* design_ = nullptr;
  double wns_ = 0.0;
  double tns_ = 0.0;
  int violated_ = 0;
  double whs_ = 0.0;
  int hold_violations_ = 0;
  std::vector<PinId> endpoints_;           // sorted by slack ascending
  std::vector<double> endpoint_slack_;     // aligned with endpoints_
  // Per pin × transition × corner state: arr_/req_ are stride-K SoA with
  // lane k of pin p at index p*lanes_ + k (lane 0 = nominal corner).
  // slew_ and pred_ are per-pin only — factors derate delays, not slews,
  // and path tracing reports the nominal corner's winners.
  int lanes_ = 1;
  detail::PinArray<double> arr_[2];
  detail::PinArray<double> req_[2];
  detail::PinArray<double> slew_[2];
  detail::PinArray<Pred> pred_[2];
  detail::PinArray<double> setup_at_endpoint_;  // per pin; 0 off endpoints
  // Per-corner aggregates (size corners_; index 0 mirrors wns_/tns_).
  int corners_ = 1;
  std::vector<double> corner_wns_;
  std::vector<double> corner_tns_;
  std::vector<int> corner_violated_;
};

/// A persistent timing engine bound to one design. Construction builds the
/// static timing-graph structure (participation, topological levels,
/// adjacency) once, in pooled sweeps over fixed chunks of pins, cells and
/// nets; run() then propagates the whole graph level by level — in
/// parallel across each level — and retime() re-propagates only the cone
/// of a set of touched cells.
///
/// Invariants:
///  * run() and retime() produce bitwise-identical StaResults for any
///    worker-pool size, including 1 (each pin is computed by exactly one
///    writer that gathers its predecessors in a fixed order);
///  * retime(dirty) after tier moves or drive changes of `dirty` (with
///    `routes` patched in place via route::update_routes_for_cells for
///    the moved cells; a drive change leaves every route valid) is
///    bitwise-identical to a fresh full run();
///  * the structure is only valid while the netlist topology, placement
///    and clock latencies are unchanged — tier moves and drive changes
///    are fine, anything else needs a new Sta (or a full run() for
///    latency/period changes is NOT enough: rebuild instead).
///
/// Throws util::Error from the constructor when the combinational graph
/// has a cycle (same check run_sta used to make).
class Sta {
 public:
  Sta(const Design& d, const route::RoutingEstimate* routes,
      const StaOptions& opt = {});
  ~Sta();
  Sta(Sta&&) noexcept;
  Sta& operator=(Sta&&) noexcept;

  /// Full forward + backward propagation over every level.
  const StaResult& run();

  /// Incremental re-propagation after the cells in `dirty_cells` changed
  /// library cell: a tier move (with the routes of their incident nets
  /// re-estimated) or a drive change. Requires a prior run(). Order and
  /// duplicates in `dirty_cells` do not matter. An empty dirty set is a
  /// no-op; the full cell set degenerates to run(). A retime or run()
  /// that throws (say, a cell whose drive its library lacks) leaves the
  /// engine needing run() again: until then retime() throws as it does
  /// before a first run. Its scratch lives in the engine and is reset
  /// through what it touched, so a retime costs O(touched pins).
  const StaResult& retime(const std::vector<CellId>& dirty_cells);

  /// Last computed result (valid after run()).
  const StaResult& result() const;

 private:
  std::unique_ptr<detail::StaEngine> eng_;
};

/// Run setup STA over the design. `routes` supplies wire delays; pass
/// nullptr for zero-wire (pre-placement / synthesis-stage) timing.
StaResult run_sta(const Design& d, const route::RoutingEstimate* routes,
                  const StaOptions& opt = {});

/// 64-bit digest of a timing state: WNS/TNS/WHS plus every endpoint id
/// and its exact slack bits, in worst-first order. A multi-corner result
/// additionally mixes the corner count and every corner's WNS/TNS bits
/// (guard-banded ECO decisions depend on the non-nominal lanes); a
/// single-corner result's digest is unchanged from the scalar engine, so
/// existing checkpoints stay compatible. Because run() and
/// retime() are bitwise-deterministic, two equal fingerprints mean the
/// timing views are interchangeable. The flow checkpoint layer stores it
/// at repartition-ECO iteration boundaries and verifies that the engine
/// rebuilt on resume reproduces the interrupted run's state exactly.
std::uint64_t timing_fingerprint(const StaResult& r);

}  // namespace m3d::sta
