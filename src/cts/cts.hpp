#pragma once
/// \file cts.hpp
/// \brief Clock-tree synthesis: recursive geometric bisection with buffer
///        insertion, heterogeneous 3-D support via the COVER-cell approach.
///
/// Two 3-D modes reproduce the paper's §III-A2 comparison:
///
///  * **CoverCell** (the paper's enhancement): while one die is optimized,
///    the other die's cells are treated as zero-area COVER cells instead of
///    macros, so CTS sees the whole 3-D sink set at once and builds a single
///    unified tree. Subtree buffers land on the majority tier of their
///    sinks; the trunk prefers the low-power (top/9-track) tier, which is
///    why the paper's heterogeneous clock ends up >75 % on the top die with
///    a smaller clock-buffer area and lower clock power.
///
///  * **PerDie** (the Pin-3D baseline): the other die's cells act like
///    macros, breaking the clock network into one independent tree per die
///    — more buffers, and no cross-tier skew optimization.
///
/// After the flow re-legalizes buffer positions, annotate_clock_latencies()
/// recomputes per-sink insertion delays directly from the netlist topology
/// and writes them into the Design for the STA's launch/capture clocking.

#include "netlist/design.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::cts {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;

/// 3-D clock construction mode.
enum class Mode3D {
  CoverCell,  ///< unified 3-D tree (the paper's enhancement)
  PerDie,     ///< one tree per die (Pin-3D baseline behaviour)
};

/// CTS knobs. The leaf cluster size, the buffer drives and the padding
/// budget are constants in cts.cpp.
struct CtsOptions {
  Mode3D mode = Mode3D::CoverCell;
  bool prefer_low_power_trunk = true;  ///< hetero: trunk on the top tier
  /// Skew balancing: pad fast leaf branches with delay buffers until every
  /// leaf's insertion delay is within one pad-buffer delay of the slowest.
  bool balance_skew = true;
  /// Worker pool for the bisection planning and the clock-net routing and
  /// timing sweeps; nullptr means exec::Pool::global(). The built tree is
  /// bitwise identical at any pool size (each subtree owns a precomputed
  /// counter range), so this field must stay out of
  /// exec::FlowCache::options_hash.
  exec::Pool* pool = nullptr;
};

/// Post-CTS clock network metrics (Table VIII "Clock Network").
struct ClockTreeReport {
  int buffer_count = 0;
  int buffer_count_tier[2] = {0, 0};
  double buffer_area_um2 = 0.0;
  double wirelength_um = 0.0;   ///< total clock wirelength
  double max_latency_ns = 0.0;
  double min_latency_ns = 0.0;
  double max_skew_ns = 0.0;     ///< max − min sink latency
  int sink_count = 0;
};

/// Build the buffered clock tree: inserts ClkBuf cells and clock subnets,
/// re-wires every flop/macro clock pin, and annotates latencies. Call
/// legalize() afterwards and then annotate_clock_latencies() to refresh
/// delays at legal positions.
ClockTreeReport build_clock_tree(Design& d, const CtsOptions& opt = {});

/// Recompute per-sink clock latencies from the current netlist + placement
/// and store them in the design. Returns updated metrics. Every clock net
/// is routed and timed (each sink's wire delay, the insertion delay of its
/// driving buffer) in parallel on `pool` (exec::Pool::global() when null);
/// the tree walk then only adds, serially. Results are byte-identical at
/// any pool size.
ClockTreeReport annotate_clock_latencies(Design& d,
                                         exec::Pool* pool = nullptr);

/// Equalize leaf insertion delays by inserting delay-pad buffer chains in
/// front of the fastest leaf buffers (classic tree balancing). Returns the
/// number of pad buffers added; call annotate_clock_latencies afterwards.
int balance_clock_tree(Design& d, const CtsOptions& opt = {});

}  // namespace m3d::cts
