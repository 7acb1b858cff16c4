#pragma once
/// \file opt.hpp
/// \brief Timing optimization: high-fanout buffering, critical-cell
///        upsizing, and power recovery on slack-rich paths.
///
/// This is the "synthesis/optimization effort" knob of the flow. Its
/// behaviour reproduces a key effect from the paper: driving a *slow*
/// library (9-track at 0.81 V) toward a frequency target set by the *fast*
/// library forces aggressive upsizing and buffering, blowing up cell area
/// and power — the "over-correction" that makes homogeneous 9-track
/// implementations lose on area despite their smaller cells.

#include <vector>

#include "netlist/design.hpp"
#include "sta/sta.hpp"

namespace m3d::opt {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;

/// Optimizer knobs. The drive of inserted buffers and the slew limit are
/// constants in opt.cpp.
struct OptOptions {
  int max_sizing_rounds = 5;       ///< upsizing iterations
  int power_recovery_rounds = 2;   ///< downsizing iterations
  double target_slack_ns = 0.0;    ///< upsize cells below this slack
  double recovery_slack_frac = 0.30;  ///< downsize above this × period
  int max_fanout = 6;              ///< buffer nets above this fanout
  double max_wire_um = 60.0;       ///< repeater spacing on long wires
  sta::StaOptions sta;             ///< timing view used during optimization
  /// false = zero-wire timing (the synthesis stage, before placement).
  bool routed = true;
};

/// Summary of one optimization run.
struct OptResult {
  int buffers_added = 0;
  int cells_upsized = 0;
  int cells_downsized = 0;
  double wns_before = 0.0;
  double wns_after = 0.0;
};

/// Split nets with more than `max_fanout` sinks by inserting buffers that
/// each drive a positionally-clustered sink group. New buffers inherit the
/// driver's tier and sit at their group's centroid (re-legalize after).
/// Clock nets are left alone — CTS owns them. Returns buffers added.
int insert_fanout_buffers(Design& d, int max_fanout, int buffer_drive = 4);

/// Long-wire repeater insertion: sinks whose tree path from the driver
/// exceeds `max_seg_um` get a repeater at the midpoint. Keeps critical
/// wire delay a small share of path delay, as commercial flows do —
/// without this, wire-dominant designs let the slow library ride the
/// 3-D wirelength savings. Returns repeaters added.
int insert_wire_repeaters(Design& d, double max_seg_um, int drive = 4);

// The three sizing sweeps below read one timing view and change drive
// strengths only. Each returns the number of cells it changed and, when
// `resized` is given, appends every changed cell to it — the dirty set
// sta::Sta::retime() needs.

/// One upsizing sweep: bump the drive of cells whose slack is below
/// `slack_threshold`.
int upsize_critical(Design& d, const sta::StaResult& timing,
                    double slack_threshold,
                    std::vector<CellId>* resized = nullptr);

/// One power-recovery sweep: downsize cells whose slack exceeds
/// `slack_threshold` (never below drive X1).
int recover_power(Design& d, const sta::StaResult& timing,
                  double slack_threshold,
                  std::vector<CellId>* resized = nullptr);

/// Max-transition repair: upsize drivers of nets whose worst sink slew
/// exceeds `max_tran_fo4` × the driver library's FO-4 delay (one limit
/// per tier, for any number of tiers).
int fix_max_transition(Design& d, const sta::StaResult& timing,
                       double max_tran_fo4,
                       std::vector<CellId>* resized = nullptr);

/// Full optimization loop: buffer → (upsize, retime)* → (downsize,
/// retime)*. Every topology edit (fanout buffers, and repeaters when
/// `opt.routed`) happens first; the design is then routed once and one
/// sta::Sta runs one full propagation. Each sizing, power-recovery and
/// recovery-repair sweep after that only changes drives, so the routes
/// stay valid and Sta::retime() re-propagates just the resized cells'
/// cones — bitwise the result of a full re-route and re-time per round.
OptResult optimize_timing(Design& d, const OptOptions& opt = {});

}  // namespace m3d::opt
