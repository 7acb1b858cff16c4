#pragma once
/// \file probe.hpp
/// \brief Link-time layer tracing for the benchmark binary.
///
/// probe.cpp interposes on the public entry points of the traced layers
/// (`ld --wrap`, see CMakeLists.txt). With tracing off every wrapper is a
/// pass-through plus one relaxed atomic load; run_flow additionally keeps
/// an always-on in-flight count so main.cpp can wait for speculative
/// flows to drain. With tracing on, each call becomes a frame on a
/// per-thread stack:
///
///  * inclusive time = duration minus any *stolen* flow nested in it;
///  * self time      = duration minus every child frame on the thread.
///
/// A flow boundary (run_flow, FlowCache::get_or_run, find_max_frequency)
/// entered under any frame other than its natural caller (get_or_run for
/// run_flow, find_max_frequency for get_or_run) is work a helping wait
/// stole from the pool: it is charged to itself, not to the STA, opt or
/// other call that happened to be waiting. Inclusive per-entry and
/// per-layer sums count only outermost frames, so recursion through the
/// same entry or layer is never double-counted.
///
/// reset() and snapshot() must run while no traced call is executing.

#include <array>
#include <vector>

namespace m3db::probe {

enum Layer {
  kCore, kExec, kOpt, kSta, kRoute, kPlace, kPart, kCts, kPower, kNetlist,
  kGen, kTech, kLayerCount
};

enum Entry {
  kRunFlow, kFindMaxFrequency, kGetOrRun, kOptimizeTiming, kRunSta, kStaRun,
  kStaRetime, kRouteDesign, kUpdateRoutes, kGlobalPlace, kLegalize,
  kBinFm, kFmMincut, kTimingPartition, kRepartitionEco, kRebalanceToTop,
  kBuildClockTree, kAnnotateClock, kAnalyzePower, kParseVerilog,
  kMakeDesign, kMakeLibrary, kMake12Track, kMake9Track, kEntryCount
};

Layer layer_of(Entry e);
const char* layer_name(Layer l);
const char* entry_name(Entry e);

/// Entry points whose calls bypass their wrapper: the program no longer
/// defines the symbol probe.cpp wraps, because its signature changed.
/// Their counts read 0, and when run_flow is among them
/// flows_in_flight() stays 0. Empty when every wrapper is live.
std::vector<const char*> unwrapped_entries();

struct EntryStats {
  long long calls = 0;
  double incl_s = 0.0;  ///< outermost frames of this entry only
  double self_s = 0.0;
};

/// Sum over every thread since the last reset().
struct Snapshot {
  std::array<EntryStats, kEntryCount> entry{};
  std::array<double, kLayerCount> layer_incl_s{};
  long long cells_resized = 0;     ///< optimize_timing up- plus downsizes
  long long buffers_added = 0;     ///< optimize_timing buffers/repeaters
  long long fm_moves = 0;          ///< FmStats::moves over FM calls
  long long eco_moves_undone = 0;  ///< repartition_eco moves_undone
  long long parse_bytes = 0;       ///< Verilog text handed to the parser

  double layer_self_s(Layer l) const;
};

void set_enabled(bool on);
void reset();
Snapshot snapshot();

/// run_flow calls currently executing on any thread (always maintained).
int flows_in_flight();

}  // namespace m3db::probe
