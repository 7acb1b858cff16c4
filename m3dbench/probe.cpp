#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "cts/cts.hpp"
#include "exec/flow_cache.hpp"
#include "gen/designs.hpp"
#include "netlist/verilog_reader.hpp"
#include "opt/opt.hpp"
#include "part/fm.hpp"
#include "part/repartition.hpp"
#include "part/timing_partition.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"

namespace m3db::probe {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};
std::atomic<int> g_flows_in_flight{0};

struct ThreadAcc {
  std::array<EntryStats, kEntryCount> entry{};
  std::array<double, kLayerCount> layer_incl_s{};
  long long cells_resized = 0;
  long long buffers_added = 0;
  long long fm_moves = 0;
  long long eco_moves_undone = 0;
  long long parse_bytes = 0;
};

// Accumulators outlive their threads: the registry owns them.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadAcc>> g_registry;

ThreadAcc& acc() {
  thread_local ThreadAcc* mine = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadAcc>());
    return g_registry.back().get();
  }();
  return *mine;
}

struct Frame {
  Entry entry;
  Clock::time_point start;
  double child_s = 0.0;   ///< every child frame
  double stolen_s = 0.0;  ///< stolen flows anywhere below
  bool stolen = false;
  bool outer_entry = true;
  bool outer_layer = true;
};

thread_local std::vector<Frame> t_stack;

bool is_flow_boundary(Entry e) {
  return e == kRunFlow || e == kGetOrRun || e == kFindMaxFrequency;
}

void enter(Entry e) {
  Frame f{e, Clock::now()};
  if (!t_stack.empty() && is_flow_boundary(e)) {
    const Entry parent = t_stack.back().entry;
    f.stolen = !((e == kRunFlow && parent == kGetOrRun) ||
                 (e == kGetOrRun && parent == kFindMaxFrequency));
  }
  if (!f.stolen) {
    for (auto it = t_stack.rbegin(); it != t_stack.rend(); ++it) {
      if (it->entry == e) f.outer_entry = false;
      if (layer_of(it->entry) == layer_of(e)) f.outer_layer = false;
      if (it->stolen) break;
    }
  }
  t_stack.push_back(f);
}

void leave() {
  const Frame f = t_stack.back();
  t_stack.pop_back();
  const double dur =
      std::chrono::duration<double>(Clock::now() - f.start).count();
  const double incl = dur - f.stolen_s;
  ThreadAcc& a = acc();
  EntryStats& s = a.entry[f.entry];
  ++s.calls;
  s.self_s += dur - f.child_s;
  if (f.outer_entry) s.incl_s += incl;
  if (f.outer_layer) a.layer_incl_s[layer_of(f.entry)] += incl;
  if (!t_stack.empty()) {
    Frame& parent = t_stack.back();
    parent.child_s += dur;
    parent.stolen_s += f.stolen ? dur : f.stolen_s;
  }
}

/// RAII frame; inert when tracing is off.
class Span {
 public:
  explicit Span(Entry e) : on_(g_enabled.load(std::memory_order_relaxed)) {
    if (on_) enter(e);
  }
  ~Span() {
    if (on_) leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  bool on() const { return on_; }

 private:
  bool on_;
};

/// Runs an FM entry point with a private FmStats when the caller passed
/// none, so the move count is observable without changing the result
/// (FmOptions::stats only accumulates counters).
template <typename Real>
int traced_fm(Entry e, Real real, m3d::part::Design& d,
              const m3d::part::FmOptions& opt, const std::vector<char>* locked) {
  Span span(e);
  if (!span.on()) return real(d, opt, locked);
  m3d::part::FmStats local;
  m3d::part::FmOptions o = opt;
  if (o.stats == nullptr) o.stats = &local;
  const long long before = o.stats->moves;
  const int cut = real(d, o, locked);
  acc().fm_moves += o.stats->moves - before;
  return cut;
}

}  // namespace

Layer layer_of(Entry e) {
  switch (e) {
    case kRunFlow: case kFindMaxFrequency: return kCore;
    case kGetOrRun: return kExec;
    case kOptimizeTiming: return kOpt;
    case kRunSta: case kStaRun: case kStaRetime: return kSta;
    case kRouteDesign: case kUpdateRoutes: return kRoute;
    case kGlobalPlace: case kLegalize: return kPlace;
    case kBinFm: case kFmMincut: case kTimingPartition: case kRepartitionEco:
    case kRebalanceToTop: return kPart;
    case kBuildClockTree: case kAnnotateClock: return kCts;
    case kAnalyzePower: return kPower;
    case kParseVerilog: return kNetlist;
    case kMakeDesign: return kGen;
    case kMakeLibrary: case kMake12Track: case kMake9Track: return kTech;
    case kEntryCount: break;
  }
  return kCore;
}

const char* layer_name(Layer l) {
  static const char* const kNames[kLayerCount] = {
      "core", "exec", "opt", "sta", "route", "place",
      "part", "cts", "power", "netlist", "gen", "tech"};
  return kNames[l];
}

const char* entry_name(Entry e) {
  static const char* const kNames[kEntryCount] = {
      "core::run_flow", "core::find_max_frequency",
      "exec::FlowCache::get_or_run", "opt::optimize_timing", "sta::run_sta",
      "sta::Sta::run", "sta::Sta::retime", "route::route_design",
      "route::update_routes_for_cells", "place::global_place",
      "place::legalize", "part::bin_fm_partition", "part::fm_mincut",
      "part::timing_partition", "part::repartition_eco",
      "part::rebalance_to_top", "cts::build_clock_tree",
      "cts::annotate_clock_latencies", "power::analyze_power",
      "netlist::parse_verilog", "gen::make_design", "tech::make_library",
      "tech::make_12track", "tech::make_9track"};
  return kNames[e];
}

double Snapshot::layer_self_s(Layer l) const {
  double s = 0.0;
  for (int e = 0; e < kEntryCount; ++e)
    if (layer_of(static_cast<Entry>(e)) == l) s += entry[e].self_s;
  return s;
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& a : g_registry) *a = ThreadAcc{};
}

Snapshot snapshot() {
  Snapshot s;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& a : g_registry) {
    for (int e = 0; e < kEntryCount; ++e) {
      s.entry[e].calls += a->entry[e].calls;
      s.entry[e].incl_s += a->entry[e].incl_s;
      s.entry[e].self_s += a->entry[e].self_s;
    }
    for (int l = 0; l < kLayerCount; ++l) s.layer_incl_s[l] += a->layer_incl_s[l];
    s.cells_resized += a->cells_resized;
    s.buffers_added += a->buffers_added;
    s.fm_moves += a->fm_moves;
    s.eco_moves_undone += a->eco_moves_undone;
    s.parse_bytes += a->parse_bytes;
  }
  return s;
}

int flows_in_flight() {
  return g_flows_in_flight.load(std::memory_order_acquire);
}

}  // namespace m3db::probe

// ---- the interposed entry points ------------------------------------------
// Each __wrap_X receives the calls the program makes to X from another
// object file; __real_X is the original. The __real_ declarations are weak
// so that an entry point whose signature (and thus mangled name) changes
// stops being traced instead of breaking the link; unwrapped_entries()
// at the end of this file reports it.

using namespace m3d;
using m3db::probe::Span;
namespace pb = m3db::probe;

extern "C" {

// core
__attribute__((weak)) core::FlowResult
__real__ZN3m3d4core8run_flowERKNS_7netlist7NetlistENS0_6ConfigERKNS0_11FlowOptionsE(
    const netlist::Netlist&, core::Config, const core::FlowOptions&);
core::FlowResult
__wrap__ZN3m3d4core8run_flowERKNS_7netlist7NetlistENS0_6ConfigERKNS0_11FlowOptionsE(
    const netlist::Netlist& nl, core::Config cfg, const core::FlowOptions& o) {
  struct InFlight {
    InFlight() { pb::g_flows_in_flight.fetch_add(1, std::memory_order_acq_rel); }
    ~InFlight() { pb::g_flows_in_flight.fetch_sub(1, std::memory_order_acq_rel); }
  } in_flight;
  Span span(pb::kRunFlow);
  return __real__ZN3m3d4core8run_flowERKNS_7netlist7NetlistENS0_6ConfigERKNS0_11FlowOptionsE(
      nl, cfg, o);
}

__attribute__((weak)) double
__real__ZN3m3d4core18find_max_frequencyERKNS_7netlist7NetlistENS0_6ConfigENS0_11FlowOptionsEddidPKNS_4exec3CtxE(
    const netlist::Netlist&, core::Config, core::FlowOptions, double, double,
    int, double, const exec::Ctx*);
double
__wrap__ZN3m3d4core18find_max_frequencyERKNS_7netlist7NetlistENS0_6ConfigENS0_11FlowOptionsEddidPKNS_4exec3CtxE(
    const netlist::Netlist& nl, core::Config cfg, core::FlowOptions o,
    double lo, double hi, int iters, double budget, const exec::Ctx* ctx) {
  Span span(pb::kFindMaxFrequency);
  return __real__ZN3m3d4core18find_max_frequencyERKNS_7netlist7NetlistENS0_6ConfigENS0_11FlowOptionsEddidPKNS_4exec3CtxE(
      nl, cfg, std::move(o), lo, hi, iters, budget, ctx);
}

// exec
__attribute__((weak)) exec::FlowCache::ResultPtr
__real__ZN3m3d4exec9FlowCache10get_or_runERKNS_7netlist7NetlistENS_4core6ConfigERKNS6_11FlowOptionsE(
    exec::FlowCache*, const netlist::Netlist&, core::Config,
    const core::FlowOptions&);
exec::FlowCache::ResultPtr
__wrap__ZN3m3d4exec9FlowCache10get_or_runERKNS_7netlist7NetlistENS_4core6ConfigERKNS6_11FlowOptionsE(
    exec::FlowCache* self, const netlist::Netlist& nl, core::Config cfg,
    const core::FlowOptions& o) {
  Span span(pb::kGetOrRun);
  return __real__ZN3m3d4exec9FlowCache10get_or_runERKNS_7netlist7NetlistENS_4core6ConfigERKNS6_11FlowOptionsE(
      self, nl, cfg, o);
}

// opt
__attribute__((weak)) opt::OptResult
__real__ZN3m3d3opt15optimize_timingERNS_7netlist6DesignERKNS0_10OptOptionsE(
    netlist::Design&, const opt::OptOptions&);
opt::OptResult
__wrap__ZN3m3d3opt15optimize_timingERNS_7netlist6DesignERKNS0_10OptOptionsE(
    netlist::Design& d, const opt::OptOptions& o) {
  Span span(pb::kOptimizeTiming);
  const opt::OptResult r =
      __real__ZN3m3d3opt15optimize_timingERNS_7netlist6DesignERKNS0_10OptOptionsE(d, o);
  if (span.on()) {
    pb::acc().cells_resized += r.cells_upsized + r.cells_downsized;
    pb::acc().buffers_added += r.buffers_added;
  }
  return r;
}

// sta
__attribute__((weak)) sta::StaResult
__real__ZN3m3d3sta7run_staERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateERKNS0_10StaOptionsE(
    const netlist::Design&, const route::RoutingEstimate*,
    const sta::StaOptions&);
sta::StaResult
__wrap__ZN3m3d3sta7run_staERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateERKNS0_10StaOptionsE(
    const netlist::Design& d, const route::RoutingEstimate* routes,
    const sta::StaOptions& o) {
  Span span(pb::kRunSta);
  return __real__ZN3m3d3sta7run_staERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateERKNS0_10StaOptionsE(
      d, routes, o);
}

__attribute__((weak)) const sta::StaResult& __real__ZN3m3d3sta3Sta3runEv(
    sta::Sta*);
const sta::StaResult& __wrap__ZN3m3d3sta3Sta3runEv(sta::Sta* self) {
  Span span(pb::kStaRun);
  return __real__ZN3m3d3sta3Sta3runEv(self);
}

__attribute__((weak)) const sta::StaResult&
__real__ZN3m3d3sta3Sta6retimeERKSt6vectorIiSaIiEE(
    sta::Sta*, const std::vector<netlist::CellId>&);
const sta::StaResult& __wrap__ZN3m3d3sta3Sta6retimeERKSt6vectorIiSaIiEE(
    sta::Sta* self, const std::vector<netlist::CellId>& dirty) {
  Span span(pb::kStaRetime);
  return __real__ZN3m3d3sta3Sta6retimeERKSt6vectorIiSaIiEE(self, dirty);
}

// route
__attribute__((weak)) route::RoutingEstimate
__real__ZN3m3d5route12route_designERKNS_7netlist6DesignERKNS0_12RouteOptionsE(
    const netlist::Design&, const route::RouteOptions&);
route::RoutingEstimate
__wrap__ZN3m3d5route12route_designERKNS_7netlist6DesignERKNS0_12RouteOptionsE(
    const netlist::Design& d, const route::RouteOptions& o) {
  Span span(pb::kRouteDesign);
  return __real__ZN3m3d5route12route_designERKNS_7netlist6DesignERKNS0_12RouteOptionsE(d, o);
}

__attribute__((weak)) void
__real__ZN3m3d5route23update_routes_for_cellsERKNS_7netlist6DesignERKSt6vectorIiSaIiEEPNS0_15RoutingEstimateERKNS0_12RouteOptionsE(
    const netlist::Design&, const std::vector<netlist::CellId>&,
    route::RoutingEstimate*, const route::RouteOptions&);
void
__wrap__ZN3m3d5route23update_routes_for_cellsERKNS_7netlist6DesignERKSt6vectorIiSaIiEEPNS0_15RoutingEstimateERKNS0_12RouteOptionsE(
    const netlist::Design& d, const std::vector<netlist::CellId>& cells,
    route::RoutingEstimate* est, const route::RouteOptions& o) {
  Span span(pb::kUpdateRoutes);
  __real__ZN3m3d5route23update_routes_for_cellsERKNS_7netlist6DesignERKSt6vectorIiSaIiEEPNS0_15RoutingEstimateERKNS0_12RouteOptionsE(
      d, cells, est, o);
}

// place
__attribute__((weak)) void
__real__ZN3m3d5place12global_placeERNS_7netlist6DesignERKNS0_12PlaceOptionsE(
    netlist::Design&, const place::PlaceOptions&);
void __wrap__ZN3m3d5place12global_placeERNS_7netlist6DesignERKNS0_12PlaceOptionsE(
    netlist::Design& d, const place::PlaceOptions& o) {
  Span span(pb::kGlobalPlace);
  __real__ZN3m3d5place12global_placeERNS_7netlist6DesignERKNS0_12PlaceOptionsE(d, o);
}

__attribute__((weak)) void __real__ZN3m3d5place8legalizeERNS_7netlist6DesignE(
    netlist::Design&);
void __wrap__ZN3m3d5place8legalizeERNS_7netlist6DesignE(netlist::Design& d) {
  Span span(pb::kLegalize);
  __real__ZN3m3d5place8legalizeERNS_7netlist6DesignE(d);
}

// part
__attribute__((weak)) int
__real__ZN3m3d4part16bin_fm_partitionERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE(
    netlist::Design&, const part::FmOptions&, const std::vector<char>*);
int __wrap__ZN3m3d4part16bin_fm_partitionERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE(
    netlist::Design& d, const part::FmOptions& o,
    const std::vector<char>* locked) {
  return pb::traced_fm(
      pb::kBinFm,
      __real__ZN3m3d4part16bin_fm_partitionERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE,
      d, o, locked);
}

__attribute__((weak)) int
__real__ZN3m3d4part9fm_mincutERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE(
    netlist::Design&, const part::FmOptions&, const std::vector<char>*);
int __wrap__ZN3m3d4part9fm_mincutERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE(
    netlist::Design& d, const part::FmOptions& o,
    const std::vector<char>* locked) {
  return pb::traced_fm(
      pb::kFmMincut,
      __real__ZN3m3d4part9fm_mincutERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE,
      d, o, locked);
}

__attribute__((weak)) part::TimingPartitionResult
__real__ZN3m3d4part16timing_partitionERNS_7netlist6DesignERKNS_3sta9StaResultERKNS0_22TimingPartitionOptionsE(
    netlist::Design&, const sta::StaResult&,
    const part::TimingPartitionOptions&);
part::TimingPartitionResult
__wrap__ZN3m3d4part16timing_partitionERNS_7netlist6DesignERKNS_3sta9StaResultERKNS0_22TimingPartitionOptionsE(
    netlist::Design& d, const sta::StaResult& timing,
    const part::TimingPartitionOptions& o) {
  Span span(pb::kTimingPartition);
  return __real__ZN3m3d4part16timing_partitionERNS_7netlist6DesignERKNS_3sta9StaResultERKNS0_22TimingPartitionOptionsE(
      d, timing, o);
}

__attribute__((weak)) part::RepartitionResult
__real__ZN3m3d4part15repartition_ecoERNS_7netlist6DesignERKNS0_18RepartitionOptionsEPKNS0_8EcoHooksE(
    netlist::Design&, const part::RepartitionOptions&, const part::EcoHooks*);
part::RepartitionResult
__wrap__ZN3m3d4part15repartition_ecoERNS_7netlist6DesignERKNS0_18RepartitionOptionsEPKNS0_8EcoHooksE(
    netlist::Design& d, const part::RepartitionOptions& o,
    const part::EcoHooks* hooks) {
  Span span(pb::kRepartitionEco);
  part::RepartitionResult r =
      __real__ZN3m3d4part15repartition_ecoERNS_7netlist6DesignERKNS0_18RepartitionOptionsEPKNS0_8EcoHooksE(
          d, o, hooks);
  if (span.on()) pb::acc().eco_moves_undone += r.moves_undone;
  return r;
}

__attribute__((weak)) int
__real__ZN3m3d4part16rebalance_to_topERNS_7netlist6DesignERKNS_3sta9StaResultEddPNS_4exec4PoolERKNS4_10StaOptionsE(
    netlist::Design&, const sta::StaResult&, double, double, exec::Pool*,
    const sta::StaOptions&);
int __wrap__ZN3m3d4part16rebalance_to_topERNS_7netlist6DesignERKNS_3sta9StaResultEddPNS_4exec4PoolERKNS4_10StaOptionsE(
    netlist::Design& d, const sta::StaResult& timing, double min_slack_ns,
    double utilization, exec::Pool* pool, const sta::StaOptions& sopt) {
  Span span(pb::kRebalanceToTop);
  return __real__ZN3m3d4part16rebalance_to_topERNS_7netlist6DesignERKNS_3sta9StaResultEddPNS_4exec4PoolERKNS4_10StaOptionsE(
      d, timing, min_slack_ns, utilization, pool, sopt);
}

// cts
__attribute__((weak)) cts::ClockTreeReport
__real__ZN3m3d3cts16build_clock_treeERNS_7netlist6DesignERKNS0_10CtsOptionsE(
    netlist::Design&, const cts::CtsOptions&);
cts::ClockTreeReport
__wrap__ZN3m3d3cts16build_clock_treeERNS_7netlist6DesignERKNS0_10CtsOptionsE(
    netlist::Design& d, const cts::CtsOptions& o) {
  Span span(pb::kBuildClockTree);
  return __real__ZN3m3d3cts16build_clock_treeERNS_7netlist6DesignERKNS0_10CtsOptionsE(d, o);
}

__attribute__((weak)) cts::ClockTreeReport
__real__ZN3m3d3cts24annotate_clock_latenciesERNS_7netlist6DesignEPNS_4exec4PoolE(
    netlist::Design&, exec::Pool*);
cts::ClockTreeReport
__wrap__ZN3m3d3cts24annotate_clock_latenciesERNS_7netlist6DesignEPNS_4exec4PoolE(
    netlist::Design& d, exec::Pool* pool) {
  Span span(pb::kAnnotateClock);
  return __real__ZN3m3d3cts24annotate_clock_latenciesERNS_7netlist6DesignEPNS_4exec4PoolE(
      d, pool);
}

// power
__attribute__((weak)) power::PowerReport
__real__ZN3m3d5power13analyze_powerERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateEdRKNS0_12PowerOptionsE(
    const netlist::Design&, const route::RoutingEstimate*, double,
    const power::PowerOptions&);
power::PowerReport
__wrap__ZN3m3d5power13analyze_powerERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateEdRKNS0_12PowerOptionsE(
    const netlist::Design& d, const route::RoutingEstimate* routes,
    double freq_ghz, const power::PowerOptions& o) {
  Span span(pb::kAnalyzePower);
  return __real__ZN3m3d5power13analyze_powerERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateEdRKNS0_12PowerOptionsE(
      d, routes, freq_ghz, o);
}

// netlist
__attribute__((weak)) netlist::Netlist
__real__ZN3m3d7netlist13parse_verilogERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string&);
netlist::Netlist
__wrap__ZN3m3d7netlist13parse_verilogERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string& text) {
  Span span(pb::kParseVerilog);
  if (span.on()) pb::acc().parse_bytes += static_cast<long long>(text.size());
  return __real__ZN3m3d7netlist13parse_verilogERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      text);
}

// gen
__attribute__((weak)) netlist::Netlist
__real__ZN3m3d3gen11make_designERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_10GenOptionsE(
    const std::string&, const gen::GenOptions&);
netlist::Netlist
__wrap__ZN3m3d3gen11make_designERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_10GenOptionsE(
    const std::string& name, const gen::GenOptions& o) {
  Span span(pb::kMakeDesign);
  return __real__ZN3m3d3gen11make_designERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_10GenOptionsE(
      name, o);
}

// tech
__attribute__((weak)) tech::TechLib
__real__ZN3m3d4tech12make_libraryERKNS0_7LibSpecE(const tech::LibSpec&);
tech::TechLib __wrap__ZN3m3d4tech12make_libraryERKNS0_7LibSpecE(
    const tech::LibSpec& spec) {
  Span span(pb::kMakeLibrary);
  return __real__ZN3m3d4tech12make_libraryERKNS0_7LibSpecE(spec);
}

__attribute__((weak)) std::shared_ptr<const tech::TechLib>
__real__ZN3m3d4tech12make_12trackEv();
std::shared_ptr<const tech::TechLib> __wrap__ZN3m3d4tech12make_12trackEv() {
  Span span(pb::kMake12Track);
  return __real__ZN3m3d4tech12make_12trackEv();
}

__attribute__((weak)) std::shared_ptr<const tech::TechLib>
__real__ZN3m3d4tech11make_9trackEv();
std::shared_ptr<const tech::TechLib> __wrap__ZN3m3d4tech11make_9trackEv() {
  Span span(pb::kMake9Track);
  return __real__ZN3m3d4tech11make_9trackEv();
}

}  // extern "C"

namespace m3db::probe {

std::vector<const char*> unwrapped_entries() {
  // A weak __real_X is null when the program defines no X.
  const std::pair<Entry, bool> linked[] = {
      {kRunFlow,
       &__real__ZN3m3d4core8run_flowERKNS_7netlist7NetlistENS0_6ConfigERKNS0_11FlowOptionsE !=
           nullptr},
      {kFindMaxFrequency,
       &__real__ZN3m3d4core18find_max_frequencyERKNS_7netlist7NetlistENS0_6ConfigENS0_11FlowOptionsEddidPKNS_4exec3CtxE !=
           nullptr},
      {kGetOrRun,
       &__real__ZN3m3d4exec9FlowCache10get_or_runERKNS_7netlist7NetlistENS_4core6ConfigERKNS6_11FlowOptionsE !=
           nullptr},
      {kOptimizeTiming,
       &__real__ZN3m3d3opt15optimize_timingERNS_7netlist6DesignERKNS0_10OptOptionsE != nullptr},
      {kRunSta,
       &__real__ZN3m3d3sta7run_staERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateERKNS0_10StaOptionsE !=
           nullptr},
      {kStaRun, &__real__ZN3m3d3sta3Sta3runEv != nullptr},
      {kStaRetime, &__real__ZN3m3d3sta3Sta6retimeERKSt6vectorIiSaIiEE != nullptr},
      {kRouteDesign,
       &__real__ZN3m3d5route12route_designERKNS_7netlist6DesignERKNS0_12RouteOptionsE != nullptr},
      {kUpdateRoutes,
       &__real__ZN3m3d5route23update_routes_for_cellsERKNS_7netlist6DesignERKSt6vectorIiSaIiEEPNS0_15RoutingEstimateERKNS0_12RouteOptionsE !=
           nullptr},
      {kGlobalPlace,
       &__real__ZN3m3d5place12global_placeERNS_7netlist6DesignERKNS0_12PlaceOptionsE != nullptr},
      {kLegalize, &__real__ZN3m3d5place8legalizeERNS_7netlist6DesignE != nullptr},
      {kBinFm,
       &__real__ZN3m3d4part16bin_fm_partitionERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE !=
           nullptr},
      {kFmMincut,
       &__real__ZN3m3d4part9fm_mincutERNS_7netlist6DesignERKNS0_9FmOptionsEPKSt6vectorIcSaIcEE !=
           nullptr},
      {kTimingPartition,
       &__real__ZN3m3d4part16timing_partitionERNS_7netlist6DesignERKNS_3sta9StaResultERKNS0_22TimingPartitionOptionsE !=
           nullptr},
      {kRepartitionEco,
       &__real__ZN3m3d4part15repartition_ecoERNS_7netlist6DesignERKNS0_18RepartitionOptionsEPKNS0_8EcoHooksE !=
           nullptr},
      {kRebalanceToTop,
       &__real__ZN3m3d4part16rebalance_to_topERNS_7netlist6DesignERKNS_3sta9StaResultEddPNS_4exec4PoolERKNS4_10StaOptionsE !=
           nullptr},
      {kBuildClockTree,
       &__real__ZN3m3d3cts16build_clock_treeERNS_7netlist6DesignERKNS0_10CtsOptionsE != nullptr},
      {kAnnotateClock,
       &__real__ZN3m3d3cts24annotate_clock_latenciesERNS_7netlist6DesignEPNS_4exec4PoolE !=
           nullptr},
      {kAnalyzePower,
       &__real__ZN3m3d5power13analyze_powerERKNS_7netlist6DesignEPKNS_5route15RoutingEstimateEdRKNS0_12PowerOptionsE !=
           nullptr},
      {kParseVerilog,
       &__real__ZN3m3d7netlist13parse_verilogERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE !=
           nullptr},
      {kMakeDesign,
       &__real__ZN3m3d3gen11make_designERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_10GenOptionsE !=
           nullptr},
      {kMakeLibrary, &__real__ZN3m3d4tech12make_libraryERKNS0_7LibSpecE != nullptr},
      {kMake12Track, &__real__ZN3m3d4tech12make_12trackEv != nullptr},
      {kMake9Track, &__real__ZN3m3d4tech11make_9trackEv != nullptr},
  };
  static_assert(std::size(linked) == kEntryCount, "one row per entry point");
  std::vector<const char*> out;
  for (const auto& [entry, ok] : linked)
    if (!ok) out.push_back(entry_name(entry));
  return out;
}

}  // namespace m3db::probe
