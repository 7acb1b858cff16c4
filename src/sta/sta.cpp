#include "sta/sta.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdint>
#include <optional>

#include "exec/pool.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace m3d::sta {

using netlist::CellKind;
using netlist::kInvalidId;
using netlist::Pin;
using netlist::PinDir;
using tech::Transition;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr double kClockPinSlew = 0.025;  // slew asserted at FF clock pins

// Port constraints (set_input_transition / set_input_delay /
// set_output_delay), the same for every analysis.
/// Slew asserted at primary inputs.
constexpr double kInputSlewNs = 0.020;
/// Arrival asserted at primary inputs.
constexpr double kInputDelayNs = 0.0;
/// Required margin at primary outputs.
constexpr double kOutputMarginNs = 0.0;
/// Give primary outputs a virtual capture clock at the design's mean flop
/// latency (an output-delay constraint that includes the clock network
/// latency). Without it every reg→port path loses the whole launch
/// latency against an un-latencied required time.
constexpr bool kCompensatePortLatency = true;

// Pins per parallel_for chunk for level propagation, endpoints and the
// retime buckets. A level of one chunk runs inline; the result is the
// same either way (single-writer gather), only the scheduling differs.
constexpr int kPinChunk = 192;

// Pins, cells or nets per chunk of the engine-construction sweeps. Every
// sweep writes only its own chunk's slots, so the structure is the same at
// any pool size; a design under 32k pins (the paper tables' designs) builds
// in one inline chunk per sweep.
constexpr int kBuildChunk = 1 << 15;

// Frontier pins per chunk of the leveling rounds. The paper tables'
// widest level has under 2.5k pins, so their rounds run inline.
constexpr int kFrontierChunk = 1 << 13;

// Endpoints per independently sorted run of aggregate()'s ranking.
constexpr int kSortChunk = 1 << 14;

int opp(int t) { return 1 - t; }

}  // namespace

namespace detail {

/// Level-synchronous STA engine. The timing graph's static structure
/// (participation, pin roles, topological levels, adjacency) is built once
/// from the netlist; forward/backward propagation then visits one level at
/// a time, computing every pin of the level in parallel. Each pin is
/// written by exactly one task that *gathers* from its predecessors in a
/// fixed order, so results are bitwise-identical for any pool size.
///
/// retime() re-propagates only the cone of a dirty cell set using
/// level-bucketed worklists with exact (bitwise) change detection, and is
/// bitwise-identical to a full run() — see DESIGN.md for the invariants.
///
/// Corner vectorization: with K = opt.corners.count > 1 the arrival,
/// min-arrival, required and endpoint slack/hold arrays become stride-K
/// SoA lanes — lane k of pin p lives at p*K + k — and the gather kernels
/// run a tight contiguous inner loop over the lanes. Expensive shared
/// work (NLDM index search + bilinear interpolation, Elmore net delays,
/// graph structure) is computed once at the nominal corner and scaled
/// per lane by the cell tier's factor, which models inter-tier process
/// variation as a multiplicative device-delay shift — the same
/// delay-only derating a `set_timing_derate` OCV flow applies, so slews
/// (and the NLDM lookups they index) stay corner-shared. Wire delays
/// are also corner-shared: the modeled variation is FEOL (transistors
/// differ between the tiers' fabrication passes), not BEOL. Because
/// lane 0's factor is exactly the spec's derate (1.0 by default) and
/// x*1.0 is bit-exact for every finite double, lane 0 reproduces the
/// scalar engine bit for bit at any pool size, and lanes never interact.
class StaEngine {
 public:
  StaEngine(const Design& d, const route::RoutingEstimate* routes,
            const StaOptions& opt)
      : d_(d),
        nl_(d.nl()),
        routes_(routes),
        opt_(opt),
        pool_(exec::pool_or_global(opt.pool)) {
    const tech::CornerSet corners = tech::CornerSet::generate(opt.corners);
    K_ = corners.count();
    fac_[0] = corners.factors(0);
    fac_[1] = corners.factors(1);
    build_structure();
  }

  const StaResult& run();
  const StaResult& retime(const std::vector<CellId>& dirty);
  const StaResult& result() const { return res_; }
  StaResult take_result() { return std::move(res_); }

 private:
  /// How a pin's forward value is produced.
  enum class Role : unsigned char {
    kNone,     ///< not in the data graph (clock network)
    kLaunch,   ///< in-degree 0: PI / FF Q / macro out (or dead input)
    kNetSink,  ///< input pin fed by a participating driver through a net
    kCombOut,  ///< output of a combinational cell, fed by its input pins
  };

  void build_structure();
  bool pin_participates(PinId p) const;
  /// A combinational cell on the data graph (not a clock buffer).
  bool data_comb(CellId c) const {
    return nl_.cell_kind(c) == CellKind::Comb &&
           !clkbuf_[static_cast<std::size_t>(c)];
  }
  /// Level the participating pins in pooled frontier rounds and return
  /// the level count; throws util::Error on a combinational loop.
  std::size_t level_pins();
  /// Sort eps_ by (slack, pin): pooled runs, then pooled pairwise merges.
  void sort_endpoints();

  // Gather kernels: each writes only the state of pin `p` (and, for
  // kCombOut/kNetSink, the stored arc delays *at* `p`), reading only
  // lower-level pins — safe to run concurrently within one level.
  void compute_forward(PinId p);
  void compute_required(PinId p);
  /// Endpoint constraint at `p`: required time, setup, slack, hold slack.
  /// Writes only this endpoint's slots.
  void eval_endpoint(PinId p);

  double net_load_ff(NetId n) const;
  void net_arc(PinId driver, int sink_ordinal, PinId sink, double* delay,
               double* slew_add, bool* via_miv, double* wirelen) const;
  double arc_derate(CellId cell, PinId in_pin) const;
  void init_launch(PinId p);
  /// The arc from `in_pin` of combinational cell `c` (library view `lc`)
  /// to `out_pin`, which drives `load` fF: stores the arc's delays in the
  /// output's row and folds the arc into the output's arrivals.
  void eval_cell_arc(CellId c, const tech::LibCell& lc, double load,
                     PinId in_pin, PinId out_pin);

  /// The cell-arc row of pin `pi`: [in*2 + T] for a combinational output,
  /// empty for every other pin.
  double* arc_row(std::size_t pi) { return cell_arc_.data() + arc_off_[pi]; }
  double* arc_row_end(std::size_t pi) {
    return cell_arc_.data() + arc_off_[pi + 1];
  }

  void compute_port_latency();
  void run_level(const PinArray<PinId>& pins, bool forward);
  void aggregate();

  /// retime()'s body: seed the dirty cone, then walk it forward and
  /// backward. Leaves the scratch all-clear when it returns.
  void retime_cone(const std::vector<CellId>& dirty);
  /// Clear the seen flags of the dirty cells and their nets.
  void clear_seen(const std::vector<CellId>& dirty);
  /// Clear every flag and bucket a retime_cone that threw left set.
  void drop_retime_scratch(const std::vector<CellId>& dirty);

  const Design& d_;
  const netlist::Netlist& nl_;
  const route::RoutingEstimate* routes_;
  StaOptions opt_;
  exec::Pool& pool_;

  // ---- static structure (valid across tier moves and drive changes) -------
  // Per-pin arrays are PinArrays: construction writes every slot of each
  // in pooled chunks.
  PinArray<char> part_;           // per pin: participates in the data graph
  PinArray<char> clkbuf_;         // per cell: is a clock buffer
  PinArray<Role> role_;           // per pin
  PinArray<int> level_;           // per pin: topological level (-1 if none)
  std::vector<PinArray<PinId>> levels_;  // pins per level, id-ascending
  PinArray<PinId> drv_pin_;       // per kNetSink pin: its net driver
  PinArray<int> sink_ord_;        // per kNetSink pin: ordinal among sinks
  // Forward successors / predecessors per pin (CSR), participating only.
  PinArray<PinId> succ_, preds_;
  PinArray<int> succ_off_, preds_off_;
  PinArray<PinId> ep_pins_;       // endpoint pins, id-ascending
  PinArray<int> ep_index_;        // per pin: index into ep arrays, -1
  std::size_t participating_ = 0;

  /// Corner-factor lane index of a cell: its tier's contiguous factors.
  const double* factors(CellId c) const {
    return fac_[d_.tier(c) == netlist::kTopTier ? 1 : 0].data();
  }

  // ---- corner lanes -------------------------------------------------------
  int K_ = 1;                   // corner lanes; 1 = scalar engine
  std::vector<double> fac_[2];  // per tier: K delay factors (lane 0 nominal)

  // ---- dynamic state (res_ holds arr/req/slew/pred) -----------------------
  // arr_min_, ep_slack_ and ep_hold_ are stride-K like res_'s arr/req;
  // slew_, pred_, net_arc_delay_, cell_arc_ and ep_required_ stay
  // corner-shared (delay-only derating: slews, wire delays and clock
  // constraints do not vary across the modeled corners).
  PinArray<double> arr_min_[2];
  PinArray<double> net_arc_delay_;  // per sink pin
  // Cell-arc delays, flat with per-pin offsets (CSR): pin p's row is
  // cell_arc_[arc_off_[p], arc_off_[p + 1]), nonempty only for
  // combinational outputs.
  PinArray<double> cell_arc_;
  PinArray<int> arc_off_;
  std::size_t max_arc_row_ = 0;  // longest row
  PinArray<double> ep_slack_;     // +inf = unreachable endpoint
  PinArray<double> ep_hold_;      // +inf = no hold check at endpoint
  PinArray<double> ep_required_;  // capture-edge required time
  double port_latency_ = 0.0;
  /// res_ is a complete timing of the design: false until a run()
  /// completes, and from the start of each run() or retime() until it
  /// completes, so one that throws leaves retime() refusing until run().
  bool has_run_ = false;

  // ---- retime scratch -----------------------------------------------------
  // Sized by the first retime, all-clear between calls: each retime
  // resets exactly the flags and buckets it touched, so it costs
  // O(touched pins), not O(pins + cells + nets + levels).
  std::vector<char> fwd_pending_, bwd_pending_;  // per pin
  std::vector<char> cell_seen_;                  // per cell
  std::vector<char> net_seen_;                   // per net
  std::vector<std::vector<PinId>> fwd_wl_, bwd_wl_;  // per level
  std::vector<PinId> redo_eps_;
  std::vector<double> fwd_olds_;  // per bucket slot: forward capture
  std::vector<double> req_olds_;  // per bucket slot: required capture
  // aggregate()'s ranking buffer and sort_endpoints()' merge target.
  std::vector<std::pair<double, PinId>> eps_, eps_merge_;

  StaResult res_;
};

bool StaEngine::pin_participates(PinId p) const {
  const Pin& pp = nl_.pin(p);
  if (pp.is_clock) return false;
  if (pp.net != kInvalidId && nl_.net_is_clock(pp.net)) return false;
  if (clkbuf_[static_cast<std::size_t>(pp.cell)]) return false;
  return true;
}

void StaEngine::build_structure() {
  const int np = nl_.pin_count();
  const auto npu = static_cast<std::size_t>(np);
  const auto n_pin_chunks =
      static_cast<std::size_t>((np + kBuildChunk - 1) / kBuildChunk);

  // ---- clock buffers (per cell) ------------------------------------------
  // A combinational cell has no clock pin: its inputs and outputs are all
  // its pins.
  auto on_clock_net = [&](PinId p) {
    const NetId n = nl_.pin(p).net;
    return n != kInvalidId && nl_.net_is_clock(n);
  };
  const int nc = nl_.cell_count();
  clkbuf_.resize(static_cast<std::size_t>(nc));
  exec::for_chunks(pool_, nc, kBuildChunk, [&](int, int lo, int hi) {
    for (CellId c = lo; c < hi; ++c) {
      bool clock = false;
      if (nl_.cell_kind(c) == CellKind::Comb) {
        const auto ins = nl_.input_pins_of(c);
        const auto outs = nl_.output_pins_of(c);
        clock = std::any_of(ins.begin(), ins.end(), on_clock_net) ||
                std::any_of(outs.begin(), outs.end(), on_clock_net);
      }
      clkbuf_[static_cast<std::size_t>(c)] = clock ? 1 : 0;
    }
  });

  // ---- participation and pin roles (per pin, then per net) ---------------
  // Every participating pin starts as a combinational output or a launch
  // point; the net sweep then marks each driven net sink, whose one writer
  // is its net.
  part_.resize(npu);
  role_.resize(npu);
  drv_pin_.resize(npu);
  sink_ord_.resize(npu);
  std::vector<std::size_t> chunk_part(n_pin_chunks);
  exec::for_chunks(pool_, np, kBuildChunk, [&](int ch, int lo, int hi) {
    std::size_t count = 0;
    for (PinId p = lo; p < hi; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      const bool on = pin_participates(p);
      const Pin& pp = nl_.pin(p);
      part_[pi] = on ? 1 : 0;
      count += on ? 1 : 0;
      role_[pi] = !on ? Role::kNone
                  : pp.dir == PinDir::Output && data_comb(pp.cell)
                      ? Role::kCombOut
                      : Role::kLaunch;
      drv_pin_[pi] = kInvalidId;
      sink_ord_[pi] = -1;
    }
    chunk_part[static_cast<std::size_t>(ch)] = count;
  });
  participating_ = 0;
  for (const std::size_t count : chunk_part) participating_ += count;
  const int nn = nl_.net_count();
  exec::for_chunks(pool_, nn, kBuildChunk, [&](int, int lo, int hi) {
    for (NetId n = lo; n < hi; ++n) {
      const PinId drv = nl_.net_driver(n);
      if (nl_.net_is_clock(n) || drv == kInvalidId) continue;
      if (!part_[static_cast<std::size_t>(drv)]) continue;
      int ord = 0;
      nl_.for_each_sink(n, [&](PinId s) {
        const int o = ord++;
        const auto si = static_cast<std::size_t>(s);
        if (!part_[si]) return;
        role_[si] = Role::kNetSink;
        drv_pin_[si] = drv;
        sink_ord_[si] = o;
      });
    }
  });

  // ---- adjacency and cell-arc rows (participating only; CSR) -------------
  // Successors: an output's participating net sinks, a data cell input's
  // cell outputs. Predecessors, their transpose: a net sink's driver, a
  // combinational output's cell inputs in pin order. Cell-arc rows:
  // [in*2 + T] per combinational output. One sweep counts every pin's
  // rows, a second turns counts into offsets from its chunk's base and
  // fills the rows.
  auto for_each_succ = [&](PinId u, auto&& fn) {
    const Pin& up = nl_.pin(u);
    if (up.dir == PinDir::Output) {
      if (up.net == kInvalidId || nl_.net_is_clock(up.net)) return;
      nl_.for_each_sink(up.net, [&](PinId s) {
        if (part_[static_cast<std::size_t>(s)]) fn(s);
      });
    } else if (data_comb(up.cell)) {
      for (PinId o : nl_.output_pins_of(up.cell)) fn(o);
    }
  };
  auto for_each_pred = [&](PinId v, auto&& fn) {
    const auto vi = static_cast<std::size_t>(v);
    if (role_[vi] == Role::kNetSink) {
      fn(drv_pin_[vi]);
    } else if (role_[vi] == Role::kCombOut) {
      for (PinId in : nl_.input_pins_of(nl_.pin(v).cell)) fn(in);
    }
  };
  auto arc_row_len = [&](PinId p) {
    if (role_[static_cast<std::size_t>(p)] != Role::kCombOut) return 0;
    return 2 * static_cast<int>(nl_.input_pins_of(nl_.pin(p).cell).size());
  };
  struct RowTotals {
    int succ = 0, preds = 0, arcs = 0;
  };
  std::vector<RowTotals> chunk_rows(n_pin_chunks);
  succ_off_.resize(npu + 1);
  preds_off_.resize(npu + 1);
  arc_off_.resize(npu + 1);
  exec::for_chunks(pool_, np, kBuildChunk, [&](int ch, int lo, int hi) {
    RowTotals t;
    for (PinId p = lo; p < hi; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      int succs = 0, preds = 0;
      if (part_[pi]) {
        for_each_succ(p, [&](PinId) { ++succs; });
        for_each_pred(p, [&](PinId) { ++preds; });
      }
      const int arcs = arc_row_len(p);
      t.succ += succs;
      t.preds += preds;
      t.arcs += arcs;
      succ_off_[pi + 1] = succs;
      preds_off_[pi + 1] = preds;
      arc_off_[pi + 1] = arcs;
    }
    chunk_rows[static_cast<std::size_t>(ch)] = t;
  });
  RowTotals total;
  for (RowTotals& t : chunk_rows) {
    const RowTotals count = t;
    t = total;  // now the chunk's base
    total.succ += count.succ;
    total.preds += count.preds;
    total.arcs += count.arcs;
  }
  succ_.resize(static_cast<std::size_t>(total.succ));
  preds_.resize(static_cast<std::size_t>(total.preds));
  succ_off_[0] = preds_off_[0] = arc_off_[0] = 0;
  std::vector<int> chunk_max_arc(n_pin_chunks, 0);
  exec::for_chunks(pool_, np, kBuildChunk, [&](int ch, int lo, int hi) {
    RowTotals at = chunk_rows[static_cast<std::size_t>(ch)];
    int max_arc = 0;
    for (PinId p = lo; p < hi; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (part_[pi]) {
        for_each_succ(p, [&](PinId s) {
          succ_[static_cast<std::size_t>(at.succ++)] = s;
        });
        for_each_pred(p, [&](PinId u) {
          preds_[static_cast<std::size_t>(at.preds++)] = u;
        });
      }
      max_arc = std::max(max_arc, arc_off_[pi + 1]);
      at.arcs += arc_off_[pi + 1];
      succ_off_[pi + 1] = at.succ;
      preds_off_[pi + 1] = at.preds;
      arc_off_[pi + 1] = at.arcs;
    }
    chunk_max_arc[static_cast<std::size_t>(ch)] = max_arc;
  });
  max_arc_row_ = 0;
  for (const int m : chunk_max_arc)
    max_arc_row_ = std::max(max_arc_row_, static_cast<std::size_t>(m));

  // ---- levels ------------------------------------------------------------
  const std::size_t n_levels = level_pins();

  // ---- level buckets and endpoints (pin order) ---------------------------
  // One sweep counts each chunk's pins per level and its endpoints; the
  // column scans turn the counts into each chunk's first slot, and the
  // last sweep fills the buckets and endpoint list (id-ascending, as a
  // serial pin walk appends them) and first-touches the state arrays.
  auto is_endpoint = [&](PinId p) {
    if (!part_[static_cast<std::size_t>(p)]) return false;
    const Pin& pp = nl_.pin(p);
    if (pp.dir != PinDir::Input) return false;
    const CellKind k = nl_.cell_kind(pp.cell);
    return k == CellKind::Seq || k == CellKind::Macro ||
           k == CellKind::PrimaryOut;
  };
  const std::size_t cols = n_levels + 1;  // levels, then endpoints
  std::vector<int> slot(n_pin_chunks * cols, 0);
  exec::for_chunks(pool_, np, kBuildChunk, [&](int ch, int lo, int hi) {
    std::vector<int> count(cols, 0);
    for (PinId p = lo; p < hi; ++p) {
      if (const int lv = level_[static_cast<std::size_t>(p)]; lv >= 0)
        ++count[static_cast<std::size_t>(lv)];
      if (is_endpoint(p)) ++count[n_levels];
    }
    std::copy(count.begin(), count.end(),
              slot.begin() + static_cast<std::ptrdiff_t>(ch * cols));
  });
  levels_.resize(n_levels);
  for (std::size_t j = 0; j < cols; ++j) {
    int run = 0;
    for (std::size_t ch = 0; ch < n_pin_chunks; ++ch) {
      int& s = slot[ch * cols + j];
      const int count = s;
      s = run;
      run += count;
    }
    auto& filled = j < n_levels ? levels_[j] : ep_pins_;
    filled.resize(static_cast<std::size_t>(run));
  }

  // ---- dynamic-state storage ---------------------------------------------
  // Allocated here, first written in pooled chunks. Slots run() always
  // writes before anything reads them stay unwritten until then: a
  // participating pin's arrivals, min-arrivals, required times, slews and
  // predecessors (compute_forward and compute_required reset a pin's own
  // slots first and read only lower-level pins forward, higher-level pins
  // backward, and the endpoint state eval_endpoint wrote in between), every
  // cell-arc row (all belong to combinational outputs, which
  // compute_forward zero-fills), and every endpoint's slack, hold slack and
  // required time (eval_endpoint writes them for every endpoint before
  // aggregate() reads them). retime() and the StaResult accessors are
  // valid only after a run(). Pins off the data graph keep the initial
  // values below, which the accessors report.
  const auto K = static_cast<std::size_t>(K_);
  const std::size_t n_eps = ep_pins_.size();
  ep_index_.resize(npu);
  ep_slack_.resize(n_eps * K);
  ep_hold_.resize(n_eps * K);
  ep_required_.resize(n_eps);
  for (int t : {0, 1}) {
    res_.arr_[t].resize(npu * K);
    res_.req_[t].resize(npu * K);
    res_.slew_[t].resize(npu);
    res_.pred_[t].resize(npu);
    arr_min_[t].resize(npu * K);
  }
  net_arc_delay_.resize(npu);
  res_.setup_at_endpoint_.resize(npu);
  cell_arc_.resize(static_cast<std::size_t>(arc_off_[npu]));
  exec::for_chunks(pool_, np, kBuildChunk, [&](int ch, int lo, int hi) {
    const auto first = slot.begin() + static_cast<std::ptrdiff_t>(ch * cols);
    std::vector<int> next(first, first + static_cast<std::ptrdiff_t>(cols));
    for (PinId p = lo; p < hi; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (const int lv = level_[pi]; lv >= 0) {
        const auto l = static_cast<std::size_t>(lv);
        levels_[l][static_cast<std::size_t>(next[l]++)] = p;
      }
      int ei = -1;
      if (is_endpoint(p)) {
        ei = next[n_levels]++;
        ep_pins_[static_cast<std::size_t>(ei)] = p;
      }
      ep_index_[pi] = ei;
      net_arc_delay_[pi] = 0.0;
      res_.setup_at_endpoint_[pi] = 0.0;
      if (part_[pi]) continue;
      for (int t : {0, 1}) {
        std::fill_n(res_.arr_[t].data() + pi * K, K, kNegInf);
        std::fill_n(res_.req_[t].data() + pi * K, K, kPosInf);
        std::fill_n(arr_min_[t].data() + pi * K, K, kPosInf);
        res_.slew_[t][pi] = 0.0;
        res_.pred_[t][pi] = {};
      }
    }
  });
  res_.lanes_ = K_;
  res_.corners_ = K_;
  res_.design_ = &d_;
}

std::size_t StaEngine::level_pins() {
  const int np = nl_.pin_count();
  level_.resize(static_cast<std::size_t>(np));
  // Round 0: the launch points, every participating pin without
  // predecessors.
  std::vector<PinId> frontier = exec::ordered_gather<PinId>(
      pool_, np, kBuildChunk, [&](int p, std::vector<PinId>& out) {
        const bool launch = role_[static_cast<std::size_t>(p)] == Role::kLaunch;
        level_[static_cast<std::size_t>(p)] = launch ? 0 : -1;
        if (launch) out.push_back(p);
      });
  // Round r's frontier is every pin whose last predecessor was leveled in
  // round r − 1, so a pin's level is the round in which its in-degree
  // reaches 0 — its longest path from a launch point, as Kahn's leveling
  // gives it. Each ready pin is emitted, and its level written, once: a
  // net sink by its driver (its only predecessor), the outputs of a
  // combinational cell by the last of the cell's inputs (their shared
  // predecessor row) of level r − 1. So each round writes disjoint slots
  // and yields the same frontier at any pool size. An input that another
  // chunk levels in the same round reads as −1 or r, "not ready" either
  // way; relaxed atomic accesses keep that read race-free.
  std::size_t leveled = 0;
  std::size_t n_levels = 0;
  while (!frontier.empty()) {
    leveled += frontier.size();
    const int r = static_cast<int>(++n_levels);
    frontier = exec::ordered_gather<PinId>(
        pool_, static_cast<int>(frontier.size()), kFrontierChunk,
        [&](int i, std::vector<PinId>& out) {
          const auto ui =
              static_cast<std::size_t>(frontier[static_cast<std::size_t>(i)]);
          const int k0 = succ_off_[ui], k1 = succ_off_[ui + 1];
          if (k0 == k1) return;
          const auto v0 =
              static_cast<std::size_t>(succ_[static_cast<std::size_t>(k0)]);
          if (role_[v0] == Role::kCombOut) {
            PinId last = kInvalidId;
            for (int j = preds_off_[v0]; j < preds_off_[v0 + 1]; ++j) {
              const PinId in = preds_[static_cast<std::size_t>(j)];
              const int lv =
                  std::atomic_ref<int>(level_[static_cast<std::size_t>(in)])
                      .load(std::memory_order_relaxed);
              if (lv < 0 || lv >= r) return;
              if (lv == r - 1) last = in;
            }
            if (static_cast<std::size_t>(last) != ui) return;
          }
          for (int k = k0; k < k1; ++k) {
            const PinId v = succ_[static_cast<std::size_t>(k)];
            std::atomic_ref<int>(level_[static_cast<std::size_t>(v)])
                .store(r, std::memory_order_relaxed);
            out.push_back(v);
          }
        });
  }
  M3D_CHECK_MSG(leveled == participating_,
                "combinational loop detected: " << participating_ - leveled
                                                << " pins unreachable");
  return n_levels;
}

double StaEngine::net_load_ff(NetId n) const {
  double load = 0.0;
  nl_.for_each_sink(n, [&](PinId s) { load += d_.pin_cap_ff(s); });
  if (routes_ != nullptr)
    load += routes_->nets[static_cast<std::size_t>(n)].wire_cap_ff;
  return load;
}

void StaEngine::net_arc(PinId driver, int sink_ordinal, PinId sink,
                        double* delay, double* slew_add, bool* via_miv,
                        double* wirelen) const {
  *delay = 0.0;
  *slew_add = 0.0;
  *via_miv = false;
  *wirelen = 0.0;
  if (routes_ == nullptr) return;
  const Pin& dp = nl_.pin(driver);
  const auto& nr = routes_->nets[static_cast<std::size_t>(dp.net)];
  if (static_cast<std::size_t>(sink_ordinal) >= nr.sink_path_um.size()) return;
  const double len = nr.sink_path_um[static_cast<std::size_t>(sink_ordinal)];
  const bool crosses =
      nr.sink_crosses_tier[static_cast<std::size_t>(sink_ordinal)];
  const auto& wire = d_.lib(netlist::kBottomTier).wire();
  const double sink_cap = d_.pin_cap_ff(sink);
  double dly = wire.elmore_ns(len, sink_cap);
  if (crosses) {
    const auto& miv = d_.lib(netlist::kBottomTier).miv();
    dly += miv.res_kohm * (sink_cap + miv.cap_ff) * tech::kRCtoNs;
  }
  *delay = dly;
  // RC wire shaping degrades the edge; 10–90 % of an RC step is ~2.2 RC,
  // i.e. roughly 2× the 50 % delay — combined quadratically downstream.
  *slew_add = 2.0 * dly;
  *via_miv = crosses;
  *wirelen = len;
}

double StaEngine::arc_derate(CellId cell, PinId in_pin) const {
  if (!opt_.boundary_derates || d_.num_tiers() < 2) return 1.0;
  const Pin& pp = nl_.pin(in_pin);
  if (pp.net == kInvalidId) return 1.0;
  const PinId drv = nl_.net_driver(pp.net);
  if (drv == kInvalidId) return 1.0;
  const int tier_drv = d_.tier(nl_.pin(drv).cell);
  const int tier_cell = d_.tier(cell);
  if (tier_drv == tier_cell) return 1.0;
  const double vg = d_.lib(tier_drv).vdd();
  const tech::TechLib& lc = d_.lib_of(cell);
  return tech::boundary_delay_derate(vg, lc.vdd(), lc.vthp());
}

void StaEngine::init_launch(PinId p) {
  const Pin& pp = nl_.pin(p);
  const double lat = opt_.ideal_clock ? 0.0 : d_.clock_latency(pp.cell);
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = static_cast<std::size_t>(p) * K;
  switch (nl_.cell_kind(pp.cell)) {
    case CellKind::PrimaryIn:
      for (int t : {0, 1}) {
        // PI arrival/slew are external constraints (set_input_delay), not
        // device delays: every corner lane sees the same value.
        std::fill_n(res_.arr_[t].data() + pb, K, kInputDelayNs);
        // Primary inputs do not launch hold races: port min-arrival is an
        // external constraint (set_input_delay -min) we do not model, so
        // PI-launched paths stay unconstrained for hold.
        res_.slew_[t][static_cast<std::size_t>(p)] = kInputSlewNs;
      }
      break;
    case CellKind::Seq: {
      const tech::LibCell* lc = d_.lib_cell(pp.cell);
      const double load = pp.net == kInvalidId ? 0.0 : net_load_ff(pp.net);
      const double* fac = factors(pp.cell);
      for (int t : {0, 1}) {
        const auto& arc = lc->arc(0);  // DFF arc 0 models CLK→Q
        const double c2q = arc.delay[t].lookup(kClockPinSlew, load);
        for (std::size_t k = 0; k < K; ++k) {
          const double v = lat + c2q * fac[k];
          res_.arr_[t][pb + k] = v;
          arr_min_[t][pb + k] = v;
        }
        res_.slew_[t][static_cast<std::size_t>(p)] =
            arc.out_slew[t].lookup(kClockPinSlew, load);
      }
      break;
    }
    case CellKind::Macro: {
      const tech::MacroCell* mc = d_.macro(pp.cell);
      const double* fac = factors(pp.cell);
      for (int t : {0, 1}) {
        for (std::size_t k = 0; k < K; ++k) {
          const double v = lat + mc->access_ns * fac[k];
          res_.arr_[t][pb + k] = v;
          arr_min_[t][pb + k] = v;
        }
        res_.slew_[t][static_cast<std::size_t>(p)] = mc->out_slew_ns;
      }
      break;
    }
    default:
      break;
  }
}

void StaEngine::eval_cell_arc(CellId c, const tech::LibCell& lc,
                              double load, PinId in_pin, PinId out_pin) {
  const Pin& ip = nl_.pin(in_pin);
  const auto& arc = lc.arc(ip.index);
  const double derate = arc_derate(c, in_pin);
  const double* fac = factors(c);
  const std::size_t K = static_cast<std::size_t>(K_);
  const auto pi = static_cast<std::size_t>(in_pin);
  const auto po = static_cast<std::size_t>(out_pin);
  const std::size_t pib = pi * K;
  const std::size_t pob = po * K;
  for (int t : {0, 1}) {
    const int in_t = arc.inverting ? opp(t) : t;
    const double* ain = res_.arr_[in_t].data() + pib;
    // Reachability is structural (factors are finite and positive), so
    // lane 0's -inf speaks for every lane.
    if (ain[0] == kNegInf) continue;
    const double s_in = std::max(res_.slew_[in_t][pi], 1e-4);
    const double dly = arc.delay[t].lookup(s_in, load) * derate;
    arc_row(po)[ip.index * 2 + t] = dly;
    double* arrt = res_.arr_[t].data() + pob;
    const double* amin_in = arr_min_[in_t].data() + pib;
    double* amin_out = arr_min_[t].data() + pob;
    for (std::size_t k = 0; k < K; ++k) {
      const double dk = dly * fac[k];
      const double cand = ain[k] + dk;
      if (cand > arrt[k]) {
        arrt[k] = cand;
        if (k == 0) {
          res_.pred_[t][po] = {in_pin, in_t, dly, 0.0, false, false};
          // Winner-slew propagation: the output edge is shaped by the
          // input that switches last. (Max-slew propagation would let one
          // slow side-input poison every downstream path — overly
          // pessimistic in the heterogeneous setting where slow-tier
          // fan-in is routine.) Slews are corner-shared, so the nominal
          // lane's winner decides the stored slew.
          res_.slew_[t][po] = arc.out_slew[t].lookup(s_in, load) * derate;
        }
      }
      // Min-delay (hold) propagation shares the same arc delays.
      const double a_in_min = amin_in[k];
      if (a_in_min != kPosInf)
        amin_out[k] = std::min(amin_out[k], a_in_min + dk);
    }
  }
}

void StaEngine::compute_forward(PinId p) {
  const auto pi = static_cast<std::size_t>(p);
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = pi * K;
  for (int t : {0, 1}) {
    std::fill_n(res_.arr_[t].data() + pb, K, kNegInf);
    std::fill_n(arr_min_[t].data() + pb, K, kPosInf);
    res_.slew_[t][pi] = 0.0;
    res_.pred_[t][pi] = {};
  }
  switch (role_[pi]) {
    case Role::kLaunch:
      init_launch(p);
      break;
    case Role::kNetSink: {
      const PinId u = drv_pin_[pi];
      const auto ui = static_cast<std::size_t>(u);
      double dly, slew_add, wlen;
      bool via_miv;
      net_arc(u, sink_ord_[pi], p, &dly, &slew_add, &via_miv, &wlen);
      net_arc_delay_[pi] = dly;
      const std::size_t ub = ui * K;
      for (int t : {0, 1}) {
        // Wire delay is corner-shared; each lane just shifts by it.
        const double* amin_u = arr_min_[t].data() + ub;
        double* amin_p = arr_min_[t].data() + pb;
        for (std::size_t k = 0; k < K; ++k)
          if (amin_u[k] != kPosInf) amin_p[k] = amin_u[k] + dly;
        const double* arr_u = res_.arr_[t].data() + ub;
        if (arr_u[0] == kNegInf) continue;
        double* arr_p = res_.arr_[t].data() + pb;
        for (std::size_t k = 0; k < K; ++k) arr_p[k] = arr_u[k] + dly;
        res_.pred_[t][pi] = {u, t, dly, wlen, true, via_miv};
        res_.slew_[t][pi] = std::hypot(res_.slew_[t][ui], slew_add);
      }
      break;
    }
    case Role::kCombOut: {
      std::fill(arc_row(pi), arc_row_end(pi), 0.0);
      // One library lookup and one load sum per output, shared by every
      // input arc.
      const Pin& pp = nl_.pin(p);
      const tech::LibCell& lc = *d_.lib_cell(pp.cell);
      const double load = pp.net == kInvalidId ? 0.0 : net_load_ff(pp.net);
      for (PinId in : nl_.input_pins_of(pp.cell))
        eval_cell_arc(pp.cell, lc, load, in, p);
      break;
    }
    default:
      break;
  }
}

void StaEngine::eval_endpoint(PinId p) {
  const auto pi = static_cast<std::size_t>(p);
  const int ei = ep_index_[pi];
  const Pin& pp = nl_.pin(p);
  const CellKind kind = nl_.cell_kind(pp.cell);
  double setup = 0.0;
  double lat = 0.0;
  double hold_req = 0.0;
  if (kind == CellKind::Seq) {
    setup = d_.lib_cell(pp.cell)->setup_ns;
    hold_req = d_.lib_cell(pp.cell)->hold_ns;
    lat = opt_.ideal_clock ? 0.0 : d_.clock_latency(pp.cell);
  } else if (kind == CellKind::Macro) {
    setup = d_.macro(pp.cell)->setup_ns;
    lat = opt_.ideal_clock ? 0.0 : d_.clock_latency(pp.cell);
  } else {  // PrimaryOut
    setup = kOutputMarginNs;
    lat = port_latency_;
  }
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = pi * K;
  const std::size_t eb = static_cast<std::size_t>(ei) * K;
  // Hold check (min-delay race): earliest arrival vs capture edge.
  std::fill_n(ep_hold_.data() + eb, K, kPosInf);
  if (opt_.hold_analysis && kind != CellKind::PrimaryOut) {
    for (std::size_t k = 0; k < K; ++k) {
      double earliest = kPosInf;
      for (int t : {0, 1})
        earliest = std::min(earliest, arr_min_[t][pb + k]);
      if (earliest != kPosInf) ep_hold_[eb + k] = earliest - (lat + hold_req);
    }
  }
  // The capture edge is clock-network state, corner-shared across lanes.
  const double required = d_.clock_period_ns() + lat - setup;
  ep_required_[static_cast<std::size_t>(ei)] = required;
  res_.setup_at_endpoint_[pi] = setup;
  for (std::size_t k = 0; k < K; ++k) {
    double worst = kPosInf;
    bool reachable = false;
    for (int t : {0, 1}) {
      if (res_.arr_[t][pb + k] == kNegInf) continue;
      reachable = true;
      worst = std::min(worst, required - res_.arr_[t][pb + k]);
    }
    ep_slack_[eb + k] = reachable ? worst : kPosInf;
  }
}

void StaEngine::compute_required(PinId p) {
  const auto pi = static_cast<std::size_t>(p);
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = pi * K;
  // Gathered in place: the backward pass only reads strictly-higher
  // levels' required times, never a same-level pin's, so resetting our
  // own lanes before the gather is race-free at any pool size.
  double* req[2] = {res_.req_[0].data() + pb, res_.req_[1].data() + pb};
  for (int t : {0, 1}) std::fill_n(req[t], K, kPosInf);
  const int ei = ep_index_[pi];
  if (ei >= 0) {
    const double required = ep_required_[static_cast<std::size_t>(ei)];
    for (int t : {0, 1}) {
      const double* arrt = res_.arr_[t].data() + pb;
      for (std::size_t k = 0; k < K; ++k)
        if (arrt[k] != kNegInf) req[t][k] = std::min(req[t][k], required);
    }
  }
  const Pin& pp = nl_.pin(p);
  if (pp.dir == PinDir::Output) {
    // Gather through the net arcs: required at each sink minus its stored
    // net delay (same transition; wire delay is corner-shared).
    for (int s = succ_off_[pi]; s < succ_off_[pi + 1]; ++s) {
      const auto si =
          static_cast<std::size_t>(succ_[static_cast<std::size_t>(s)]);
      const double nd = net_arc_delay_[si];
      const double* reqs0 = res_.req_[0].data() + si * K;
      const double* reqs1 = res_.req_[1].data() + si * K;
      const double* reqs[2] = {reqs0, reqs1};
      for (int t : {0, 1}) {
        for (std::size_t k = 0; k < K; ++k) {
          if (reqs[t][k] == kPosInf) continue;
          req[t][k] = std::min(req[t][k], reqs[t][k] - nd);
        }
      }
    }
  } else {
    if (nl_.cell_kind(pp.cell) == CellKind::Comb &&
        !clkbuf_[static_cast<std::size_t>(pp.cell)]) {
      // Gather through this cell's arcs: required at each output minus the
      // stored forward arc delay (scaled by the lane's corner factor, the
      // exact delay the forward pass added), with the inverting transition
      // mapping. Arcs whose forward arrival was -inf keep their stored 0.0
      // delay — deliberately matching the original engine's backward pass.
      const tech::LibCell* lc = d_.lib_cell(pp.cell);
      const auto& arc = lc->arc(pp.index);
      const double* fac = factors(pp.cell);
      for (PinId o : nl_.output_pins_of(pp.cell)) {
        const auto oi = static_cast<std::size_t>(o);
        for (int t : {0, 1}) {
          const double dly = arc_row(oi)[pp.index * 2 + t];
          const int in_t = arc.inverting ? opp(t) : t;
          const double* reqo = res_.req_[t].data() + oi * K;
          double* r = req[in_t];
          for (std::size_t k = 0; k < K; ++k) {
            if (reqo[k] == kPosInf) continue;
            r[k] = std::min(r[k], reqo[k] - dly * fac[k]);
          }
        }
      }
    }
  }
}

void StaEngine::compute_port_latency() {
  // Virtual-clock latency for primary outputs: mean flop latency.
  port_latency_ = 0.0;
  if (kCompensatePortLatency && !opt_.ideal_clock) {
    double sum = 0.0;
    int count = 0;
    for (CellId c = 0; c < nl_.cell_count(); ++c) {
      const CellKind k = nl_.cell_kind(c);
      if (k != CellKind::Seq && k != CellKind::Macro) continue;
      sum += d_.clock_latency(c);
      ++count;
    }
    if (count > 0) port_latency_ = sum / count;
  }
}

void StaEngine::run_level(const PinArray<PinId>& pins, bool forward) {
  pool_.parallel_for(
      0, static_cast<int>(pins.size()),
      [&](int i) {
        const PinId p = pins[static_cast<std::size_t>(i)];
        if (forward)
          compute_forward(p);
        else
          compute_required(p);
      },
      kPinChunk);
}

void StaEngine::sort_endpoints() {
  // Pin ids are unique, so the (slack, pin) keys are too: sorted runs
  // merged pairwise give exactly std::sort's order.
  const int n = static_cast<int>(eps_.size());
  const int runs = (n + kSortChunk - 1) / kSortChunk;
  if (runs <= 1) {
    std::sort(eps_.begin(), eps_.end());
    return;
  }
  pool_.parallel_for(
      0, runs,
      [&](int c) {
        const int lo = c * kSortChunk;
        std::sort(eps_.begin() + lo,
                  eps_.begin() + std::min(n, lo + kSortChunk));
      },
      /*grain=*/1);
  eps_merge_.resize(eps_.size());
  for (int width = kSortChunk; width < n; width *= 2) {
    pool_.parallel_for(
        0, (n + 2 * width - 1) / (2 * width),
        [&](int i) {
          const int lo = 2 * width * i;
          const int mid = std::min(n, lo + width);
          const int hi = std::min(n, lo + 2 * width);
          std::merge(eps_.begin() + lo, eps_.begin() + mid, eps_.begin() + mid,
                     eps_.begin() + hi, eps_merge_.begin() + lo);
        },
        /*grain=*/1);
    eps_.swap(eps_merge_);
  }
}

void StaEngine::aggregate() {
  const std::size_t K = static_cast<std::size_t>(K_);
  eps_.clear();
  for (std::size_t i = 0; i < ep_pins_.size(); ++i)
    if (ep_slack_[i * K] != kPosInf)
      eps_.emplace_back(ep_slack_[i * K], ep_pins_[i]);
  sort_endpoints();
  res_.endpoints_.clear();
  res_.endpoint_slack_.clear();
  res_.wns_ = eps_.empty() ? 0.0 : eps_.front().first;
  res_.tns_ = 0.0;
  res_.violated_ = 0;
  for (const auto& [slack, pin] : eps_) {
    res_.endpoints_.push_back(pin);
    res_.endpoint_slack_.push_back(slack);
    if (slack < 0.0) {
      res_.tns_ += slack;
      ++res_.violated_;
    }
  }
  res_.whs_ = 0.0;
  res_.hold_violations_ = 0;
  if (opt_.hold_analysis) {
    double whs = kPosInf;
    bool any = false;
    for (std::size_t i = 0; i < ep_pins_.size(); ++i) {
      if (ep_hold_[i * K] == kPosInf) continue;
      any = true;
      whs = std::min(whs, ep_hold_[i * K]);
      if (ep_hold_[i * K] < 0.0) ++res_.hold_violations_;
    }
    res_.whs_ = any ? whs : 0.0;
  }

  // ---- per-corner aggregates ---------------------------------------------
  // Corner 0 mirrors the nominal wns_/tns_/violated_ bit for bit — copied
  // rather than re-summed, because tns_ accumulates in sorted-slack order
  // and a re-summation in endpoint order would only match to rounding.
  // Corners >= 1 are summed in endpoint order (no identity to preserve).
  res_.corner_wns_.assign(K, kPosInf);
  res_.corner_tns_.assign(K, 0.0);
  res_.corner_violated_.assign(K, 0);
  if (K_ > 1) {
    for (std::size_t i = 0; i < ep_pins_.size(); ++i) {
      const double* sl = ep_slack_.data() + i * K;
      for (std::size_t k = 1; k < K; ++k) {
        const double s = sl[k];
        if (s == kPosInf) continue;
        res_.corner_wns_[k] = std::min(res_.corner_wns_[k], s);
        if (s < 0.0) {
          res_.corner_tns_[k] += s;
          ++res_.corner_violated_[k];
        }
      }
    }
    for (std::size_t k = 1; k < K; ++k)
      if (res_.corner_wns_[k] == kPosInf) res_.corner_wns_[k] = 0.0;
  }
  res_.corner_wns_[0] = res_.wns_;
  res_.corner_tns_[0] = res_.tns_;
  res_.corner_violated_[0] = res_.violated_;
  if (K_ > 1 && util::trace_enabled())
    util::trace_counter("sta_timing_yield", res_.timing_yield());
}

const StaResult& StaEngine::run() {
  has_run_ = false;
  compute_port_latency();
  const bool tracing = util::trace_enabled();
  // One span around the whole K-lane sweep: forward + endpoints +
  // backward cover all corners in this single pass.
  std::optional<util::TraceSpan> sweep;
  if (tracing && K_ > 1)
    sweep.emplace("sta_corner_sweep",
                  nl_.name() + " K=" + std::to_string(K_));
  {
    util::TraceSpan span("sta_forward", nl_.name());
    for (std::size_t lv = 0; lv < levels_.size(); ++lv) {
      if (tracing) {
        util::TraceSpan level_span(
            "sta_level", "fwd L" + std::to_string(lv) + " n=" +
                             std::to_string(levels_[lv].size()));
        run_level(levels_[lv], /*forward=*/true);
      } else {
        run_level(levels_[lv], /*forward=*/true);
      }
    }
  }
  {
    // Endpoint constraints: one writer per endpoint.
    pool_.parallel_for(
        0, static_cast<int>(ep_pins_.size()),
        [&](int i) { eval_endpoint(ep_pins_[static_cast<std::size_t>(i)]); },
        kPinChunk);
  }
  {
    util::TraceSpan span("sta_backward", nl_.name());
    for (std::size_t lv = levels_.size(); lv-- > 0;) {
      if (tracing) {
        util::TraceSpan level_span(
            "sta_level", "bwd L" + std::to_string(lv) + " n=" +
                             std::to_string(levels_[lv].size()));
        run_level(levels_[lv], /*forward=*/false);
      } else {
        run_level(levels_[lv], /*forward=*/false);
      }
    }
  }
  aggregate();
  has_run_ = true;
  return res_;
}

const StaResult& StaEngine::retime(const std::vector<CellId>& dirty) {
  M3D_CHECK_MSG(has_run_, "Sta::retime() requires a prior run()");
  if (fwd_pending_.empty()) {
    const auto np = static_cast<std::size_t>(nl_.pin_count());
    fwd_pending_.assign(np, 0);
    bwd_pending_.assign(np, 0);
    cell_seen_.assign(static_cast<std::size_t>(nl_.cell_count()), 0);
    net_seen_.assign(static_cast<std::size_t>(nl_.net_count()), 0);
    fwd_wl_.assign(levels_.size(), {});
    bwd_wl_.assign(levels_.size(), {});
  }
  for (CellId c : dirty)
    M3D_CHECK_MSG(c >= 0 && static_cast<std::size_t>(c) < cell_seen_.size(),
                  "Sta::retime(): no cell " << c);
  std::optional<util::TraceSpan> span;
  if (util::trace_enabled())
    span.emplace("sta_retime", std::to_string(dirty.size()) + " dirty cells");
  // A retime that throws leaves res_ half-updated: only a fresh run()
  // makes the engine usable again.
  has_run_ = false;
  try {
    retime_cone(dirty);
    aggregate();
  } catch (...) {
    drop_retime_scratch(dirty);
    throw;
  }
  has_run_ = true;
  return res_;
}

void StaEngine::clear_seen(const std::vector<CellId>& dirty) {
  for (CellId c : dirty) {
    cell_seen_[static_cast<std::size_t>(c)] = 0;
    for (PinId p : nl_.cell(c).pins)
      if (const NetId n = nl_.pin(p).net; n != kInvalidId)
        net_seen_[static_cast<std::size_t>(n)] = 0;
  }
}

void StaEngine::drop_retime_scratch(const std::vector<CellId>& dirty) {
  clear_seen(dirty);
  for (auto& bucket : fwd_wl_) {
    for (PinId p : bucket) fwd_pending_[static_cast<std::size_t>(p)] = 0;
    bucket.clear();
  }
  for (auto& bucket : bwd_wl_) {
    for (PinId p : bucket) bwd_pending_[static_cast<std::size_t>(p)] = 0;
    bucket.clear();
  }
  redo_eps_.clear();
}

void StaEngine::retime_cone(const std::vector<CellId>& dirty) {
  // Seeded level ranges; lo > hi while nothing is seeded. Forward seeds
  // only reach higher levels and backward seeds lower ones, so each walk
  // below visits only [lo, hi] and clears every bucket it visits.
  int fwd_lo = INT_MAX, fwd_hi = -1;
  int bwd_lo = INT_MAX, bwd_hi = -1;

  // ---- seed: pins whose *computation* changed ----------------------------
  // A tier move or drive change of cell c swaps its library cell, which
  // changes: c's own pins (lib tables, pin caps, setup/hold, derates),
  // the driver and every sink of each incident net (loads, and after a
  // tier move re-estimated routes and per-sink crossing flags), and —
  // because the boundary derate at a sink's input feeds its cell's output
  // arcs — the output pins of every sink's combinational cell.
  auto seed = [&](PinId p) {
    const auto pi = static_cast<std::size_t>(p);
    if (!part_[pi] || fwd_pending_[pi]) return;
    fwd_pending_[pi] = 1;
    const int lv = level_[pi];
    fwd_wl_[static_cast<std::size_t>(lv)].push_back(p);
    fwd_lo = std::min(fwd_lo, lv);
    fwd_hi = std::max(fwd_hi, lv);
  };
  for (CellId c : dirty) {
    if (cell_seen_[static_cast<std::size_t>(c)]) continue;
    cell_seen_[static_cast<std::size_t>(c)] = 1;
    for (PinId p : nl_.cell(c).pins) {
      seed(p);
      const NetId n = nl_.pin(p).net;
      if (n == kInvalidId || nl_.net_is_clock(n)) continue;
      if (net_seen_[static_cast<std::size_t>(n)]) continue;
      net_seen_[static_cast<std::size_t>(n)] = 1;
      if (const PinId drv = nl_.net_driver(n); drv != kInvalidId) seed(drv);
      nl_.for_each_sink(n, [&](PinId s) {
        seed(s);
        const CellId sc = nl_.pin(s).cell;
        if (nl_.cell_kind(sc) != CellKind::Comb ||
            clkbuf_[static_cast<std::size_t>(sc)])
          return;
        for (PinId o : nl_.output_pins_of(sc)) seed(o);
      });
    }
  }
  clear_seen(dirty);

  // ---- forward worklist by ascending level -------------------------------
  auto bwd_seed = [&](PinId p) {
    const auto pi = static_cast<std::size_t>(p);
    if (!part_[pi] || bwd_pending_[pi]) return;
    bwd_pending_[pi] = 1;
    const int lv = level_[pi];
    bwd_wl_[static_cast<std::size_t>(lv)].push_back(p);
    bwd_lo = std::min(bwd_lo, lv);
    bwd_hi = std::max(bwd_hi, lv);
  };
  // Lane-aware old-value capture: a pin's forward state is 4 corner-lane
  // blocks (arr rise/fall, arr_min rise/fall), then the two corner-shared
  // slews and the stored net-arc delay, then its cell-arc row (empty but
  // for a combinational output). Change detection stays bitwise over
  // every lane, so retime() remains bit-identical to run() for any K.
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t lane_words = 4 * K;
  const std::size_t fwd_words = lane_words + 3 + max_arc_row_;
  auto capture_fwd = [&](std::size_t pi, double* dst) {
    const std::size_t pb = pi * K;
    for (int t : {0, 1}) {
      std::copy_n(res_.arr_[t].data() + pb, K, dst);
      dst += K;
    }
    for (int t : {0, 1}) {
      std::copy_n(arr_min_[t].data() + pb, K, dst);
      dst += K;
    }
    dst[0] = res_.slew_[0][pi];
    dst[1] = res_.slew_[1][pi];
    dst[2] = net_arc_delay_[pi];
    std::copy(arc_row(pi), arc_row_end(pi), dst + 3);
  };
  // Successors read arr/arr_min/slew; a bitwise compare over the lanes
  // decides whether the change propagates.
  auto fwd_changed_at = [&](std::size_t pi, const double* o) {
    const std::size_t pb = pi * K;
    for (int t : {0, 1}) {
      if (!std::equal(o, o + K, res_.arr_[t].data() + pb)) return true;
      o += K;
    }
    for (int t : {0, 1}) {
      if (!std::equal(o, o + K, arr_min_[t].data() + pb)) return true;
      o += K;
    }
    return o[0] != res_.slew_[0][pi] || o[1] != res_.slew_[1][pi];
  };
  // One shape per level bucket, as in run_level(): same-level pins are
  // independent, so phase 1 (pooled) captures each pin's old values into
  // its own slot and recomputes it; phase 2 (serial, sorted bucket order)
  // makes the bitwise compares and seeds the worklists. Propagation
  // decisions happen in the exact serial order, so results are
  // bit-identical at any pool size.
  int recomputed = 0;
  for (int lv = fwd_lo; lv <= fwd_hi; ++lv) {
    auto& bucket = fwd_wl_[static_cast<std::size_t>(lv)];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end());
    const int bn = static_cast<int>(bucket.size());
    if (fwd_olds_.size() < static_cast<std::size_t>(bn) * fwd_words)
      fwd_olds_.resize(static_cast<std::size_t>(bn) * fwd_words);
    pool_.parallel_for(
        0, bn,
        [&](int i) {
          const auto ii = static_cast<std::size_t>(i);
          const PinId p = bucket[ii];
          capture_fwd(static_cast<std::size_t>(p),
                      fwd_olds_.data() + ii * fwd_words);
          compute_forward(p);
        },
        kPinChunk);
    for (int i = 0; i < bn; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const PinId p = bucket[ii];
      const auto pi = static_cast<std::size_t>(p);
      ++recomputed;
      const double* o = fwd_olds_.data() + ii * fwd_words;
      const bool fwd_changed = fwd_changed_at(pi, o);
      if (fwd_changed)
        for (int k = succ_off_[pi]; k < succ_off_[pi + 1]; ++k)
          seed(succ_[static_cast<std::size_t>(k)]);
      // The backward pass additionally reads the stored arc delays, which
      // can change even when the forward values do not (a non-winning arc
      // got faster): re-gather the predecessors' required times then.
      const bool arcs_changed =
          (role_[pi] == Role::kNetSink &&
           o[lane_words + 2] != net_arc_delay_[pi]) ||
          !std::equal(arc_row(pi), arc_row_end(pi), o + lane_words + 3);
      if (fwd_changed || arcs_changed) {
        bwd_seed(p);
        for (int k = preds_off_[pi]; k < preds_off_[pi + 1]; ++k)
          bwd_seed(preds_[static_cast<std::size_t>(k)]);
      }
      if (ep_index_[pi] >= 0) redo_eps_.push_back(p);
      fwd_pending_[pi] = 0;
    }
    bucket.clear();
  }

  // ---- endpoint constraints ----------------------------------------------
  for (const PinId p : redo_eps_) {
    eval_endpoint(p);
    bwd_seed(p);  // required time may have changed (setup remap)
  }
  redo_eps_.clear();

  // ---- backward worklist by descending level -----------------------------
  auto capture_req = [&](std::size_t pi, double* dst) {
    const std::size_t pb = pi * K;
    std::copy_n(res_.req_[0].data() + pb, K, dst);
    std::copy_n(res_.req_[1].data() + pb, K, dst + K);
  };
  auto req_changed_at = [&](std::size_t pi, const double* o) {
    const std::size_t pb = pi * K;
    return !std::equal(o, o + K, res_.req_[0].data() + pb) ||
           !std::equal(o + K, o + 2 * K, res_.req_[1].data() + pb);
  };
  for (int lv = bwd_hi; lv >= bwd_lo; --lv) {
    auto& bucket = bwd_wl_[static_cast<std::size_t>(lv)];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end());
    const int bn = static_cast<int>(bucket.size());
    // Same shape as the forward pass: pooled capture and recompute,
    // serial seeding in sorted order.
    if (req_olds_.size() < static_cast<std::size_t>(bn) * 2 * K)
      req_olds_.resize(static_cast<std::size_t>(bn) * 2 * K);
    pool_.parallel_for(
        0, bn,
        [&](int i) {
          const auto ii = static_cast<std::size_t>(i);
          const PinId p = bucket[ii];
          capture_req(static_cast<std::size_t>(p),
                      req_olds_.data() + ii * 2 * K);
          compute_required(p);
        },
        kPinChunk);
    for (int i = 0; i < bn; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const auto pi = static_cast<std::size_t>(bucket[ii]);
      if (req_changed_at(pi, req_olds_.data() + ii * 2 * K))
        for (int k = preds_off_[pi]; k < preds_off_[pi + 1]; ++k)
          bwd_seed(preds_[static_cast<std::size_t>(k)]);
      bwd_pending_[pi] = 0;
    }
    bucket.clear();
  }

  if (util::trace_enabled())
    util::trace_counter("sta_retime_pins", static_cast<double>(recomputed));
}

}  // namespace detail

Sta::Sta(const Design& d, const route::RoutingEstimate* routes,
         const StaOptions& opt)
    : eng_(std::make_unique<detail::StaEngine>(d, routes, opt)) {}
Sta::~Sta() = default;
Sta::Sta(Sta&&) noexcept = default;
Sta& Sta::operator=(Sta&&) noexcept = default;

const StaResult& Sta::run() { return eng_->run(); }

const StaResult& Sta::retime(const std::vector<CellId>& dirty_cells) {
  return eng_->retime(dirty_cells);
}

const StaResult& Sta::result() const { return eng_->result(); }

StaResult run_sta(const Design& d, const route::RoutingEstimate* routes,
                  const StaOptions& opt) {
  detail::StaEngine eng(d, routes, opt);
  eng.run();
  return eng.take_result();
}

double StaResult::pin_slack(PinId p) const {
  // Lane 0: the nominal corner (the only lane of a scalar run).
  const auto pi =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(lanes_);
  double worst = kInf;
  for (int t : {0, 1}) {
    if (arr_[t][pi] == kNegInf || req_[t][pi] == kInf) continue;
    worst = std::min(worst, req_[t][pi] - arr_[t][pi]);
  }
  return worst;
}

double StaResult::pin_arrival(PinId p) const {
  const auto pi =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(lanes_);
  double worst = kNegInf;
  for (int t : {0, 1}) worst = std::max(worst, arr_[t][pi]);
  return worst;
}

double StaResult::pin_slew(PinId p) const {
  // Slews are corner-shared (delay-only derating): plain per-pin index.
  const auto pi = static_cast<std::size_t>(p);
  return std::max(slew_[0][pi], slew_[1][pi]);
}

double StaResult::guard_wns() const {
  if (corners_ <= 1 || corner_wns_.empty()) return wns_;
  return *std::min_element(corner_wns_.begin(), corner_wns_.end());
}

double StaResult::guard_tns() const {
  if (corners_ <= 1 || corner_tns_.empty()) return tns_;
  return *std::min_element(corner_tns_.begin(), corner_tns_.end());
}

double StaResult::timing_yield(double min_wns_ns) const {
  if (corner_wns_.empty()) return wns_ >= min_wns_ns ? 1.0 : 0.0;
  int met = 0;
  for (const double w : corner_wns_)
    if (w >= min_wns_ns) ++met;
  return static_cast<double>(met) /
         static_cast<double>(corner_wns_.size());
}

double StaResult::cell_slack(CellId c) const {
  double worst = kInf;
  for (PinId p : design_->nl().cell(c).pins)
    worst = std::min(worst, pin_slack(p));
  return worst;
}

CriticalPath StaResult::trace_path(PinId endpoint) const {
  CriticalPath path;
  path.endpoint = endpoint;
  const auto& nl = design_->nl();
  const auto ei = static_cast<std::size_t>(endpoint);
  // Lane 0 of the stride-K arrays: paths are traced at the nominal corner.
  const auto eb = ei * static_cast<std::size_t>(lanes_);

  // Worst transition at the endpoint.
  int t = 0;
  double worst = kInf;
  for (int tt : {0, 1}) {
    if (arr_[tt][eb] == kNegInf || req_[tt][eb] == kInf) continue;
    const double s = req_[tt][eb] - arr_[tt][eb];
    if (s < worst) {
      worst = s;
      t = tt;
    }
  }
  path.slack_ns = worst;
  path.setup_ns = setup_at_endpoint_[ei];

  // Walk the predecessor chain back to the launch pin.
  struct Hop {
    PinId pin;
    int trans;
  };
  std::vector<Hop> hops;
  PinId cur = endpoint;
  int ct = t;
  while (cur != netlist::kInvalidId) {
    hops.push_back({cur, ct});
    const auto& pr = pred_[ct][static_cast<std::size_t>(cur)];
    if (pr.from == netlist::kInvalidId) break;
    const PinId nxt = pr.from;
    ct = pr.from_trans;
    cur = nxt;
  }
  std::reverse(hops.begin(), hops.end());
  if (hops.empty()) return path;

  // Launch info.
  const PinId launch_pin = hops.front().pin;
  const CellId launch_cell = nl.pin(launch_pin).cell;
  path.launch_latency_ns = design_->clock_latency(launch_cell);
  const CellId end_cell = nl.pin(endpoint).cell;
  path.capture_latency_ns =
      nl.cell(end_cell).is_port() ? 0.0 : design_->clock_latency(end_cell);
  path.clock_skew_ns = path.capture_latency_ns - path.launch_latency_ns;

  // Launch stage (FF CLK→Q or macro access or PI).
  {
    PathStage st;
    st.cell = launch_cell;
    st.out_pin = launch_pin;
    st.tier = design_->tier(launch_cell);
    st.cell_delay_ns = arr_[hops.front().trans][static_cast<std::size_t>(
                           launch_pin) *
                           static_cast<std::size_t>(lanes_)] -
                       path.launch_latency_ns;
    path.stages.push_back(st);
  }

  // Remaining hops come in (net-arc → input pin), (cell-arc → output pin)
  // pairs; fold each pair into one stage on the traversed cell.
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const auto& pr = pred_[hops[i].trans][static_cast<std::size_t>(
        hops[i].pin)];
    if (pr.is_net_arc) {
      PathStage st;
      st.cell = nl.pin(hops[i].pin).cell;
      st.in_pin = hops[i].pin;
      st.wire_delay_ns = pr.delay;
      st.wire_length_um = pr.wire_len;
      st.entered_through_miv = pr.via_miv;
      st.tier = design_->tier(st.cell);
      path.stages.push_back(st);
    } else {
      M3D_CHECK(!path.stages.empty());
      PathStage& st = path.stages.back();
      st.out_pin = hops[i].pin;
      st.cell_delay_ns = pr.delay;
    }
  }

  for (const auto& st : path.stages) {
    path.cell_delay_ns += st.cell_delay_ns;
    path.wire_delay_ns += st.wire_delay_ns;
    path.wirelength_um += st.wire_length_um;
    if (st.entered_through_miv) ++path.miv_count;
    const int tier = st.tier == netlist::kTopTier ? 1 : 0;
    ++path.cells_on_tier[tier];
    path.delay_on_tier[tier] += st.cell_delay_ns + st.wire_delay_ns;
  }
  path.path_delay_ns =
      arr_[t][eb] - path.launch_latency_ns;
  return path;
}

CriticalPath StaResult::critical_path() const {
  M3D_CHECK_MSG(!endpoints_.empty(), "no constrained endpoints");
  return trace_path(endpoints_.front());
}

std::vector<CriticalPath> StaResult::worst_paths(int n) const {
  std::vector<CriticalPath> out;
  const int count = std::min<int>(n, static_cast<int>(endpoints_.size()));
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(trace_path(endpoints_[static_cast<std::size_t>(i)]));
  return out;
}

std::uint64_t timing_fingerprint(const StaResult& r) {
  // Exact double bits, no tolerance.
  util::Hasher h;
  h.mix(r.wns());
  h.mix(r.tns());
  h.mix(r.whs());
  h.mix(static_cast<std::uint64_t>(r.endpoint_count()));
  for (const PinId p : r.endpoints_by_slack()) {
    h.mix(static_cast<std::uint64_t>(p));
    h.mix(r.pin_slack(p));
  }
  // Multi-corner results additionally pin down every lane's aggregate —
  // guard-banded ECO decisions depend on the non-nominal corners, so two
  // interchangeable timing views must agree on them too. Single-corner
  // digests are untouched for checkpoint compatibility.
  if (r.corner_count() > 1) {
    h.mix(static_cast<std::uint64_t>(r.corner_count()));
    for (int k = 0; k < r.corner_count(); ++k) {
      h.mix(r.corner_wns(k));
      h.mix(r.corner_tns(k));
    }
  }
  return h.h;
}

}  // namespace m3d::sta
