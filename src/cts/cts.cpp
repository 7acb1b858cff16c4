#include "cts/cts.hpp"

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"
#include "route/route.hpp"
#include "util/geom.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace m3d::cts {

using netlist::CellKind;
using netlist::kBottomTier;
using netlist::kInvalidId;
using netlist::kTopTier;
using netlist::Netlist;
using netlist::PinId;
using tech::Transition;
using util::Point;

namespace {

constexpr double kClockSlew = 0.030;  // assumed edge rate inside the tree

/// Leaf cluster size: a subtree over at most this many sinks is one leaf
/// buffer.
constexpr int kMaxSinksPerBuffer = 20;
/// Drive of leaf clock buffers.
constexpr int kLeafDrive = 2;
/// Drive of internal (trunk) clock buffers.
constexpr int kTrunkDrive = 8;
/// Per-leaf budget of skew-balancing pad buffers.
constexpr int kMaxPadBuffers = 40;

struct Sink {
  PinId pin;
  Point pos;
  int tier;
};

/// Geometric-bisection clock-tree builder, split into a *plan* phase and a
/// *materialize* phase so the planning can run task-parallel while the
/// netlist mutation stays serial — and bitwise identical to the old
/// recursive builder:
///
///  * The serial builder numbered buffers in post-order (left subtree,
///    right subtree, self). The number of buffers a subtree over m sinks
///    produces is a pure function of m — cnt(m) = 1 for a leaf cluster,
///    else cnt(⌊m/2⌋) + cnt(m−⌊m/2⌋) + 1 — so every subtree can be handed
///    a deterministic counter range up front: a subtree based at b over m
///    sinks owns counters [b, b+cnt(m)), its left child [b, b+cnt(l)), its
///    right child [b+cnt(l), b+cnt(m)−1), and its own buffer is counter
///    b+cnt(m)−1. Ascending counter order IS the serial post-order.
///  * Planning runs level-synchronously: each level's nodes sort disjoint
///    subranges of one shared sink array in parallel (`cts_level` spans).
///    std::sort over an identical subsequence with an identical comparator
///    reproduces the serial builder's per-subtree sort exactly.
///  * Buffer tiers/positions are computed bottom-up in ascending counter
///    order (children always precede parents), replicating the serial
///    centroid accumulation term-for-term.
///  * Materialization replays the exact netlist op sequence of the old
///    make_buffer in ascending counter order, so cell/pin/net ids and
///    names are bitwise identical to the serial build.
class TreeBuilder {
 public:
  TreeBuilder(Design& d, const CtsOptions& opt, int counter_start)
      : d_(d), opt_(opt), counter_(counter_start) {}

  /// Build a subtree over `sinks`; returns the top buffer cell. The caller
  /// connects that buffer's input.
  CellId build(std::vector<Sink> sinks) {
    M3D_CHECK(!sinks.empty());
    sinks_ = std::move(sinks);
    const int total = subtree_count(static_cast<int>(sinks_.size()));
    nodes_.assign(static_cast<std::size_t>(total), PlanNode{});
    plan(total);
    place_nodes(total);
    const CellId top = materialize(total);
    counter_ += total;
    return top;
  }

 private:
  struct PlanNode {
    int lo = 0, hi = 0;         ///< sink range (leaf only)
    int left = -1, right = -1;  ///< child node indices (trunk only)
    bool leaf = true;
    int tier = kBottomTier;
    Point pos;
  };

  /// A pending bisection task: plan the subtree over sinks [lo, hi) whose
  /// counter range starts at `base`.
  struct Split {
    int lo, hi, base;
  };

  /// Buffers produced by a subtree over m sinks (the counter-range size).
  int subtree_count(int m) const {
    if (m <= kMaxSinksPerBuffer) return 1;
    const int mid = m / 2;
    return subtree_count(mid) + subtree_count(m - mid) + 1;
  }

  /// Level-synchronous bisection: every node of one level sorts its own
  /// disjoint sink subrange, so a level is a parallel gather.
  void plan(int total) {
    std::vector<Split> level{{0, static_cast<int>(sinks_.size()), 0}};
    int depth = 0;
    while (!level.empty()) {
      util::TraceSpan lvl_span(
          "cts_level",
          util::trace_enabled()
              ? "depth " + std::to_string(depth) + ", " +
                    std::to_string(level.size()) + " subtrees"
              : std::string());
      std::vector<Split> next(2 * level.size());
      std::vector<char> has_next(2 * level.size(), 0);
      auto expand = [&](int i) {
        const Split& s = level[static_cast<std::size_t>(i)];
        const int m = s.hi - s.lo;
        const int own = s.base + subtree_count(m) - 1;
        PlanNode& nd = nodes_[static_cast<std::size_t>(own)];
        nd.lo = s.lo;
        nd.hi = s.hi;
        if (m <= kMaxSinksPerBuffer) {
          nd.leaf = true;
          return;
        }
        // Split at the median of the longer bounding-box dimension.
        util::BBox bb;
        for (int j = s.lo; j < s.hi; ++j)
          bb.add(sinks_[static_cast<std::size_t>(j)].pos);
        const bool split_x = bb.rect().width() >= bb.rect().height();
        std::sort(sinks_.begin() + s.lo, sinks_.begin() + s.hi,
                  [&](const Sink& a, const Sink& b) {
                    return split_x ? a.pos.x < b.pos.x : a.pos.y < b.pos.y;
                  });
        const int mid = m / 2;
        const int lcnt = subtree_count(mid);
        nd.leaf = false;
        nd.left = s.base + lcnt - 1;
        nd.right = own - 1;
        next[static_cast<std::size_t>(2 * i)] = {s.lo, s.lo + mid, s.base};
        next[static_cast<std::size_t>(2 * i + 1)] = {s.lo + mid, s.hi,
                                                     s.base + lcnt};
        has_next[static_cast<std::size_t>(2 * i)] = 1;
        has_next[static_cast<std::size_t>(2 * i + 1)] = 1;
      };
      exec::pool_or_global(opt_.pool)
          .parallel_for(0, static_cast<int>(level.size()), expand,
                        /*grain=*/1);
      std::vector<Split> compact;
      compact.reserve(next.size());
      for (std::size_t i = 0; i < next.size(); ++i)
        if (has_next[i]) compact.push_back(next[i]);
      level = std::move(compact);
      ++depth;
    }
    (void)total;
  }

  /// Bottom-up tier/position assignment in ascending counter order
  /// (post-order: children first), replicating the serial make_buffer's
  /// centroid accumulation and tier rules exactly.
  void place_nodes(int total) {
    for (int i = 0; i < total; ++i) {
      PlanNode& nd = nodes_[static_cast<std::size_t>(i)];
      Point centroid{0.0, 0.0};
      int top_votes = 0;
      int size = 0;
      if (nd.leaf) {
        for (int j = nd.lo; j < nd.hi; ++j) {
          const Sink& s = sinks_[static_cast<std::size_t>(j)];
          centroid = centroid + s.pos;
          if (s.tier == kTopTier) ++top_votes;
        }
        size = nd.hi - nd.lo;
      } else {
        for (int child : {nd.left, nd.right}) {
          const PlanNode& ch = nodes_[static_cast<std::size_t>(child)];
          centroid = centroid + ch.pos;
          if (ch.tier == kTopTier) ++top_votes;
        }
        size = 2;
      }
      centroid = centroid * (1.0 / static_cast<double>(size));

      int tier = kBottomTier;
      if (d_.num_tiers() == 2) {
        if (nd.leaf) {
          // Leaf buffers follow their sinks.
          tier = 2 * top_votes >= size ? kTopTier : kBottomTier;
        } else if (opt_.prefer_low_power_trunk) {
          // Heterogeneous trunk preference: the slow/low-power top tier
          // carries the distribution (paper: >75 % of the clock on top).
          tier = kTopTier;
        } else {
          tier = 2 * top_votes >= size ? kTopTier : kBottomTier;
        }
      }
      nd.tier = tier;
      nd.pos = d_.floorplan().clamp(centroid);
    }
  }

  /// Serial netlist mutation in ascending counter order — the exact op
  /// sequence (and thus cell/pin/net id assignment) of the old recursive
  /// builder.
  CellId materialize(int total) {
    Netlist& nl = d_.nl();
    std::vector<CellId> built(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
      const PlanNode& nd = nodes_[static_cast<std::size_t>(i)];
      const int c = counter_ + i;
      util::TraceSpan buf_span(
          "cts_buffer_insert",
          util::trace_enabled() ? "ctsbuf_" + std::to_string(c)
                                : std::string());
      const CellId buf =
          nl.add_comb("ctsbuf_" + std::to_string(c), tech::CellFunc::ClkBuf,
                      nd.leaf ? kLeafDrive : kTrunkDrive);
      const NetId net =
          nl.add_net("ctsnet_" + std::to_string(c + 1), /*is_clock=*/true);
      nl.connect(net, nl.output_pin(buf));
      if (nd.leaf) {
        for (int j = nd.lo; j < nd.hi; ++j)
          nl.connect(net, sinks_[static_cast<std::size_t>(j)].pin);
      } else {
        nl.connect(net,
                   nl.input_pin(built[static_cast<std::size_t>(nd.left)], 0));
        nl.connect(
            net, nl.input_pin(built[static_cast<std::size_t>(nd.right)], 0));
      }
      d_.sync(nd.tier);
      d_.set_tier(buf, nd.tier);
      d_.set_pos(buf, nd.pos);
      built[static_cast<std::size_t>(i)] = buf;
    }
    return built[static_cast<std::size_t>(total - 1)];
  }

  Design& d_;
  const CtsOptions& opt_;
  int counter_;
  std::vector<Sink> sinks_;
  std::vector<PlanNode> nodes_;
};

NetId find_clock_root(const Design& d) {
  if (d.clock_net() != kInvalidId) return d.clock_net();
  const auto& nl = d.nl();
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (!net.is_clock || net.driver == kInvalidId) continue;
    if (nl.cell(nl.pin(net.driver).cell).is_port()) return n;
  }
  return kInvalidId;
}

bool is_clock_buffer_cell(const Design& d, CellId c) {
  const auto& cc = d.nl().cell(c);
  if (!cc.is_comb() || cc.func != tech::CellFunc::ClkBuf) return false;
  const auto out = d.nl().output_pins_of(c);
  return !out.empty() && d.nl().pin(out[0]).net != kInvalidId &&
         d.nl().net(d.nl().pin(out[0]).net).is_clock;
}

/// SinkStep::next of a flop or macro sink: the walk ends there with a
/// latency.
constexpr NetId kLatencySink = -2;

/// What the latency walk does at one sink of a clock net.
struct SinkStep {
  double wire_ns = 0.0;  ///< wire (and MIV) delay from the driver
  CellId cell = kInvalidId;
  /// kLatencySink, the net a combinational sink drives from its first
  /// output (the walk recurses into it), or kInvalidId (the walk stops).
  NetId next = kInvalidId;
};

/// What the latency walk adds along one clock net.
struct NetTiming {
  double length_um = 0.0;  ///< routed wirelength
  /// Insertion delay of the driving cell when it is a combinational
  /// cell's first output, at this net's routed load; 0 otherwise.
  double buffer_ns = 0.0;
};

/// Route net `n` and time it: fills one step per sink (sinks_into()
/// order) into `steps`.
NetTiming time_clock_net(const Design& d, NetId n,
                         route::RouteScratch& scratch, SinkStep* steps) {
  const Netlist& nl = d.nl();
  const auto& wire = d.lib(kBottomTier).wire();
  const auto& miv = d.lib(kBottomTier).miv();
  const route::NetRoute nr = route::route_net(d, n, scratch);
  NetTiming nt;
  nt.length_um = nr.length_um;
  double load = nr.wire_cap_ff;
  std::size_t i = 0;
  nl.for_each_sink(n, [&](PinId s) {
    const double cap = d.pin_cap_ff(s);
    load += cap;
    const double len = i < nr.sink_path_um.size() ? nr.sink_path_um[i] : 0.0;
    SinkStep& st = steps[i];
    st.wire_ns = wire.elmore_ns(len, cap);
    if (i < nr.sink_crosses_tier.size() && nr.sink_crosses_tier[i])
      st.wire_ns += miv.res_kohm * cap * tech::kRCtoNs;
    st.cell = nl.pin(s).cell;
    st.next = kInvalidId;
    const CellKind kind = nl.cell_kind(st.cell);
    if (kind == CellKind::Seq || kind == CellKind::Macro) {
      st.next = kLatencySink;
    } else if (kind == CellKind::Comb) {
      const auto outs = nl.output_pins_of(st.cell);
      if (!outs.empty()) st.next = nl.pin(outs[0]).net;
    }
    ++i;
  });
  const PinId drv = nl.net_driver(n);
  const CellId dc = nl.pin(drv).cell;
  if (nl.cell_kind(dc) == CellKind::Comb && !nl.input_pins_of(dc).empty() &&
      nl.output_pins_of(dc)[0] == drv) {
    const auto& arc = d.lib_cell(dc)->arc(0);
    nt.buffer_ns =
        0.5 * (arc.delay[static_cast<int>(Transition::Rise)].lookup(
                   kClockSlew, load) +
               arc.delay[static_cast<int>(Transition::Fall)].lookup(
                   kClockSlew, load));
  }
  return nt;
}

}  // namespace

ClockTreeReport build_clock_tree(Design& d, const CtsOptions& opt) {
  Netlist& nl = d.nl();
  const NetId root = find_clock_root(d);
  M3D_CHECK_MSG(root != kInvalidId, "design has no driven clock net");
  d.set_clock_net(root);

  // Collect and detach every flop/macro clock pin. Detaching is batched:
  // per-pin disconnect() scans the net's pin list, which is quadratic on
  // the raw clock net (hundreds of thousands of sinks at mesh scale 100).
  std::vector<Sink> sinks;
  std::vector<PinId> detach;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const auto& cc = nl.cell(c);
    if (!cc.is_sequential() && !cc.is_macro()) continue;
    const PinId ck = nl.clock_pin(c);
    if (ck == kInvalidId) continue;
    if (nl.pin(ck).net != kInvalidId) detach.push_back(ck);
    sinks.push_back({ck, d.pos(c), d.tier(c)});
  }
  nl.disconnect_all(detach);
  M3D_CHECK_MSG(!sinks.empty(), "no clock sinks");

  TreeBuilder builder(d, opt, 0);
  if (d.num_tiers() == 2 && opt.mode == Mode3D::PerDie) {
    // Baseline: independent tree per die, both roots fed from the source.
    for (int tier : {kBottomTier, kTopTier}) {
      std::vector<Sink> tier_sinks;
      for (const auto& s : sinks)
        if (s.tier == tier) tier_sinks.push_back(s);
      if (tier_sinks.empty()) continue;
      const CellId top = builder.build(std::move(tier_sinks));
      nl.connect(root, nl.input_pin(top, 0));
      d.set_tier(top, tier);
    }
  } else {
    const CellId top = builder.build(std::move(sinks));
    nl.connect(root, nl.input_pin(top, 0));
  }
  if (opt.balance_skew) balance_clock_tree(d, opt);
  return annotate_clock_latencies(d, opt.pool);
}

int balance_clock_tree(Design& d, const CtsOptions& opt) {
  Netlist& nl = d.nl();
  annotate_clock_latencies(d, opt.pool);

  // Leaf buffers and the mean latency of their sequential sinks.
  struct Leaf {
    CellId buf;
    double latency;
  };
  std::vector<Leaf> leaves;
  double max_latency = 0.0;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!is_clock_buffer_cell(d, c)) continue;
    const NetId onet = nl.pin(nl.output_pins_of(c)[0]).net;
    double sum = 0.0;
    int count = 0;
    nl.for_each_sink(onet, [&](PinId s) {
      const auto& sc = nl.cell(nl.pin(s).cell);
      if (sc.is_sequential() || sc.is_macro()) {
        sum += d.clock_latency(nl.pin(s).cell);
        ++count;
      }
    });
    if (count == 0) continue;  // internal buffer
    const double lat = sum / count;
    leaves.push_back({c, lat});
    max_latency = std::max(max_latency, lat);
  }
  if (leaves.size() < 2) return 0;

  int added = 0;
  int counter = 0;
  for (const auto& leaf : leaves) {
    const int tier = d.tier(leaf.buf);
    const tech::TechLib& lib = d.lib(tier);
    const tech::LibCell* pad = lib.find(tech::CellFunc::ClkBuf, 1);
    M3D_CHECK(pad != nullptr);
    const auto& arc = pad->arc(0);
    const double pad_delay =
        0.5 *
        (arc.delay[static_cast<int>(Transition::Rise)].lookup(
             kClockSlew, pad->input_cap_ff) +
         arc.delay[static_cast<int>(Transition::Fall)].lookup(
             kClockSlew, pad->input_cap_ff));
    const double deficit = max_latency - leaf.latency;
    int k = static_cast<int>(deficit / pad_delay);
    k = std::min(k, kMaxPadBuffers);
    if (k <= 0) continue;

    // Splice a pad chain between the parent net and the leaf's input.
    const PinId in = nl.input_pin(leaf.buf, 0);
    const NetId parent = nl.pin(in).net;
    if (parent == kInvalidId) continue;
    nl.disconnect(in);
    NetId cur = parent;
    for (int i = 0; i < k; ++i) {
      const CellId pb = nl.add_comb(
          "ctspad_" + std::to_string(leaf.buf) + "_" +
              std::to_string(counter++),
          tech::CellFunc::ClkBuf, 1);
      nl.connect(cur, nl.input_pin(pb, 0));
      const NetId next = nl.add_net(
          "ctspadnet_" + std::to_string(leaf.buf) + "_" +
              std::to_string(i),
          /*is_clock=*/true);
      nl.connect(next, nl.output_pin(pb));
      d.sync(tier);
      d.set_tier(pb, tier);
      d.set_pos(pb, d.pos(leaf.buf));
      cur = next;
      ++added;
    }
    nl.connect(cur, in);
  }
  util::log_info("CTS balance: ", added, " pad buffers inserted");
  return added;
}

ClockTreeReport annotate_clock_latencies(Design& d, exec::Pool* pool) {
  const Netlist& nl = d.nl();
  ClockTreeReport rep;
  const NetId root = find_clock_root(d);
  M3D_CHECK(root != kInvalidId);

  // Time every driven clock net — route it, then each sink's wire delay
  // and its driving buffer's insertion delay — as a pooled gather in fixed
  // 128-net chunks, each net writing only its own slots. The walk below
  // then only adds, in the exact serial order.
  std::vector<NetId> clock_nets;
  std::vector<int> net_index(static_cast<std::size_t>(nl.net_count()), -1);
  std::vector<int> step_off{0};
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (!nl.net_is_clock(n) || nl.net_driver(n) == kInvalidId) continue;
    net_index[static_cast<std::size_t>(n)] =
        static_cast<int>(clock_nets.size());
    clock_nets.push_back(n);
    step_off.push_back(step_off.back() + nl.fanout(n));
  }
  const int count = static_cast<int>(clock_nets.size());
  std::vector<NetTiming> timing(clock_nets.size());
  std::vector<SinkStep> steps(static_cast<std::size_t>(step_off.back()));
  std::vector<CellId> buffer_of(clock_nets.size(), kInvalidId);
  exec::for_chunks(
      exec::pool_or_global(pool), count, /*chunk=*/128,
      [&](int, int lo, int hi) {
        route::RouteScratch scratch;
        for (int i = lo; i < hi; ++i) {
          const auto ii = static_cast<std::size_t>(i);
          const NetId n = clock_nets[ii];
          timing[ii] =
              time_clock_net(d, n, scratch, steps.data() + step_off[ii]);
          // Each clock buffer's first output drives exactly one clock
          // net, which names it here.
          const PinId drv = nl.net_driver(n);
          const CellId dc = nl.pin(drv).cell;
          if (is_clock_buffer_cell(d, dc) && nl.output_pins_of(dc)[0] == drv)
            buffer_of[ii] = dc;
        }
      });

  // Iterative DFS over (net, arrival-at-driver-output). A net off the
  // clock nets (a walk through a non-clock cell) is timed where it is met,
  // into `walk` when the walk visits it and into `probe` when only its
  // driver's insertion delay is needed.
  route::RouteScratch scratch;
  std::vector<SinkStep> walk, probe;
  const auto time_met = [&](NetId n, std::vector<SinkStep>& buf) {
    buf.resize(static_cast<std::size_t>(nl.fanout(n)));
    return time_clock_net(d, n, scratch, buf.data());
  };
  std::vector<std::pair<NetId, double>> stack{{root, 0.0}};
  bool any_sink = false;
  rep.min_latency_ns = std::numeric_limits<double>::max();
  while (!stack.empty()) {
    const auto [net_id, arr] = stack.back();
    stack.pop_back();
    if (nl.net_driver(net_id) == kInvalidId) continue;
    const int ni = net_index[static_cast<std::size_t>(net_id)];
    const NetTiming nt = ni >= 0 ? timing[static_cast<std::size_t>(ni)]
                                 : time_met(net_id, walk);
    const SinkStep* sink =
        ni >= 0 ? steps.data() + step_off[static_cast<std::size_t>(ni)]
                : walk.data();
    rep.wirelength_um += nt.length_um;
    const int fanout = nl.fanout(net_id);
    for (int i = 0; i < fanout; ++i) {
      const SinkStep& s = sink[i];
      const double at_sink = arr + s.wire_ns;
      if (s.next == kLatencySink) {
        d.set_clock_latency(s.cell, at_sink);
        rep.max_latency_ns = std::max(rep.max_latency_ns, at_sink);
        rep.min_latency_ns = std::min(rep.min_latency_ns, at_sink);
        ++rep.sink_count;
        any_sink = true;
      } else if (s.next != kInvalidId) {
        // A clock buffer: add its insertion delay and recurse.
        const int oi = net_index[static_cast<std::size_t>(s.next)];
        const double dly = oi >= 0
                               ? timing[static_cast<std::size_t>(oi)].buffer_ns
                               : time_met(s.next, probe).buffer_ns;
        stack.push_back({s.next, at_sink + dly});
      }
    }
  }
  if (!any_sink) rep.min_latency_ns = 0.0;
  rep.max_skew_ns = rep.max_latency_ns - rep.min_latency_ns;

  // Buffer area sums in cell order.
  std::vector<CellId> buffers;
  for (const CellId c : buffer_of)
    if (c != kInvalidId) buffers.push_back(c);
  std::sort(buffers.begin(), buffers.end());
  for (const CellId c : buffers) {
    ++rep.buffer_count;
    ++rep.buffer_count_tier[d.tier(c) == kTopTier ? 1 : 0];
    rep.buffer_area_um2 += d.cell_area(c);
  }
  util::log_info("CTS: ", rep.buffer_count, " buffers (",
                 rep.buffer_count_tier[0], " bottom / ",
                 rep.buffer_count_tier[1], " top), latency ",
                 rep.max_latency_ns, " ns, skew ", rep.max_skew_ns, " ns");
  return rep;
}

}  // namespace m3d::cts
