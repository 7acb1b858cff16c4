#include "cts/cts.hpp"

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"
#include "route/route.hpp"
#include "util/geom.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace m3d::cts {

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

  // Pre-compute per-clock-net routed load.
  const auto& wire = d.lib(kBottomTier).wire();
  const auto& miv = d.lib(kBottomTier).miv();

  // Pre-route every driven clock net — the expensive part of the walk — as
  // a pooled gather in fixed 128-net chunks (one net per slot); the DFS
  // below then only looks routes up, so its latency arithmetic runs in the
  // exact serial order.
  std::vector<NetId> clock_nets;
  std::vector<int> route_index(static_cast<std::size_t>(nl.net_count()), -1);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (!net.is_clock || net.driver == kInvalidId) continue;
    route_index[static_cast<std::size_t>(n)] =
        static_cast<int>(clock_nets.size());
    clock_nets.push_back(n);
  }
  std::vector<route::NetRoute> clock_routes(clock_nets.size());
  {
    constexpr int kChunk = 128;
    const int count = static_cast<int>(clock_nets.size());
    exec::pool_or_global(pool).parallel_for(
        0, (count + kChunk - 1) / kChunk,
        [&](int c) {
          route::RouteScratch scratch;
          const int hi = std::min(count, (c + 1) * kChunk);
          for (int i = c * kChunk; i < hi; ++i)
            clock_routes[static_cast<std::size_t>(i)] = route::route_net(
                d, clock_nets[static_cast<std::size_t>(i)], scratch);
        },
        /*grain=*/1);
  }

  // Iterative DFS over (net, arrival-at-driver-output).
  std::vector<std::pair<NetId, double>> stack{{root, 0.0}};
  std::vector<PinId> sink_buf;
  bool any_sink = false;
  rep.min_latency_ns = std::numeric_limits<double>::max();
  while (!stack.empty()) {
    const auto [net_id, arr] = stack.back();
    stack.pop_back();
    const auto& net = nl.net(net_id);
    if (net.driver == kInvalidId) continue;
    const int ri = route_index[static_cast<std::size_t>(net_id)];
    route::NetRoute fallback;
    if (ri < 0) fallback = route::route_net(d, net_id);
    const route::NetRoute& nr =
        ri >= 0 ? clock_routes[static_cast<std::size_t>(ri)] : fallback;
    rep.wirelength_um += nr.length_um;
    nl.sinks_into(net_id, sink_buf);
    for (std::size_t i = 0; i < sink_buf.size(); ++i) {
      const PinId s = sink_buf[i];
      const double len =
          i < nr.sink_path_um.size() ? nr.sink_path_um[i] : 0.0;
      double wire_delay = wire.elmore_ns(len, d.pin_cap_ff(s));
      if (i < nr.sink_crosses_tier.size() && nr.sink_crosses_tier[i])
        wire_delay += miv.res_kohm * d.pin_cap_ff(s) * tech::kRCtoNs;
      const double at_sink = arr + wire_delay;
      const CellId sc = nl.pin(s).cell;
      const auto& scc = nl.cell(sc);
      if (scc.is_sequential() || scc.is_macro()) {
        d.set_clock_latency(sc, at_sink);
        rep.max_latency_ns = std::max(rep.max_latency_ns, at_sink);
        rep.min_latency_ns = std::min(rep.min_latency_ns, at_sink);
        ++rep.sink_count;
        any_sink = true;
      } else if (scc.is_comb()) {
        // A clock buffer: add its insertion delay and recurse.
        const tech::LibCell* lc = d.lib_cell(sc);
        const auto outs = nl.output_pins_of(sc);
        if (outs.empty() || nl.pin(outs[0]).net == kInvalidId) continue;
        const NetId onet = nl.pin(outs[0]).net;
        const int oi = route_index[static_cast<std::size_t>(onet)];
        double load = oi >= 0
                          ? clock_routes[static_cast<std::size_t>(oi)]
                                .wire_cap_ff
                          : route::route_net(d, onet).wire_cap_ff;
        nl.for_each_sink(onet, [&](PinId q) { load += d.pin_cap_ff(q); });
        const auto& arc = lc->arc(0);
        const double dly =
            0.5 * (arc.delay[static_cast<int>(Transition::Rise)].lookup(
                       kClockSlew, load) +
                   arc.delay[static_cast<int>(Transition::Fall)].lookup(
                       kClockSlew, load));
        stack.push_back({onet, at_sink + dly});
      }
    }
  }
  if (!any_sink) rep.min_latency_ns = 0.0;
  rep.max_skew_ns = rep.max_latency_ns - rep.min_latency_ns;

  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!is_clock_buffer_cell(d, c)) continue;
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
