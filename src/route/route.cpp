#include "route/route.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "exec/pool.hpp"
#include "util/geom.hpp"
#include "util/trace.hpp"

namespace m3d::route {

using netlist::kInvalidId;
using util::BBox;
using util::Point;

namespace {

/// Nets per parallel chunk. Each chunk owns one RouteScratch, so the
/// scratch reuse survives any pool size without per-worker state.
constexpr int kNetChunk = 1024;

/// Run fn(lo, hi, scratch) over fixed [lo, hi) net-id chunks on the pool.
/// Chunk boundaries do not depend on the pool, and every chunk writes
/// only its own nets' slots.
void chunked_net_loop(
    exec::Pool* pool, int n,
    const std::function<void(int, int, RouteScratch&)>& fn) {
  const int chunks = (n + kNetChunk - 1) / kNetChunk;
  exec::pool_or_global(pool).parallel_for(
      0, chunks,
      [&](int c) {
        RouteScratch scratch;
        fn(c * kNetChunk, std::min(n, (c + 1) * kNetChunk), scratch);
      },
      /*grain=*/1);
}

/// Fanout threshold above which route_net switches to the grid-bucketed
/// Prim. Both paths compute the identical tree (see spatial_prim); the
/// naive scans just have a lower constant at small k.
constexpr std::size_t kSpatialTerminals = 64;

/// Grid-accelerated Prim over Manhattan distance. Produces *exactly* the
/// tree, node insertion order, and length accumulation order of the naive
/// ascending-j scans in route_net:
///  - selection pops the lexicographically smallest (best, j) — the same
///    lowest-j-among-minimal rule as the strict `best[j] < bd` scan;
///  - relaxation is *deferred*: each tree node scans the grid in
///    concentric rings, one ring per scan event, and a scan event only
///    runs while its distance lower bound (ring-1)·bs is ≤ the current
///    best candidate. At pop time every pending scan bound exceeds the
///    popped distance d*, so any undiscovered (tree node v, node j) pair
///    has dist(v,j) ≥ bound > d* — the pop is provably the true minimum,
///    and every tree node within d* of j has already relaxed it;
///  - naive relaxes strictly (`dist < best[j]`) in tree-insertion order,
///    so its parent[j] is the *earliest-inserted* tree node of minimal
///    distance. Deferred scans can reach j out of insertion order, so an
///    equal-distance relaxation reparents iff the scanner was inserted
///    earlier (`ord[v] < ord[parent[j]]`) — converging to the same
///    argmin(dist, insertion-order) parent regardless of scan order.
/// So r.length_um accumulates the same doubles in the same order and the
/// result is bit-identical to the O(k^2) path at any fanout.
void spatial_prim(RouteScratch& s, std::size_t k, NetRoute& r) {
  const auto& pt = s.pt;
  const auto& tier = s.tier;
  auto& in_tree = s.in_tree;
  auto& best = s.best;
  auto& parent = s.parent;

  double xlo = pt[0].x, xhi = pt[0].x, ylo = pt[0].y, yhi = pt[0].y;
  for (std::size_t i = 1; i < k; ++i) {
    xlo = std::min(xlo, pt[i].x);
    xhi = std::max(xhi, pt[i].x);
    ylo = std::min(ylo, pt[i].y);
    yhi = std::max(yhi, pt[i].y);
  }
  const double w = std::max(xhi - xlo, 1e-6);
  const double h = std::max(yhi - ylo, 1e-6);
  const double kd = static_cast<double>(k);
  // ~1 terminal per bucket; the w/k, h/k floors keep near-collinear nets
  // from exploding one grid dimension.
  const double bs =
      std::max({std::sqrt(w * h / kd), w / kd, h / kd, 1e-9});
  const int nx = std::max(1, static_cast<int>(std::ceil(w / bs)));
  const int ny = std::max(1, static_cast<int>(std::ceil(h / bs)));
  const auto bucket_x = [&](double x) {
    return std::min(nx - 1,
                    std::max(0, static_cast<int>((x - xlo) / bs)));
  };
  const auto bucket_y = [&](double y) {
    return std::min(ny - 1,
                    std::max(0, static_cast<int>((y - ylo) / bs)));
  };

  // Bucket the out-of-tree nodes (1..k-1) into a flat CSR; removal is a
  // swap with the segment's last live entry.
  auto& off = s.grid_off;
  auto& live = s.grid_live;
  auto& nodes = s.grid_nodes;
  auto& pos = s.node_pos;
  auto& bucket = s.node_bucket;
  const std::size_t nb =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  off.assign(nb + 1, 0);
  bucket.assign(k, 0);
  pos.assign(k, 0);
  for (std::size_t j = 1; j < k; ++j) {
    bucket[j] = bucket_y(pt[j].y) * nx + bucket_x(pt[j].x);
    ++off[static_cast<std::size_t>(bucket[j]) + 1];
  }
  for (std::size_t b = 0; b < nb; ++b) off[b + 1] += off[b];
  // Coarse 8×8-bucket live counters let ring scans skip dead regions in
  // O(1) per super cell. Skipping a dead super cell only skips empty
  // buckets — a no-op — so the relaxation set, and thus the result, is
  // unchanged. This bounds the end-game cost: the last stragglers of a
  // big net pop long edges that wake every pending scan, and without the
  // coarse layer each wake walks its whole (mostly dead) ring bucket by
  // bucket.
  constexpr int kCoarse = 8;
  const int snx = (nx + kCoarse - 1) / kCoarse;
  const int sny = (ny + kCoarse - 1) / kCoarse;
  auto& super_live = s.super_live;
  super_live.assign(
      static_cast<std::size_t>(snx) * static_cast<std::size_t>(sny), 0);

  // Live-count pyramid over the super grid (each level halves both dims)
  // for O(log) nearest-live-super queries. Counts only ever decrease
  // while the tree grows, so a distance bound read from the pyramid stays
  // a valid lower bound forever.
  auto& pyr = s.pyr;
  auto& pyr_off = s.pyr_off;
  auto& pyr_w = s.pyr_w;
  auto& pyr_h = s.pyr_h;
  pyr.clear();
  pyr_off.assign(1, 0);
  pyr_w.clear();
  pyr_h.clear();
  for (int lw = (snx + 1) / 2, lh = (sny + 1) / 2;;
       lw = (lw + 1) / 2, lh = (lh + 1) / 2) {
    pyr_w.push_back(lw);
    pyr_h.push_back(lh);
    pyr_off.push_back(pyr_off.back() + lw * lh);
    if (lw == 1 && lh == 1) break;
  }
  pyr.assign(static_cast<std::size_t>(pyr_off.back()), 0);
  const int pyr_levels = static_cast<int>(pyr_w.size());
  const auto pyr_add = [&](int sx, int sy, int delta) {
    for (int l = 1; l <= pyr_levels; ++l)
      pyr[static_cast<std::size_t>(pyr_off[static_cast<std::size_t>(l - 1)] +
                                   (sy >> l) * pyr_w[static_cast<std::size_t>(
                                                    l - 1)] +
                                   (sx >> l))] += delta;
  };
  nodes.assign(k - 1, 0);
  live.assign(nb, 0);
  for (std::size_t j = 1; j < k; ++j) {
    const auto b = static_cast<std::size_t>(bucket[j]);
    const int at = off[b] + live[b];
    nodes[static_cast<std::size_t>(at)] = static_cast<int>(j);
    pos[j] = at;
    ++live[b];
    const int sx = (static_cast<int>(b) % nx) / kCoarse;
    const int sy = static_cast<int>(b) / nx / kCoarse;
    ++super_live[static_cast<std::size_t>(sy * snx + sx)];
    pyr_add(sx, sy, 1);
  }
  const auto grid_remove = [&](int j) {
    const auto b = static_cast<std::size_t>(bucket[static_cast<std::size_t>(j)]);
    const int last = off[b] + live[b] - 1;
    const int pj = pos[static_cast<std::size_t>(j)];
    const int moved = nodes[static_cast<std::size_t>(last)];
    nodes[static_cast<std::size_t>(pj)] = moved;
    pos[static_cast<std::size_t>(moved)] = pj;
    --live[b];
    const int sx = (static_cast<int>(b) % nx) / kCoarse;
    const int sy = static_cast<int>(b) / nx / kCoarse;
    --super_live[static_cast<std::size_t>(sy * snx + sx)];
    pyr_add(sx, sy, -1);
  };

  // Exact Chebyshev distance (in super-cell units) from super cell
  // (Vx, Vy) to the nearest live super cell: branch-and-bound descent of
  // the pyramid, visiting children nearest-first and pruning subtrees
  // whose bounding rect cannot beat the best found. Returns INT_MAX when
  // no live cell remains.
  const auto rect_cheby = [](int Vx, int Vy, int x0, int y0, int x1, int y1) {
    const int dx = Vx < x0 ? x0 - Vx : (Vx > x1 ? Vx - x1 : 0);
    const int dy = Vy < y0 ? y0 - Vy : (Vy > y1 ? Vy - y1 : 0);
    return std::max(dx, dy);
  };
  const auto nearest_live_super = [&](int Vx, int Vy) {
    int bestd = std::numeric_limits<int>::max();
    const auto descend = [&](auto&& self, int l, int cx, int cy) -> void {
      if (l == 0) {
        if (super_live[static_cast<std::size_t>(cy * snx + cx)] == 0) return;
        bestd = std::min(bestd, rect_cheby(Vx, Vy, cx, cy, cx, cy));
        return;
      }
      if (pyr[static_cast<std::size_t>(
              pyr_off[static_cast<std::size_t>(l - 1)] +
              cy * pyr_w[static_cast<std::size_t>(l - 1)] + cx)] == 0)
        return;
      const int cw = l == 1 ? snx : pyr_w[static_cast<std::size_t>(l - 2)];
      const int ch = l == 1 ? sny : pyr_h[static_cast<std::size_t>(l - 2)];
      const int span = 1 << (l - 1);
      struct Child {
        int d, x, y;
      } cs[4];
      int nc = 0;
      for (int jj = 0; jj < 2; ++jj)
        for (int ii = 0; ii < 2; ++ii) {
          const int x = 2 * cx + ii, y = 2 * cy + jj;
          if (x >= cw || y >= ch) continue;
          cs[nc++] = {rect_cheby(Vx, Vy, x * span, y * span,
                                 std::min(snx, (x + 1) * span) - 1,
                                 std::min(sny, (y + 1) * span) - 1),
                      x, y};
        }
      for (int a = 1; a < nc; ++a)  // insertion sort by lower bound
        for (int bq = a; bq > 0 && cs[bq].d < cs[bq - 1].d; --bq)
          std::swap(cs[bq], cs[bq - 1]);
      for (int a = 0; a < nc; ++a) {
        if (cs[a].d >= bestd) break;
        self(self, l - 1, cs[a].x, cs[a].y);
      }
    };
    descend(descend, pyr_levels, 0, 0);
    return bestd;
  };

  // Candidate min-heap over (best, node) — entries go stale when best[]
  // improves or a node joins the tree; consumers skip stale entries. The
  // route_net prologue already relaxed every node against the driver
  // (node 0), so each node starts with one fresh entry and node 0 needs
  // no scan events.
  auto& minheap = s.minheap;
  auto& scanheap = s.scanheap;
  auto& ord = s.ord;
  auto& ring_next = s.ring_next;
  minheap.clear();
  scanheap.clear();
  minheap.reserve(k);
  scanheap.reserve(k);
  ord.assign(k, 0);
  ring_next.assign(k, 0);
  for (std::size_t j = 1; j < k; ++j)
    minheap.push_back({best[j], static_cast<int>(j)});
  const auto heap_cmp = std::greater<std::pair<double, int>>{};
  std::make_heap(minheap.begin(), minheap.end(), heap_cmp);
  const auto fresh = [&](const std::pair<double, int>& e) {
    return !in_tree[static_cast<std::size_t>(e.second)] &&
           best[static_cast<std::size_t>(e.second)] == e.first;
  };

  // Scan ring `ring` around tree node v, relaxing every live grid node.
  // Returns whether any live node was seen — a dead ring makes the
  // caller consult the pyramid and leapfrog the surrounding dead region.
  const auto scan_ring = [&](std::size_t v, int ring) {
    bool touched = false;
    const int vx = bucket_x(pt[v].x);
    const int vy = bucket_y(pt[v].y);
    const auto scan_bucket = [&](int bxx, int byy) {
      if (bxx < 0 || bxx >= nx || byy < 0 || byy >= ny) return;
      const auto b = static_cast<std::size_t>(byy * nx + bxx);
      const int base = off[b];
      if (live[b] > 0) touched = true;
      for (int idx = base; idx < base + live[b]; ++idx) {
        const auto j =
            static_cast<std::size_t>(nodes[static_cast<std::size_t>(idx)]);
        const double dd = util::manhattan(pt[v], pt[j]);
        if (dd < best[j]) {
          best[j] = dd;
          parent[j] = v;
          minheap.push_back({dd, static_cast<int>(j)});
          std::push_heap(minheap.begin(), minheap.end(), heap_cmp);
        } else if (dd == best[j] && ord[v] < ord[parent[j]]) {
          // Equal distance: naive's strict-< relaxation in insertion
          // order keeps the earliest-inserted tree node as parent.
          parent[j] = v;
        }
      }
    };
    if (ring == 0) {
      scan_bucket(vx, vy);
      return touched;
    }
    // Ring traversal strides over dead 8×8 super cells. Visit order
    // within a ring differs from the plain x-then-y sweep, but each node
    // is relaxed independently and the candidate heap's full (dist, node)
    // ordering makes pop order independent of push order, so results are
    // unchanged.
    const auto scan_row = [&](int y, int x0, int x1) {
      if (y < 0 || y >= ny) return;
      const int sy = y / kCoarse;
      const int xe = std::min(x1, nx - 1);
      int x = std::max(x0, 0);
      while (x <= xe) {
        const int sx = x / kCoarse;
        const int sx_last = std::min(xe, sx * kCoarse + kCoarse - 1);
        if (super_live[static_cast<std::size_t>(sy * snx + sx)] == 0) {
          x = sx_last + 1;
          continue;
        }
        for (; x <= sx_last; ++x) scan_bucket(x, y);
      }
    };
    const auto scan_col = [&](int x, int y0, int y1) {
      if (x < 0 || x >= nx) return;
      const int sx = x / kCoarse;
      const int ye = std::min(y1, ny - 1);
      int y = std::max(y0, 0);
      while (y <= ye) {
        const int sy = y / kCoarse;
        const int sy_last = std::min(ye, sy * kCoarse + kCoarse - 1);
        if (super_live[static_cast<std::size_t>(sy * snx + sx)] == 0) {
          y = sy_last + 1;
          continue;
        }
        for (; y <= sy_last; ++y) scan_bucket(x, y);
      }
    };
    scan_row(vy - ring, vx - ring, vx + ring);
    scan_row(vy + ring, vx - ring, vx + ring);
    scan_col(vx - ring, vy - ring + 1, vy + ring - 1);
    scan_col(vx + ring, vy - ring + 1, vy + ring - 1);
    return touched;
  };

  const int max_ring = nx + ny;
  for (std::size_t added = 1; added < k; ++added) {
    std::size_t u = k;
    for (;;) {
      while (!minheap.empty() && !fresh(minheap.front())) {
        std::pop_heap(minheap.begin(), minheap.end(), heap_cmp);
        minheap.pop_back();
      }
      M3D_CHECK(!minheap.empty());
      const double top = minheap.front().first;
      // Run every pending scan whose lower bound could still surface a
      // candidate at or below `top` (== included: a ring's bound is
      // non-strict, a node at exactly `top` may hide there, and equal
      // distances select the lowest node id / earliest parent).
      if (!scanheap.empty() && scanheap.front().first <= top) {
        const auto ev = scanheap.front();
        std::pop_heap(scanheap.begin(), scanheap.end(), heap_cmp);
        scanheap.pop_back();
        const auto v = static_cast<std::size_t>(ev.second);
        const int ring = ring_next[v]++;
        const bool touched = scan_ring(v, ring);
        int next_ring = ring + 1;
        if (!touched && ring >= 1) {
          // Dead ring: ask the pyramid how far the nearest live super
          // cell is and leapfrog the dead region. A live super at
          // Chebyshev distance Rs (super units) can only hold buckets at
          // fine Chebyshev ≥ 8·Rs − 7, so every ring below that is
          // provably empty and skipping it is a no-op — the relaxation
          // set, and thus the tree, is unchanged. This is what keeps the
          // end game of a 400k-sink clock net from waking every pending
          // scan once per ring of empty space.
          const int rs = nearest_live_super(bucket_x(pt[v].x) / kCoarse,
                                            bucket_y(pt[v].y) / kCoarse);
          if (rs == std::numeric_limits<int>::max()) continue;  // no nodes
          if (rs >= 1)
            next_ring = std::max(next_ring, kCoarse * rs - (kCoarse - 1));
        }
        if (next_ring <= max_ring) {
          // Lower bound for ring r ≥ 1 is (r-1)·bs.
          scanheap.push_back({static_cast<double>(next_ring - 1) * bs,
                              static_cast<int>(v)});
          std::push_heap(scanheap.begin(), scanheap.end(), heap_cmp);
          ring_next[v] = next_ring;
        }
        continue;
      }
      u = static_cast<std::size_t>(minheap.front().second);
      std::pop_heap(minheap.begin(), minheap.end(), heap_cmp);
      minheap.pop_back();
      break;
    }
    in_tree[u] = 1;
    ord[u] = static_cast<int>(added);
    grid_remove(static_cast<int>(u));
    r.length_um += best[u];
    if (tier[u] != tier[parent[u]]) ++r.miv_count;
    ring_next[u] = 0;
    scanheap.push_back({0.0, static_cast<int>(u)});
    std::push_heap(scanheap.begin(), scanheap.end(), heap_cmp);
  }
}

}  // namespace

double hpwl(const Design& d, NetId n) {
  const auto& net = d.nl().net(n);
  BBox bb;
  for (PinId p : net.pins) bb.add(d.pin_pos(p));
  return bb.hpwl();
}

double total_hpwl(const Design& d, const RouteOptions& opt) {
  const int n = d.nl().net_count();
  std::vector<double> per_net(static_cast<std::size_t>(n), 0.0);
  chunked_net_loop(opt.pool, n, [&](int lo, int hi, RouteScratch&) {
    for (int i = lo; i < hi; ++i)
      per_net[static_cast<std::size_t>(i)] = hpwl(d, i);
  });
  // Serial sum in net order: bitwise-identical to the serial loop.
  double sum = 0.0;
  for (double v : per_net) sum += v;
  return sum;
}

NetRoute route_net(const Design& d, NetId n) {
  RouteScratch scratch;
  return route_net(d, n, scratch);
}

NetRoute route_net(const Design& d, NetId n, RouteScratch& scratch) {
  NetRoute r;
  const auto& nl = d.nl();
  const auto& net = nl.net(n);
  // Degenerate (single-pin or undriven) nets never reach the terminal
  // gather or the MST below.
  if (net.driver == kInvalidId || net.pins.size() < 2) return r;

  // Gather terminals: index 0 = driver, then sinks in Netlist::sinks order.
  auto& sink_pins = scratch.sink_pins;
  nl.sinks_into(n, sink_pins);
  const std::size_t k = sink_pins.size() + 1;
  auto& pt = scratch.pt;
  auto& tier = scratch.tier;
  pt.assign(k, Point{});
  tier.assign(k, 0);
  pt[0] = d.pin_pos(net.driver);
  tier[0] = d.tier(nl.pin(net.driver).cell);
  for (std::size_t i = 0; i < sink_pins.size(); ++i) {
    pt[i + 1] = d.pin_pos(sink_pins[i]);
    tier[i + 1] = d.tier(nl.pin(sink_pins[i]).cell);
  }

  // Prim MST on Manhattan distance, rooted at the driver. Small nets use
  // the direct O(k²) scans (ascending-j visit order, ties pick the lowest
  // j, early exit once every out-of-tree node has been seen); fanouts of
  // kSpatialTerminals and up switch to the grid-bucketed spatial_prim,
  // which computes the identical tree in ~O(k log k).
  auto& in_tree = scratch.in_tree;
  auto& best = scratch.best;
  auto& parent = scratch.parent;
  in_tree.assign(k, 0);
  best.assign(k, std::numeric_limits<double>::max());
  parent.assign(k, 0);
  in_tree[0] = 1;
  best[0] = 0.0;
  for (std::size_t j = 1; j < k; ++j) {
    best[j] = util::manhattan(pt[0], pt[j]);
    parent[j] = 0;
  }
  if (k >= kSpatialTerminals) {
    // High fanout: grid-bucketed Prim, bit-identical result (see above).
    spatial_prim(scratch, k, r);
  } else {
    for (std::size_t added = 1; added < k; ++added) {
      const std::size_t out_count = k - added;
      std::size_t u = k;
      double bd = std::numeric_limits<double>::max();
      std::size_t seen = 0;
      for (std::size_t j = 1; j < k; ++j) {
        if (in_tree[j]) continue;
        if (best[j] < bd) {
          bd = best[j];
          u = j;
        }
        if (++seen == out_count) break;
      }
      M3D_CHECK(u < k);
      in_tree[u] = 1;
      r.length_um += bd;
      if (tier[u] != tier[parent[u]]) ++r.miv_count;
      seen = 0;
      for (std::size_t j = 1; j < k && seen + 1 < out_count; ++j) {
        if (in_tree[j]) continue;
        ++seen;
        const double dd = util::manhattan(pt[u], pt[j]);
        if (dd < best[j]) {
          best[j] = dd;
          parent[j] = u;
        }
      }
    }
  }

  // Per-sink path length from the driver along tree edges. parent[]
  // forms a tree rooted at 0, and best[v] is exactly
  // manhattan(pt[v], pt[parent[v]]) for every tree node (it is never
  // written after insertion, and an equal-distance reparent keeps the
  // value), so each hop is one load instead of a recomputation. The
  // per-sink leaf-to-root fold order is load-bearing: memoizing the
  // parent's distance would re-associate the floating-point sum and
  // change results, so each sink walks its full path.
  r.sink_path_um.resize(sink_pins.size(), 0.0);
  r.sink_crosses_tier.resize(sink_pins.size(), false);
  for (std::size_t j = 1; j < k; ++j) {
    double len = 0.0;
    bool crosses = false;
    for (std::size_t v = j; v != 0; v = parent[v]) {
      len += best[v];
      crosses = crosses || tier[v] != tier[parent[v]];
    }
    r.sink_path_um[j - 1] = len;
    r.sink_crosses_tier[j - 1] = crosses;
  }

  const auto& wire = d.lib(netlist::kBottomTier).wire();
  r.wire_cap_ff = wire.wire_cap_ff(r.length_um) +
                  static_cast<double>(r.miv_count) *
                      d.lib(netlist::kBottomTier).miv().cap_ff;
  return r;
}

RoutingEstimate route_design(const Design& d, const RouteOptions& opt) {
  util::TraceSpan span(
      "route_pass",
      util::trace_enabled()
          ? d.nl().name() + " " + std::to_string(d.nl().net_count()) + " nets"
          : std::string());
  const int n = d.nl().net_count();
  RoutingEstimate est;
  est.nets.resize(static_cast<std::size_t>(n));
  chunked_net_loop(opt.pool, n, [&](int lo, int hi, RouteScratch& scratch) {
    for (int i = lo; i < hi; ++i)
      est.nets[static_cast<std::size_t>(i)] = route_net(d, i, scratch);
  });
  // Serial in-order reduction keeps the totals bitwise-identical to the
  // old per-net accumulation at any pool size.
  for (const NetRoute& nr : est.nets) {
    est.total_wirelength_um += nr.length_um;
    est.total_mivs += nr.miv_count;
  }
  const double cap = routing_capacity_um(d);
  est.congestion = cap > 0.0 ? est.total_wirelength_um / cap : 0.0;
  return est;
}

void update_routes_for_cells(const Design& d, const std::vector<CellId>& cells,
                             RoutingEstimate* est, const RouteOptions& opt) {
  const auto& nl = d.nl();
  // Dirty nets in first-encounter order — the exact order the serial code
  // applied its aggregate deltas in, preserved below so the incremental
  // wirelength stays bitwise-identical to the pre-parallel behaviour.
  std::vector<NetId> dirty;
  std::vector<char> net_seen(static_cast<std::size_t>(nl.net_count()), 0);
  for (CellId c : cells)
    for (PinId p : nl.cell(c).pins) {
      const NetId n = nl.pin(p).net;
      if (n == netlist::kInvalidId || net_seen[static_cast<std::size_t>(n)])
        continue;
      net_seen[static_cast<std::size_t>(n)] = 1;
      dirty.push_back(n);
    }

  std::vector<double> old_len(dirty.size());
  std::vector<int> old_mivs(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const NetRoute& slot = est->nets[static_cast<std::size_t>(dirty[i])];
    old_len[i] = slot.length_um;
    old_mivs[i] = slot.miv_count;
  }

  chunked_net_loop(opt.pool, static_cast<int>(dirty.size()),
                   [&](int lo, int hi, RouteScratch& scratch) {
                     for (int i = lo; i < hi; ++i)
                       est->nets[static_cast<std::size_t>(
                           dirty[static_cast<std::size_t>(i)])] =
                           route_net(d, dirty[static_cast<std::size_t>(i)],
                                     scratch);
                   });

  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const NetRoute& slot = est->nets[static_cast<std::size_t>(dirty[i])];
    est->total_wirelength_um += slot.length_um - old_len[i];
    est->total_mivs += slot.miv_count - old_mivs[i];
  }
  const double cap = routing_capacity_um(d);
  est->congestion = cap > 0.0 ? est->total_wirelength_um / cap : 0.0;
}

double routing_capacity_um(const Design& d, double track_pitch_um) {
  // Each signal layer offers (area / pitch) µm of track; both tiers route
  // with the same 6-layer stack (paper §IV-A1).
  const double area = d.floorplan().area();
  const int layers = d.lib(netlist::kBottomTier).wire().signal_layers;
  return area / track_pitch_um * layers * d.num_tiers();
}

}  // namespace m3d::route
