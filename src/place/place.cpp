#include "place/place.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "netlist/checks.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace m3d::place {

using netlist::kBottomTier;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinId;
using util::Point;
using util::Rect;

namespace {

bool movable(const netlist::Netlist& nl, CellId c) {
  const netlist::CellKind k = nl.cell_kind(c);
  return !nl.cell_fixed(c) && k != netlist::CellKind::PrimaryIn &&
         k != netlist::CellKind::PrimaryOut;
}

/// Items per parallel_for chunk. The per-item kernels write single-writer
/// slots, so only the scheduling depends on it. The spreading histogram
/// accumulates one partial per fixed chunk of cell ids and combines the
/// partials serially in chunk order, so its floating-point sum is
/// independent of the pool size (including 1).
constexpr int kChunk = 2048;

/// Floorplan width/height ratio.
constexpr double kAspect = 1.0;
/// Net-centroid relaxation sweeps.
constexpr int kRelaxIters = 60;
/// Histogram-equalization passes (each spreads x, then y).
constexpr int kSpreadIters = 3;
/// Spreading histogram resolution per axis.
constexpr int kGrid = 24;

/// Evenly distribute ports around the floorplan perimeter.
void place_ports(Design& d) {
  const auto& nl = d.nl();
  std::vector<CellId> ports;
  for (CellId c = 0; c < nl.cell_count(); ++c)
    if (nl.cell(c).is_port()) ports.push_back(c);
  if (ports.empty()) return;
  const Rect& fp = d.floorplan();
  const double perim = 2.0 * (fp.width() + fp.height());
  const double step = perim / static_cast<double>(ports.size());
  double s = 0.0;
  for (CellId c : ports) {
    double t = std::fmod(s, perim);
    Point p;
    if (t < fp.width()) {
      p = {fp.xlo + t, fp.ylo};
    } else if (t < fp.width() + fp.height()) {
      p = {fp.xhi, fp.ylo + (t - fp.width())};
    } else if (t < 2.0 * fp.width() + fp.height()) {
      p = {fp.xhi - (t - fp.width() - fp.height()), fp.yhi};
    } else {
      p = {fp.xlo, fp.yhi - (t - 2.0 * fp.width() - fp.height())};
    }
    d.set_pos(c, p);
    s += step;
  }
}

/// Pin macros in columns along the left and right core edges. In 3-D the
/// macros are themselves partitioned across tiers (area-balanced greedy):
/// the paper keeps memories identical in both technology variants exactly
/// so the cache can occupy either die.
void place_macros(Design& d) {
  const auto& nl = d.nl();
  std::vector<CellId> macros;
  for (CellId c = 0; c < nl.cell_count(); ++c)
    if (nl.cell(c).is_macro()) macros.push_back(c);
  if (macros.empty()) return;
  // Largest first for better greedy balance.
  std::sort(macros.begin(), macros.end(), [&](CellId a, CellId b) {
    return d.cell_area(a) > d.cell_area(b);
  });
  const Rect& fp = d.floorplan();
  const int tiers = d.num_tiers();
  double tier_area[2] = {0.0, 0.0};
  // col_y[tier][side]: fill level of each tier's left/right column.
  double col_y[2][2] = {{fp.ylo, fp.ylo}, {fp.ylo, fp.ylo}};
  for (CellId c : macros) {
    const int tier =
        tiers == 2 && tier_area[1] < tier_area[0] ? netlist::kTopTier
                                                  : kBottomTier;
    d.set_tier(c, tier);
    tier_area[tier] += d.cell_area(c);
    const double w = d.cell_width(c);
    const double h = d.cell_height(c);
    double* cols = col_y[tier];
    int side = cols[0] <= cols[1] ? 0 : 1;
    if (cols[side] + h > fp.yhi) side = 1 - side;
    if (cols[side] + h > fp.yhi)
      util::log_warn("macro column overflow — stacking beyond core edge");
    const double x = side == 0 ? fp.xlo + w / 2.0 : fp.xhi - w / 2.0;
    d.set_pos(c, {x, cols[side] + h / 2.0});
    cols[side] += h + 2.0;  // 2 µm halo between macros
  }
}


struct MacroObstacle {
  Rect r;
  int tier;
};

std::vector<MacroObstacle> macro_obstacles(const Design& d) {
  std::vector<MacroObstacle> out;
  const auto& nl = d.nl();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!nl.cell(c).is_macro()) continue;
    const Point p = d.pos(c);
    const double w = d.cell_width(c), h = d.cell_height(c);
    out.push_back(
        {{p.x - w / 2.0, p.y - h / 2.0, p.x + w / 2.0, p.y + h / 2.0},
         d.tier(c)});
  }
  return out;
}

}  // namespace

void init_floorplan(Design& d, const PlaceOptions& opt) {
  M3D_CHECK(opt.utilization > 0.05 && opt.utilization <= 1.0);
  const double cell_area = d.total_std_cell_area();
  const double macro_area = d.total_macro_area();
  // In 3-D the same footprint hosts both tiers, so the standard-cell area
  // budget is split across tiers; macros live on the bottom tier only and
  // must fit in plan view.
  const int tiers = d.num_tiers();
  // With a balanced tier partition (macro-aware: see the FM target-share
  // computation in the flow), the per-tier requirement is the 2-D core
  // divided by the tier count — this is what keeps total silicon area
  // equal between a 2-D design and its homogeneous 3-D fold.
  double core =
      (cell_area / opt.utilization + macro_area * 1.05) / tiers;
  // Each tier's macro share must fit in plan view.
  core = std::max(core, macro_area * 1.15 / tiers);
  const double width = std::sqrt(core * kAspect);
  const double height = core / width;
  d.set_floorplan({0.0, 0.0, width, height});
  place_macros(d);
  place_ports(d);
  util::log_info("floorplan ", width, " x ", height, " um, util ",
                 opt.utilization, ", tiers ", tiers);
}

void global_place(Design& d, const PlaceOptions& opt) {
  const auto& nl = d.nl();
  const Rect fp = d.floorplan();
  util::Rng rng(opt.seed);
  exec::Pool& pool = exec::pool_or_global(opt.pool);
  const int nc = nl.cell_count();
  const int nn = nl.net_count();
  const bool tracing = util::trace_enabled();

  // --- flat state, built once per call ------------------------------------
  // The sweeps below read only these arrays; the Design sees the result
  // once, at the end. px/py hold every cell (fixed cells anchor the nets);
  // movable cells are listed in ascending id with their area. The initial
  // scatter is serial: one shared RNG stream.
  std::vector<double> px(static_cast<std::size_t>(nc));
  std::vector<double> py(static_cast<std::size_t>(nc));
  std::vector<CellId> mcell;
  std::vector<double> marea;
  for (CellId c = 0; c < nc; ++c) {
    Point p = d.pos(c);
    if (movable(nl, c)) {
      p = {rng.uniform(fp.xlo, fp.xhi), rng.uniform(fp.ylo, fp.yhi)};
      mcell.push_back(c);
      marea.push_back(d.cell_area(c));
    }
    px[static_cast<std::size_t>(c)] = p.x;
    py[static_cast<std::size_t>(c)] = p.y;
  }
  const int nm = static_cast<int>(mcell.size());

  // Relaxed nets: non-clock (CTS owns the clock topology) with >= 2 pins;
  // no other net's centroid is ever read. net_cell lists the cells of each
  // relaxed net's pins in net pin order, net_den its pin count - 1.
  std::vector<int> slot(static_cast<std::size_t>(nn), -1);
  std::vector<int> net_off{0};
  std::vector<CellId> net_cell;
  std::vector<double> net_den;
  net_cell.reserve(static_cast<std::size_t>(nl.pin_count()));
  for (NetId n = 0; n < nn; ++n) {
    if (nl.net_is_clock(n)) continue;
    const netlist::PinSpan pins = nl.net(n).pins;
    if (pins.size() < 2) continue;
    slot[static_cast<std::size_t>(n)] = static_cast<int>(net_den.size());
    for (PinId p : pins) net_cell.push_back(nl.pin(p).cell);
    net_off.push_back(static_cast<int>(net_cell.size()));
    net_den.push_back(static_cast<double>(pins.size() - 1));
  }
  const int nr = static_cast<int>(net_den.size());
  // Per movable cell, its relaxed nets in cell pin order (a net reached
  // through two pins is listed twice).
  std::vector<int> cell_off{0};
  std::vector<int> cell_net;
  cell_net.reserve(static_cast<std::size_t>(nl.pin_count()));
  for (CellId c : mcell) {
    for (PinId p : nl.cell(c).pins) {
      const NetId n = nl.pin(p).net;
      if (n != kInvalidId && slot[static_cast<std::size_t>(n)] >= 0)
        cell_net.push_back(slot[static_cast<std::size_t>(n)]);
    }
    cell_off.push_back(static_cast<int>(cell_net.size()));
  }

  // Each loop runs fn(i) for i in [0, n) in kChunk-item chunks, one pool
  // item per chunk.
  auto chunked = [&](int n, auto&& fn) {
    pool.parallel_for(0, (n + kChunk - 1) / kChunk, [&](int k) {
      const int end = std::min(n, (k + 1) * kChunk);
      for (int i = k * kChunk; i < end; ++i) fn(i);
    });
  };

  // --- net-centroid relaxation --------------------------------------------
  // x_i <- average of centroids of nets incident to i (fixed cells anchor).
  // Both passes are single-writer — each net owns its centroid slot, each
  // cell its position — and the update is Jacobi-style (centroids are
  // frozen while cells move), so the parallel result is byte-identical to
  // the serial one. Every sum runs in pin order.
  std::vector<double> cx(static_cast<std::size_t>(nr));
  std::vector<double> cy(static_cast<std::size_t>(nr));
  for (int iter = 0; iter < kRelaxIters; ++iter) {
    util::TraceSpan pass_span("relax_pass",
                              tracing ? std::to_string(iter) : std::string());
    chunked(nr, [&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      double x = 0.0, y = 0.0;
      for (int j = net_off[ri]; j < net_off[ri + 1]; ++j) {
        const auto c = static_cast<std::size_t>(
            net_cell[static_cast<std::size_t>(j)]);
        x += px[c];
        y += py[c];
      }
      cx[ri] = x;
      cy[ri] = y;
    });
    chunked(nm, [&](int i) {
      const auto ii = static_cast<std::size_t>(i);
      const int k = cell_off[ii + 1] - cell_off[ii];
      if (k == 0) return;
      const auto c = static_cast<std::size_t>(mcell[ii]);
      const double self_x = px[c], self_y = py[c];
      double sx = 0.0, sy = 0.0;
      for (int j = cell_off[ii]; j < cell_off[ii + 1]; ++j) {
        const auto r =
            static_cast<std::size_t>(cell_net[static_cast<std::size_t>(j)]);
        // Centroid of the net excluding this pin (removes self-pull).
        sx += (cx[r] - self_x) / net_den[r];
        sy += (cy[r] - self_y) / net_den[r];
      }
      const Point p = fp.clamp({sx / k, sy / k});
      px[c] = p.x;
      py[c] = p.y;
    });
  }

  // --- density spreading: per-axis histogram equalization ------------------
  // The histogram sums one partial per fixed 2,048-id range of cell ids
  // (chunk k holds movable cells mcell[chunk_lo[k] .. chunk_lo[k+1])).
  const int nchunks = (nc + kChunk - 1) / kChunk;
  std::vector<int> chunk_lo(static_cast<std::size_t>(nchunks) + 1, nm);
  for (int k = 0; k < nchunks; ++k)
    chunk_lo[static_cast<std::size_t>(k)] = static_cast<int>(
        std::lower_bound(mcell.begin(), mcell.end(), k * kChunk) -
        mcell.begin());
  std::vector<std::vector<double>> chunk_mass(
      static_cast<std::size_t>(nchunks),
      std::vector<double>(static_cast<std::size_t>(kGrid), 0.0));
  for (int pass = 0; pass < kSpreadIters; ++pass) {
    for (int axis = 0; axis < 2; ++axis) {
      util::TraceSpan pass_span(
          "spread_pass", tracing ? std::to_string(pass) + (axis == 0 ? "/x" : "/y")
                                 : std::string());
      const double lo = axis == 0 ? fp.xlo : fp.ylo;
      const double hi = axis == 0 ? fp.xhi : fp.yhi;
      const double span = hi - lo;
      const std::vector<double>& pv = axis == 0 ? px : py;
      // Per-chunk partial histograms over fixed cell-id ranges, combined
      // serially in chunk order: the reduction order — and therefore the
      // floating-point result — does not depend on the pool size.
      pool.parallel_for(0, nchunks, [&](int chunk) {
        const auto ck = static_cast<std::size_t>(chunk);
        auto& m = chunk_mass[ck];
        std::fill(m.begin(), m.end(), 0.0);
        for (auto i = static_cast<std::size_t>(chunk_lo[ck]);
             i < static_cast<std::size_t>(chunk_lo[ck + 1]); ++i) {
          const double v = pv[static_cast<std::size_t>(mcell[i])];
          int b = static_cast<int>((v - lo) / span * kGrid);
          b = std::clamp(b, 0, kGrid - 1);
          m[static_cast<std::size_t>(b)] += marea[i];
        }
      }, /*grain=*/1);
      std::vector<double> mass(static_cast<std::size_t>(kGrid), 0.0);
      for (int chunk = 0; chunk < nchunks; ++chunk)
        for (int b = 0; b < kGrid; ++b)
          mass[static_cast<std::size_t>(b)] +=
              chunk_mass[static_cast<std::size_t>(chunk)]
                        [static_cast<std::size_t>(b)];
      std::vector<double> cum(static_cast<std::size_t>(kGrid) + 1, 0.0);
      for (int b = 0; b < kGrid; ++b)
        cum[static_cast<std::size_t>(b) + 1] =
            cum[static_cast<std::size_t>(b)] +
            mass[static_cast<std::size_t>(b)];
      const double total = cum.back();
      if (total <= 0.0) continue;
      // Blend toward the equalized coordinate to avoid oscillation. Each
      // cell reads the frozen histogram and writes only its own position.
      const double blend = 0.5;
      chunked(nm, [&](int i) {
        const auto c =
            static_cast<std::size_t>(mcell[static_cast<std::size_t>(i)]);
        Point p{px[c], py[c]};
        const double v = axis == 0 ? p.x : p.y;
        double f = (v - lo) / span * kGrid;
        f = std::clamp(f, 0.0, static_cast<double>(kGrid) - 1e-9);
        const int b = static_cast<int>(f);
        const double frac = f - b;
        const double cdf = (cum[static_cast<std::size_t>(b)] +
                            frac * mass[static_cast<std::size_t>(b)]) /
                           total;
        const double target = lo + cdf * span;
        const double nv = v * (1.0 - blend) + target * blend;
        if (axis == 0)
          p.x = nv;
        else
          p.y = nv;
        p = fp.clamp(p);
        px[c] = p.x;
        py[c] = p.y;
      });
    }
  }
  for (CellId c : mcell)
    d.set_pos(c, {px[static_cast<std::size_t>(c)],
                  py[static_cast<std::size_t>(c)]});
  util::log_info("global place done");
}

namespace {

/// One legalization row: a set of occupied intervals (macro cutouts +
/// already-placed cells). Cells slot into the nearest free gap, so earlier
/// placements never strand capacity.
struct LegalRow {
  double y = 0.0;

  void init(double xlo, double xhi) {
    occ_.clear();
    // Sentinels outside the row bound all gaps.
    occ_.push_back({xlo - 1.0, xlo});
    occ_.push_back({xhi, xhi + 1.0});
    free_ = 0.0;
    hint_ = 0;
    xlo_ = xlo;
    const double span = std::max(1.0, xhi - xlo);
    nbuck_ = std::clamp(static_cast<int>(span / 16.0) + 1, 1, 8192);
    binv_ = nbuck_ / span;
    c_lo_x_ = 0.0;
    c_hi_x_ = -1.0;
    c_w_ = std::numeric_limits<double>::max();
    skip_w_ = std::numeric_limits<double>::max();
    skip_lo_u_ = std::numeric_limits<double>::max();
    skip_hi_u_ = -std::numeric_limits<double>::max();
  }

  void block(double lo, double hi) { occ_.push_back({lo, hi}); }

  /// Call once after init() + block()s: sorts the cutouts into place and
  /// sums the remaining gap widths. Overlapping macro cutouts can only
  /// make the sum an over-estimate, so free_ stays an upper bound on
  /// placeable width — cannot_fit() below prunes only rows where place()
  /// was guaranteed to fail, keeping the legalized result identical to
  /// the unpruned row walk.
  void finalize() {
    std::sort(occ_.begin(), occ_.end(),
              [](const Iv& a, const Iv& b) { return a.lo < b.lo; });
    free_ = 0.0;
    clean_ = true;
    widths_.resize(occ_.size() - 1);
    bub_.assign(static_cast<std::size_t>(nbuck_), 0.0);
    for (std::size_t i = 0; i + 1 < occ_.size(); ++i) {
      widths_[i] = occ_[i + 1].lo - occ_[i].hi;
      free_ += std::max(0.0, widths_[i]);
      if (occ_[i].hi > occ_[i + 1].lo) clean_ = false;
      // Seed the bucket bounds with each gap's exact width over the
      // x-buckets it touches (rows have only a handful of gaps here).
      if (widths_[i] > 0.0)
        for (int b = bucket(occ_[i].hi); b <= bucket(occ_[i + 1].lo); ++b)
          bub_[static_cast<std::size_t>(b)] =
              std::max(bub_[static_cast<std::size_t>(b)], widths_[i]);
    }
  }

  /// O(1) reject for the outward row search: true when no gap of width w
  /// can exist. Full rows cost one compare instead of a 96-gap scan.
  bool cannot_fit(double w) const { return free_ < w - 1e-9; }

  /// Walk-free certificate reject, exposed so the outward row search can
  /// skip a provably-failing place() call without paying its call and
  /// cursor overhead: true exactly when place(want_x, w) would return
  /// NaN through the skip-memo fast path below.
  bool memo_rejects(double want_x, double w) const {
    const double want_lo = want_x - w / 2.0;
    return clean_ && w >= skip_w_ && want_lo >= skip_lo_u_ &&
           want_lo < skip_hi_u_;
  }

  /// Try to place a cell of width w near want_x; returns the placed center
  /// x or NaN when no gap within the search window fits.
  ///
  /// In rows whose intervals never overlap (clean_), the window scan is a
  /// first-fit walk in each direction: among gaps entirely left of
  /// want_lo, successive gap highs are non-increasing walking left, so
  /// displacement cost only grows — and symmetrically walking right — so
  /// the first such fit is that direction's minimum and the walk can
  /// stop. The one probe that may precede them (the gap straddling or
  /// right of want_lo reached via the left index) is taken before
  /// breaking. Left candidates are probed first and later ones replace
  /// only on strictly smaller cost, which reproduces the historical
  /// full-window min-cost scan bit for bit; rows with overlapping macro
  /// cutouts (where monotonicity can fail) keep the full 96-probe scan.
  double place(double want_x, double w) {
    const double want_lo = want_x - w / 2.0;
    // Walk-free reject: the skip memo is the no-fit certificate projected
    // into want_lo space. Within [skip_lo_u_, skip_hi_u_) the upper_bound
    // index is pinned to a range whose probe window provably sits inside
    // the certificate (see build_skip_memo), so the certificate test
    // below would fire; returning its NaN here skips the cursor walk
    // entirely. hint_ is left untouched, which is harmless — any cursor
    // start yields the same exact upper_bound on the next real call.
    if (clean_ && w >= skip_w_ && want_lo >= skip_lo_u_ &&
        want_lo < skip_hi_u_)
      return std::numeric_limits<double>::quiet_NaN();
    // First interval starting after want_lo (== upper_bound by lo).
    // Walked from the previous call's position instead of binary-searched:
    // legalize feeds each row cells in ascending x, so the cursor only
    // creeps forward and the walk is amortized O(1); any start point
    // yields the exact upper_bound, just with a longer walk.
    std::size_t h = std::min(hint_, occ_.size());
    while (h > 0 && occ_[h - 1].lo > want_lo) --h;
    while (h < occ_.size() && occ_[h].lo <= want_lo) ++h;
    const std::size_t right = h;
    hint_ = h;
    const std::size_t left = right > 0 ? right - 1 : right;

    if (clean_) {
      // Fast reject: in a clean row the probe window is the contiguous
      // gap range [left-47, left] ∪ [right, right+47]. If its widest gap
      // is under w - 1e-9 every probe below fails, so the call can
      // return NaN without walking — this is what the outward row search
      // hits ~50 times per cell on a million-cell design.
      //
      // Two reject tiers. bub_ holds, per ~16 µm x-bucket, the exact max
      // width over gaps touching that bucket (maintained on every
      // insert). The window's x-extent [occ_[wlo].hi, occ_[whi].lo]
      // covers exactly the window gaps in a clean row, so when every
      // covering bucket's bound is under w the window cannot fit — an
      // O(few) reject instead of the 96-element max-scan. The exact scan
      // stays as the authority when the bucket bounds are inconclusive
      // (bucket edges see gaps just outside the window) or the extent is
      // too wide to be worth bucketing.
      const std::size_t wlo = left >= 47 ? left - 47 : 0;
      const std::size_t whi = std::min(right + 48, widths_.size());
      const double ext_lo = occ_[wlo].hi;
      const double ext_hi = occ_[whi].lo;
      // O(1) tier: the cached no-fit certificate. It asserts every gap
      // lying inside [c_lo_x_, c_hi_x_] is narrower than c_w_ − 1e-9; a
      // window whose extent sits inside it cannot fit any cell at least
      // c_w_ wide. Gaps only ever shrink, so the claim stays true until
      // an insert splits a boundary-crossing gap — place() clips the
      // certificate then.
      if (w >= c_w_ && ext_lo >= c_lo_x_ && ext_hi <= c_hi_x_)
        return std::numeric_limits<double>::quiet_NaN();
      const int b0 = bucket(ext_lo);
      const int b1 = bucket(ext_hi);
      bool need_scan = true;
      if (b1 - b0 >= 2 && b1 - b0 <= 16) {
        // Interior buckets lie strictly inside the window's x-extent, so
        // every gap touching them is a window gap and bub_ bounds them.
        // The two edge buckets also touch gaps outside the window (in a
        // packed cluster the gap one index past the window is often a
        // huge free region sharing the bucket), so their window gaps are
        // scanned exactly — a handful each, capped so degenerate rows
        // fall back to the full scan. A conclusive bound under w is
        // exactly the full scan's reject; a conclusive bound over w
        // means some window gap fits and the probes below will find it.
        double bmax = 0.0;
        bool conclusive = true;
        for (int b = b0 + 1; b < b1; ++b)
          bmax = std::max(bmax, bub_[static_cast<std::size_t>(b)]);
        const double bw = 1.0 / binv_;
        const double b0_end = xlo_ + (b0 + 1) * bw;
        const double b1_start = xlo_ + b1 * bw;
        int steps = 0;
        for (std::size_t e = wlo; e < whi; ++e) {
          if (occ_[e].hi >= b0_end) break;
          if (++steps > 32) {
            conclusive = false;
            break;
          }
          bmax = std::max(bmax, widths_[e]);
        }
        if (conclusive) {
          steps = 0;
          for (std::size_t e = whi; e > wlo; --e) {
            if (occ_[e].lo <= b1_start) break;
            if (++steps > 32) {
              conclusive = false;
              break;
            }
            bmax = std::max(bmax, widths_[e - 1]);
          }
        }
        if (conclusive) {
          if (bmax < w - 1e-9) {
            extend_cert(w, ext_lo, ext_hi, b0, b1);
            return std::numeric_limits<double>::quiet_NaN();
          }
          need_scan = false;
        }
      }
      if (need_scan) {
        double wmax = 0.0;
        for (std::size_t i = wlo; i < whi; ++i)
          wmax = std::max(wmax, widths_[i]);
        if (wmax < w - 1e-9) {
          extend_cert(w, ext_lo, ext_hi, b0, b1);
          return std::numeric_limits<double>::quiet_NaN();
        }
      }
    }

    double best = std::numeric_limits<double>::quiet_NaN();
    double best_cost = std::numeric_limits<double>::max();
    // Returns true when gap i fits (a candidate was recorded or it lost
    // a cost tie to an earlier probe).
    auto try_gap = [&](std::size_t i) {
      if (i + 1 >= occ_.size()) return false;
      const double gap_lo = occ_[i].hi;
      const double gap_hi = occ_[i + 1].lo;
      if (gap_hi - gap_lo < w - 1e-9) return false;
      // A gap that passes the fit test can still be up to 1e-9 narrower
      // than the cell, so gap_hi - w may lie below gap_lo. std::clamp
      // requires lo <= hi; this is its libstdc++ body without that
      // precondition, so such a cell starts at gap_hi - w, as before.
      const double x = std::min(std::max(want_lo, gap_lo), gap_hi - w);
      const double cost = std::abs(x - want_lo);
      if (cost < best_cost) {
        best_cost = cost;
        best = x;
      }
      return true;
    };
    for (std::size_t i = 0, l = left; i < 48; ++i, --l) {
      const bool fit = try_gap(l);
      // Early exit only at a fitting gap entirely left of want_lo; a
      // straddling/right-side gap at the left index has no monotonicity
      // claim over the gaps beyond it.
      if ((fit && clean_ && occ_[l].hi <= want_lo) || l == 0) break;
    }
    for (std::size_t i = 0, r = right; i < 48 && r < occ_.size(); ++i, ++r)
      if (try_gap(r) && clean_) break;

    if (std::isnan(best)) return best;
    // Insert position: same exact-upper_bound walk, started from the
    // cursor (best lies within the 48-gap window around it).
    std::size_t ai = std::min(hint_, occ_.size());
    while (ai > 0 && occ_[ai - 1].lo > best) --ai;
    while (ai < occ_.size() && occ_[ai].lo <= best) ++ai;
    const auto at = occ_.begin() + static_cast<std::ptrdiff_t>(ai);
    // A fitted cell can protrude ≤ 1e-9 into the next interval (the fit
    // tolerance); that would break the first-fit monotonicity argument,
    // so such rows drop back to the full scan.
    if (at != occ_.end() && best + w > at->lo) clean_ = false;
    const std::size_t a = static_cast<std::size_t>(at - occ_.begin());
    occ_.insert(at, {best, best + w});
    // The new interval splits gap a-1 into a left and a right remainder
    // (exact only while the row is clean; unclean rows never read
    // widths_).
    widths_.insert(widths_.begin() + static_cast<std::ptrdiff_t>(a),
                   occ_[a + 1].lo - (best + w));
    widths_[a - 1] = best - occ_[a - 1].hi;
    if (a <= hint_) ++hint_;
    // The insert shifted interval indices, so the memo's index-derived
    // want_lo band no longer maps to the certificate range — drop it
    // until the next reject rebuilds it.
    skip_w_ = std::numeric_limits<double>::max();
    if (clean_) {
      // A boundary-crossing gap at least c_w_ wide may leave fragments
      // inside the certificate range that exceed its claim — clip the
      // range to the split gap's far edge. Gaps wholly inside the range
      // are under c_w_ already, so their fragments are too.
      const double g_lo = occ_[a - 1].hi;
      const double g_hi = occ_[a + 1].lo;
      if (g_hi - g_lo >= c_w_ - 1e-9 && g_lo < c_hi_x_ && g_hi > c_lo_x_) {
        if (g_lo > c_lo_x_)
          c_hi_x_ = std::min(c_hi_x_, g_lo);
        else
          c_lo_x_ = std::max(c_lo_x_, g_hi);
      }
      // Re-derive the exact bucket bounds the insert invalidated: only
      // the split gap shrank, so only the buckets it touched —
      // [occ_[a-1].hi, occ_[a+1].lo], both endpoints unchanged by the
      // insert — can change. Rebuild each from the gaps overlapping it.
      const int rb0 = bucket(occ_[a - 1].hi);
      const int rb1 = bucket(occ_[a + 1].lo);
      const double bw = 1.0 / binv_;
      const double bx_lo = xlo_ + rb0 * bw;
      const double bx_hi = xlo_ + (rb1 + 1) * bw;
      for (int b = rb0; b <= rb1; ++b)
        bub_[static_cast<std::size_t>(b)] = 0.0;
      std::size_t s = a - 1;
      while (s > 0 && occ_[s].lo > bx_lo) --s;
      for (std::size_t e = s; e < widths_.size(); ++e) {
        if (occ_[e].hi >= bx_hi) break;
        if (widths_[e] <= 0.0) continue;
        const int g0 = std::max(rb0, bucket(occ_[e].hi));
        const int g1 = std::min(rb1, bucket(occ_[e + 1].lo));
        for (int b = g0; b <= g1; ++b)
          bub_[static_cast<std::size_t>(b)] =
              std::max(bub_[static_cast<std::size_t>(b)], widths_[e]);
      }
    }
    // The accepted gap may be up to 1e-9 narrower than w (the fit
    // tolerance above), so at least w - 1e-9 of real gap was consumed;
    // subtracting that keeps free_ an upper bound under accumulation.
    free_ -= w - 1e-9;
    return best + w / 2.0;
  }

 private:
  struct Iv {
    double lo, hi;
  };
  /// x-bucket index for the stale gap-width bounds (clamped to the row).
  int bucket(double x) const {
    return std::clamp(static_cast<int>((x - xlo_) * binv_), 0, nbuck_ - 1);
  }

  /// After a proven reject (no window gap ≥ w − 1e-9 in [ext_lo,
  /// ext_hi]), store a no-fit certificate: the window range extended
  /// through every adjacent bucket whose exact bound is under w. A gap
  /// inside the extension touches only such buckets, so it is under w
  /// too; a gap straddling the window boundary intersects the extent and
  /// is therefore a window gap. The walk is paid only on certificate
  /// misses, so it amortizes against the O(1) rejects it enables.
  void extend_cert(double w, double ext_lo, double ext_hi, int b0, int b1) {
    const double bw = 1.0 / binv_;
    int bl = b0;
    while (bl > 0 && bub_[static_cast<std::size_t>(bl)] < w - 1e-9) --bl;
    const double lo_ext =
        xlo_ +
        (bub_[static_cast<std::size_t>(bl)] < w - 1e-9 ? bl : bl + 1) * bw;
    int bh = b1;
    while (bh < nbuck_ - 1 && bub_[static_cast<std::size_t>(bh)] < w - 1e-9)
      ++bh;
    const double hi_ext =
        xlo_ +
        (bub_[static_cast<std::size_t>(bh)] < w - 1e-9 ? bh + 1 : bh) * bw;
    c_w_ = w;
    c_lo_x_ = std::min(ext_lo, lo_ext);
    c_hi_x_ = std::max(ext_hi, hi_ext);
    build_skip_memo();
  }

  /// Project the fresh certificate into want_lo space: find the interval
  /// index range [L*, R*] the certificate covers (clean rows keep occ_
  /// sorted by hi as well as lo, so both ends binary-search), then bound
  /// the upper_bound index `right` so the probe window [right-48,
  /// right+48] stays inside it. right >= L*+48 iff want_lo >=
  /// occ_[L*+47].lo ensures ext_lo = occ_[right-48].hi >= occ_[L*].hi >=
  /// c_lo_x_; right <= R*-48 iff want_lo < occ_[R*-48].lo ensures ext_hi
  /// = occ_[right+48].lo <= occ_[R*].lo <= c_hi_x_ (and rules out the
  /// end-of-row clamp). Any probe with w >= c_w_ inside the resulting
  /// want_lo band therefore reaches the certificate reject — place() may
  /// return its NaN without walking the cursor. Any insert into the row
  /// shifts indices and clears the memo.
  void build_skip_memo() {
    skip_w_ = c_w_;
    const auto itL =
        std::lower_bound(occ_.begin(), occ_.end(), c_lo_x_,
                         [](const Iv& iv, double v) { return iv.hi < v; });
    const auto itR =
        std::upper_bound(occ_.begin(), occ_.end(), c_hi_x_,
                         [](double v, const Iv& iv) { return v < iv.lo; });
    const std::size_t ls = static_cast<std::size_t>(itL - occ_.begin());
    const std::size_t rn = static_cast<std::size_t>(itR - occ_.begin());
    skip_lo_u_ = ls + 47 < occ_.size()
                     ? occ_[ls + 47].lo
                     : std::numeric_limits<double>::max();
    skip_hi_u_ = rn >= 49 ? occ_[rn - 49].lo
                          : -std::numeric_limits<double>::max();
  }

  std::vector<Iv> occ_;  // occupied intervals, sorted by lo
  std::vector<double> widths_;  // gap i width = occ_[i+1].lo - occ_[i].hi
  std::vector<double> bub_;  // per-x-bucket stale max-gap-width bound
  std::size_t hint_ = 0;  // cursor for the amortized upper_bound walks
  double xlo_ = 0.0;     // row left edge (bucket origin)
  double binv_ = 1.0;    // buckets per µm
  int nbuck_ = 1;        // bucket count (~16 µm each)
  double c_lo_x_ = 0.0;  // no-fit certificate range (empty when lo > hi)
  double c_hi_x_ = -1.0;
  double c_w_ = std::numeric_limits<double>::max();  // certified width
  // Want-lo projection of the certificate (walk-free reject band).
  double skip_w_ = std::numeric_limits<double>::max();
  double skip_lo_u_ = std::numeric_limits<double>::max();
  double skip_hi_u_ = -std::numeric_limits<double>::max();
  double free_ = 0.0;    // upper bound on remaining gap width
  bool clean_ = true;    // no overlapping intervals → first-fit early exit
};

}  // namespace

void legalize(Design& d) {
  const auto& nl = d.nl();
  const Rect fp = d.floorplan();
  const auto obstacles = macro_obstacles(d);

  // Tiers share no row and no cell, so each tier's row build and pack is
  // one task on the global pool (a 2-D design runs inline): a task reads
  // and writes only its own tier's cells. The no-row counts are logged in
  // tier order after the join, so the log does not depend on scheduling.
  std::vector<int> unplaced(static_cast<std::size_t>(d.num_tiers()), 0);
  exec::pool_or_global(nullptr).parallel_for(0, d.num_tiers(), [&](int tier) {
    const double row_h = d.lib(tier).row_height_um();
    const int nrows = std::max(1, static_cast<int>(fp.height() / row_h));

    // Build rows with macro cutouts.
    std::vector<LegalRow> rows(static_cast<std::size_t>(nrows));
    for (int r = 0; r < nrows; ++r) {
      LegalRow& row = rows[static_cast<std::size_t>(r)];
      row.y = fp.ylo + (r + 0.5) * row_h;
      row.init(fp.xlo, fp.xhi);
      for (const auto& ob : obstacles)
        if (ob.tier == tier && ob.r.ylo <= row.y + row_h / 2.0 &&
            row.y - row_h / 2.0 <= ob.r.yhi)
          row.block(ob.r.xlo, ob.r.xhi);
      row.finalize();
    }

    // Two passes keep legalization nearly idempotent — vital for the ECO
    // stages, which re-legalize after small tier moves and must not
    // reshuffle the rest of the design:
    //  1. cells already sitting exactly on a row keep their spot;
    //  2. everything else Tetris-packs into the remaining gaps.
    std::vector<CellId> aligned, rest;
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      if (!movable(nl, c) || d.tier(c) != tier) continue;
      const double rel = (d.pos(c).y - fp.ylo) / row_h - 0.5;
      if (std::abs(rel - std::round(rel)) < 1e-9 && rel > -0.25 &&
          rel < nrows - 0.75)
        aligned.push_back(c);
      else
        rest.push_back(c);
    }
    auto by_x = [&](CellId a, CellId b) { return d.pos(a).x < d.pos(b).x; };
    std::sort(aligned.begin(), aligned.end(), by_x);
    std::sort(rest.begin(), rest.end(), by_x);
    std::vector<CellId> cells = std::move(aligned);
    cells.insert(cells.end(), rest.begin(), rest.end());

    int n_unplaced = 0;
    for (CellId c : cells) {
      const double w = d.cell_width(c);
      const Point want = d.pos(c);
      int r0 = static_cast<int>((want.y - fp.ylo) / row_h);
      r0 = std::clamp(r0, 0, nrows - 1);
      bool placed = false;
      // Search rows outward from the desired one.
      for (int off = 0; off < nrows && !placed; ++off) {
        for (int sgn : {1, -1}) {
          if (off == 0 && sgn < 0) continue;
          const int r = r0 + sgn * off;
          if (r < 0 || r >= nrows) continue;
          LegalRow& row = rows[static_cast<std::size_t>(r)];
          if (row.cannot_fit(w) || row.memo_rejects(want.x, w)) continue;
          const double x = row.place(want.x, w);
          if (!std::isnan(x)) {
            d.set_pos(c, {x, row.y});
            placed = true;
            break;
          }
        }
      }
      if (!placed) ++n_unplaced;
    }
    unplaced[static_cast<std::size_t>(tier)] = n_unplaced;
  }, /*grain=*/1);
  for (int tier = 0; tier < d.num_tiers(); ++tier)
    if (const int n = unplaced[static_cast<std::size_t>(tier)]; n > 0)
      util::log_warn("legalize: ", nl.name(), ": ", n,
                     " cells found no row on tier ", tier);
  util::log_info("legalization done");
}

void place_design(Design& d, const PlaceOptions& opt) {
  init_floorplan(d, opt);
  global_place(d, opt);
  legalize(d);
}

void rescale_to_utilization(Design& d, double utilization) {
  M3D_CHECK(utilization > 0.05 && utilization <= 1.0);
  const auto& nl = d.nl();
  const Rect old_fp = d.floorplan();
  const double macro_area = d.total_macro_area();
  double core;
  if (d.num_tiers() >= 2) {
    // The footprint must host whichever tier needs more plan-view room —
    // the partition is rarely a perfect even split once macros and pinned
    // critical cells skew it. For two tiers this reduces to the historical
    // max(bottom_req, top_req); taller stacks fold the same per-tier
    // requirement over every tier instead of budgeting the total cell
    // area into one footprint.
    core = 0.0;
    double macro_max = 0.0;
    for (int t = 0; t < d.num_tiers(); ++t) {
      const double tier_req = d.tier_std_cell_area(t) / utilization +
                              tier_macro_area(d, t) * 1.05;
      core = std::max(core, tier_req);
      macro_max = std::max(macro_max, tier_macro_area(d, t));
    }
    core = std::max(core, macro_max * 1.15);
  } else {
    core = d.total_std_cell_area() / utilization + macro_area * 1.05;
    core = std::max(core, macro_area * 1.15);
  }
  const double ratio = std::sqrt(core / std::max(old_fp.area(), 1e-9));
  // A rescale moves *every* cell off the legalized grid; for a sub-3 %
  // linear change the placement damage outweighs the area gain.
  if (std::abs(ratio - 1.0) < 0.0001) return;
  const Rect new_fp{old_fp.xlo, old_fp.ylo,
                    old_fp.xlo + old_fp.width() * ratio,
                    old_fp.ylo + old_fp.height() * ratio};
  d.set_floorplan(new_fp);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!movable(nl, c)) continue;
    const Point p = d.pos(c);
    d.set_pos(c, new_fp.clamp({old_fp.xlo + (p.x - old_fp.xlo) * ratio,
                               old_fp.ylo + (p.y - old_fp.ylo) * ratio}));
  }
  place_macros(d);
  place_ports(d);
  util::log_info("floorplan rescaled by ", ratio, " to ", new_fp.width(),
                 " x ", new_fp.height(), " um");
}

double max_overlap_um2(const Design& d) {
  // netlist::for_each_overlap visits every overlapping same-tier pair, and
  // max() over the pair overlaps is order-independent, so the result is
  // bit-identical to an all-pairs scan (asserted by
  // PlaceScale.GridOverlapMatchesBruteForce).
  double worst = 0.0;
  netlist::for_each_overlap(d, [&](CellId, CellId, double ox, double oy) {
    worst = std::max(worst, ox * oy);
  });
  return worst;
}

double tier_macro_area(const Design& d, int tier) {
  double a = 0.0;
  for (CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_macro() && d.tier(c) == tier)
      a += d.cell_area(c);
  return a;
}

double mean_displacement_um(const Design& d,
                            const std::vector<util::Point>& snapshot) {
  const auto& nl = d.nl();
  M3D_CHECK(snapshot.size() >= static_cast<std::size_t>(nl.cell_count()));
  double sum = 0.0;
  int n = 0;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (nl.cell(c).is_port()) continue;
    sum += util::manhattan(d.pos(c), snapshot[static_cast<std::size_t>(c)]);
    ++n;
  }
  return n ? sum / n : 0.0;
}

}  // namespace m3d::place
