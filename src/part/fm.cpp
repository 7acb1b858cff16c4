#include "part/fm.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "exec/pool.hpp"
#include "part/fm_internal.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace m3d::part {

using netlist::kBottomTier;
using netlist::kInvalidId;
using netlist::kTopTier;
using netlist::PinId;

double cell_area_on(const Design& d, CellId c, int t) {
  const auto& cc = d.nl().cell(c);
  if (cc.is_macro()) return d.cell_area(c);
  if (cc.is_port()) return 0.0;
  const tech::TechLib& lib = d.lib(t);
  const tech::LibCell* lc = lib.find(cc.func, cc.drive);
  M3D_CHECK(lc != nullptr);
  return lc->area_um2(lib.row_height_um());
}

int cut_size(const Design& d) {
  int cut = 0;
  const auto& nl = d.nl();
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (net.is_clock || net.pins.size() < 2) continue;
    // Cut iff the net spans two or more distinct tiers.
    const int first = d.tier(nl.pin(net.pins[0]).cell);
    for (PinId p : net.pins) {
      if (d.tier(nl.pin(p).cell) != first) {
        ++cut;
        break;
      }
    }
  }
  return cut;
}

double cut_fraction(const Design& d) {
  int signal = 0;
  const auto& nl = d.nl();
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (!net.is_clock && net.pins.size() >= 2) ++signal;
  }
  return signal ? static_cast<double>(cut_size(d)) / signal : 0.0;
}

namespace {

using detail::GainBuckets;
using detail::IdBitset;

/// Shared FM engine; `region` assigns each cell to a balance domain
/// (a single domain for whole-design FM, a placement bin for the
/// bin-based variant).
class FmEngine {
 public:
  FmEngine(Design& d, const FmOptions& opt, const std::vector<char>* locked,
           std::vector<int> region, int num_regions)
      : d_(d),
        nl_(d.nl()),
        opt_(opt),
        region_(std::move(region)),
        nreg_(num_regions) {
    const std::size_t nc = static_cast<std::size_t>(nl_.cell_count());
    movable_.assign(nc, 0);
    for (CellId c = 0; c < nl_.cell_count(); ++c) {
      const auto& cc = nl_.cell(c);
      if (!cc.is_comb() && !cc.is_sequential()) continue;
      if (cc.fixed) continue;
      if (locked != nullptr && (*locked)[static_cast<std::size_t>(c)])
        continue;
      movable_[static_cast<std::size_t>(c)] = 1;
    }
    build_net_csr();
    build_area_cache();
  }

  int run();

 private:
  /// Borrowed view over one cell's row of the cell→net CSR.
  struct NetSpan {
    const NetId* b;
    const NetId* e;
    const NetId* begin() const { return b; }
    const NetId* end() const { return e; }
  };

  void build_net_csr();
  void build_area_cache();
  void initial_assignment();
  void rebuild_counts();
  int current_cut() const;
  int gain_of(CellId c) const;
  bool feasible(CellId c) const;
  /// The FM candidate scan: best feasible cell across both sides' bucket
  /// fronts, walking descending gain / ascending id, probing at most 16
  /// entries per side.
  CellId scan_candidate(GainBuckets (&bucket)[2]) const;
  void apply_move(CellId c);
  NetSpan nets_of(CellId c) const {
    const std::size_t i = static_cast<std::size_t>(c);
    return {csr_.data() + csr_off_[i], csr_.data() + csr_off_[i + 1]};
  }
  double area_on(CellId c, int t) const {
    return area_cache_[t][static_cast<std::size_t>(c)];
  }

  Design& d_;
  const netlist::Netlist& nl_;
  const FmOptions& opt_;
  std::vector<int> region_;
  int nreg_;
  std::vector<char> movable_;
  // Cell→net CSR over participating signal nets (ascending unique ids per
  // row — exactly what the old per-call sort+unique produced). Built once:
  // the netlist is frozen for the whole FM run.
  std::vector<int> csr_off_;
  std::vector<NetId> csr_;
  int max_deg_ = 0;  // longest CSR row; bounds |gain| of any cell
  // Per cell per tier: hypothetical area (lib lookup hoisted out of the
  // move loop; identical doubles, just cached).
  std::vector<double> area_cache_[2];
  // Per net: pin-count per tier (participating signal nets only).
  std::vector<int> cnt_[2];
  // Per region: hypothetical-area balance (top in top-lib, bottom in
  // bottom-lib units).
  std::vector<double> area_top_, area_bottom_;
};

void FmEngine::build_net_csr() {
  const std::size_t nc = static_cast<std::size_t>(nl_.cell_count());
  csr_off_.assign(nc + 1, 0);
  csr_.clear();
  csr_.reserve(static_cast<std::size_t>(nl_.pin_count()));
  std::vector<NetId> row;
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    row.clear();
    for (PinId p : nl_.cell(c).pins) {
      const NetId n = nl_.pin(p).net;
      if (n == kInvalidId || nl_.net_is_clock(n)) continue;
      if (nl_.net(n).pins.size() < 2) continue;
      row.push_back(n);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    // Every net contributes ±1 to a cell's gain, so the longest CSR row
    // bounds |gain| — that sizes the gain-bucket array in run().
    max_deg_ = std::max(max_deg_, static_cast<int>(row.size()));
    csr_.insert(csr_.end(), row.begin(), row.end());
    csr_off_[static_cast<std::size_t>(c) + 1] =
        static_cast<int>(csr_.size());
  }
}

void FmEngine::build_area_cache() {
  const std::size_t nc = static_cast<std::size_t>(nl_.cell_count());
  area_cache_[0].assign(nc, 0.0);
  area_cache_[1].assign(nc, 0.0);
  if (d_.num_tiers() != 2) return;  // run() rejects such designs anyway
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const auto& cc = nl_.cell(c);
    if (!cc.is_comb() && !cc.is_sequential() && !cc.is_macro()) continue;
    for (int t = 0; t < 2; ++t)
      area_cache_[t][static_cast<std::size_t>(c)] = cell_area_on(d_, c, t);
  }
}

void FmEngine::rebuild_counts() {
  const std::size_t nn = static_cast<std::size_t>(nl_.net_count());
  cnt_[0].assign(nn, 0);
  cnt_[1].assign(nn, 0);
  for (NetId n = 0; n < nl_.net_count(); ++n) {
    const auto& net = nl_.net(n);
    if (net.is_clock || net.pins.size() < 2) continue;
    for (PinId p : net.pins)
      ++cnt_[d_.tier(nl_.pin(p).cell)][static_cast<std::size_t>(n)];
  }
  area_top_.assign(static_cast<std::size_t>(nreg_), 0.0);
  area_bottom_.assign(static_cast<std::size_t>(nreg_), 0.0);
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const auto& cc = nl_.cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    const std::size_t r = static_cast<std::size_t>(region_[
        static_cast<std::size_t>(c)]);
    if (d_.tier(c) == kTopTier)
      area_top_[r] += area_on(c, kTopTier);
    else
      area_bottom_[r] += area_on(c, kBottomTier);
  }
}

int FmEngine::current_cut() const {
  int cut = 0;
  for (NetId n = 0; n < nl_.net_count(); ++n)
    if (cnt_[0][static_cast<std::size_t>(n)] > 0 &&
        cnt_[1][static_cast<std::size_t>(n)] > 0)
      ++cut;
  return cut;
}

int FmEngine::gain_of(CellId c) const {
  const int from = d_.tier(c);
  const int to = 1 - from;
  int g = 0;
  for (NetId n : nets_of(c)) {
    const std::size_t ni = static_cast<std::size_t>(n);
    if (cnt_[from][ni] == 1 && cnt_[to][ni] > 0) ++g;  // uncuts the net
    if (cnt_[to][ni] == 0) --g;                        // newly cuts it
  }
  return g;
}

bool FmEngine::feasible(CellId c) const {
  const int from = d_.tier(c);
  const std::size_t r =
      static_cast<std::size_t>(region_[static_cast<std::size_t>(c)]);
  double top = area_top_[r];
  double bottom = area_bottom_[r];
  if (from == kTopTier) {
    top -= area_on(c, kTopTier);
    bottom += area_on(c, kBottomTier);
  } else {
    bottom -= area_on(c, kBottomTier);
    top += area_on(c, kTopTier);
  }
  const double total = top + bottom;
  if (total <= 0.0) return true;
  return std::abs(top / total - opt_.target_top_share) <= opt_.balance_tol;
}

CellId FmEngine::scan_candidate(GainBuckets (&bucket)[2]) const {
  // Best feasible candidate from either side's bucket front: walk entries
  // in descending gain (ascending id within a gain), probe at most 16,
  // take the first feasible one — the identical traversal the old
  // ordered-set iterator performed. Two buckets so that balance
  // saturation on one side never starves the other.
  CellId c = kInvalidId;
  int c_gain = 0;
  for (int side : {0, 1}) {
    GainBuckets& gb = bucket[side];
    while (gb.cur_max > 0 &&
           gb.cnt[static_cast<std::size_t>(gb.cur_max)] == 0)
      --gb.cur_max;
    int probed = 0;
    for (int ix = gb.cur_max; ix >= 0 && probed < 16; --ix) {
      if (gb.cnt[static_cast<std::size_t>(ix)] == 0) continue;
      const IdBitset& ids = *gb.bs[static_cast<std::size_t>(ix)];
      bool found = false;
      for (int id = ids.first(); id >= 0 && probed < 16;
           id = ids.next_after(id)) {
        ++probed;
        if (!feasible(id)) continue;
        const int g = ix - gb.off;
        if (c == kInvalidId || g > c_gain) {
          c = id;
          c_gain = g;
        }
        found = true;
        break;  // first feasible is this side's best
      }
      if (found) break;
    }
  }
  return c;
}

void FmEngine::apply_move(CellId c) {
  const int from = d_.tier(c);
  const int to = 1 - from;
  const std::size_t r =
      static_cast<std::size_t>(region_[static_cast<std::size_t>(c)]);
  if (from == kTopTier) {
    area_top_[r] -= area_on(c, kTopTier);
    area_bottom_[r] += area_on(c, kBottomTier);
  } else {
    area_bottom_[r] -= area_on(c, kBottomTier);
    area_top_[r] += area_on(c, kTopTier);
  }
  for (NetId n : nets_of(c)) {
    --cnt_[from][static_cast<std::size_t>(n)];
    ++cnt_[to][static_cast<std::size_t>(n)];
  }
  d_.set_tier(c, to);
}

void FmEngine::initial_assignment() {
  // Per region, grow a connected BFS blob up to the target top share and
  // assign it to the top tier. A connected seed partition is a far better
  // FM start than a random split: the cut starts near the blob's surface
  // instead of scattered through the whole graph.
  util::Rng rng(opt_.seed);
  std::vector<std::vector<CellId>> by_region(
      static_cast<std::size_t>(nreg_));
  for (CellId c = 0; c < nl_.cell_count(); ++c)
    if (movable_[static_cast<std::size_t>(c)])
      by_region[static_cast<std::size_t>(
          region_[static_cast<std::size_t>(c)])].push_back(c);

  for (auto& cells : by_region) {
    if (cells.empty()) continue;
    rng.shuffle(cells);
    double top = 0.0, bottom = 0.0;
    for (CellId c : cells)
      if (d_.tier(c) == kTopTier)
        top += area_on(c, kTopTier);
      else
        bottom += area_on(c, kBottomTier);

    std::vector<char> in_region(
        static_cast<std::size_t>(nl_.cell_count()), 0);
    for (CellId c : cells) in_region[static_cast<std::size_t>(c)] = 1;
    std::vector<char> visited(
        static_cast<std::size_t>(nl_.cell_count()), 0);

    std::size_t seed_idx = 0;
    std::vector<CellId> frontier;
    auto total_share = [&] {
      const double total = top + bottom;
      return total > 0.0 ? top / total : opt_.target_top_share;
    };
    while (total_share() < opt_.target_top_share) {
      CellId c = kInvalidId;
      if (!frontier.empty()) {
        c = frontier.back();
        frontier.pop_back();
      } else {
        // Natural blob boundary reached. If the share is already inside
        // the balance envelope, stop here instead of seeding an island —
        // a connected, slightly-light partition beats a scattered exact
        // one as an FM start.
        if (total_share() >=
            opt_.target_top_share - 0.9 * opt_.balance_tol)
          break;
        // Otherwise start a new blob from the next unvisited seed.
        while (seed_idx < cells.size() &&
               visited[static_cast<std::size_t>(cells[seed_idx])])
          ++seed_idx;
        if (seed_idx >= cells.size()) break;
        c = cells[seed_idx];
      }
      if (visited[static_cast<std::size_t>(c)]) continue;
      visited[static_cast<std::size_t>(c)] = 1;
      if (d_.tier(c) != kTopTier) {
        bottom -= area_on(c, kBottomTier);
        top += area_on(c, kTopTier);
        d_.set_tier(c, kTopTier);
      }
      // Expand through small nets only — huge nets connect everything and
      // destroy locality.
      for (PinId p : nl_.cell(c).pins) {
        const NetId n = nl_.pin(p).net;
        if (n == kInvalidId || nl_.net(n).is_clock) continue;
        if (nl_.net(n).pins.size() > 12) continue;
        for (PinId q : nl_.net(n).pins) {
          const CellId nb = nl_.pin(q).cell;
          if (nb == c || visited[static_cast<std::size_t>(nb)]) continue;
          if (!in_region[static_cast<std::size_t>(nb)]) continue;
          if (!movable_[static_cast<std::size_t>(nb)]) continue;
          frontier.push_back(nb);
        }
      }
    }
  }
}

int FmEngine::run() {
  M3D_CHECK(d_.num_tiers() == 2);
  initial_assignment();
  rebuild_counts();
  int cut = current_cut();

  exec::Pool& pool =
      opt_.pool != nullptr ? *opt_.pool : exec::Pool::global();
  const int nc = nl_.cell_count();
  const bool tracing = util::trace_enabled();
  constexpr int kParallelMin = 2048;

  // Per-side gain-ordered candidate sets, hoisted out of the pass loop:
  // reset() empties them and frees their bitsets between passes, so peak
  // footprint tracks the gains a pass actually visits instead of the
  // worst-case gain range.
  GainBuckets bucket[2] = {GainBuckets(nc, max_deg_),
                           GainBuckets(nc, max_deg_)};
  std::vector<int> gain(static_cast<std::size_t>(nc), 0);
  std::vector<char> locked_in_pass(static_cast<std::size_t>(nc), 0);

  for (int pass = 0; pass < opt_.max_passes; ++pass) {
    util::TraceSpan pass_span("fm_pass",
                              tracing ? std::to_string(pass) : std::string());
    if (opt_.stats != nullptr) ++opt_.stats->passes;
    bucket[0].reset();
    bucket[1].reset();
    std::fill(gain.begin(), gain.end(), 0);
    std::fill(locked_in_pass.begin(), locked_in_pass.end(), 0);
    // Initial gains are independent integer computations over frozen net
    // counts — each cell writes only its own slot, so the parallel pass is
    // exactly the serial one. Bucket insertion stays serial and id-ordered.
    if (nc >= kParallelMin && pool.size() > 1) {
      pool.parallel_for(0, nc, [&](int ci) {
        if (movable_[static_cast<std::size_t>(ci)])
          gain[static_cast<std::size_t>(ci)] = gain_of(ci);
      }, /*grain=*/256);
    } else {
      for (CellId c = 0; c < nc; ++c)
        if (movable_[static_cast<std::size_t>(c)])
          gain[static_cast<std::size_t>(c)] = gain_of(c);
    }
    for (CellId c = 0; c < nc; ++c) {
      if (!movable_[static_cast<std::size_t>(c)]) continue;
      bucket[d_.tier(c)].insert(gain[static_cast<std::size_t>(c)], c);
    }

    const std::vector<int> tier_snapshot = [&] {
      std::vector<int> t(static_cast<std::size_t>(nl_.cell_count()));
      for (CellId c = 0; c < nl_.cell_count(); ++c)
        t[static_cast<std::size_t>(c)] = d_.tier(c);
      return t;
    }();

    std::vector<CellId> moves;
    std::vector<CellId> touched;
    int running_cut = cut;
    int best_cut = cut;
    std::size_t best_prefix = 0;

    // Select the best feasible move, commit it, update the neighbours'
    // gains; repeat until no candidate is feasible.
    while (!bucket[0].empty() || !bucket[1].empty()) {
      const CellId c = scan_candidate(bucket);
      if (c == kInvalidId) break;
      bucket[d_.tier(c)].erase(gain[static_cast<std::size_t>(c)], c);
      locked_in_pass[static_cast<std::size_t>(c)] = 1;
      const int c_from = d_.tier(c);
      // Neighbours whose gains may change. Only a *critical* net can
      // alter a pin's gain terms: with f pins on the mover's side and t
      // on the other (pre-move), same-side gains change iff f==2 ||
      // t==0 and other-side gains iff f==1 || t==1 — so a settled net
      // (f >= 3 && t >= 2) keeps every neighbour's contribution
      // unchanged and its pins need no revisit. This prunes the walk,
      // not the math: gains of skipped cells are provably identical.
      touched.clear();
      for (NetId n : nets_of(c)) {
        const std::size_t ni = static_cast<std::size_t>(n);
        if (cnt_[c_from][ni] >= 3 && cnt_[1 - c_from][ni] >= 2) continue;
        for (PinId p : nl_.net(n).pins) {
          const CellId nb = nl_.pin(p).cell;
          if (nb != c && movable_[static_cast<std::size_t>(nb)] &&
              !locked_in_pass[static_cast<std::size_t>(nb)])
            touched.push_back(nb);
        }
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      running_cut -= gain[static_cast<std::size_t>(c)];
      apply_move(c);
      moves.push_back(c);
      for (CellId nb : touched) {
        // Recompute first; an unchanged gain means the bucket entry is
        // already right, and skipping the erase/insert pair avoids two
        // bitset updates for the common no-op case.
        const int ng = gain_of(nb);
        const int og = gain[static_cast<std::size_t>(nb)];
        if (ng == og) continue;
        bucket[d_.tier(nb)].erase(og, nb);
        gain[static_cast<std::size_t>(nb)] = ng;
        bucket[d_.tier(nb)].insert(ng, nb);
      }
      if (running_cut < best_cut) {
        best_cut = running_cut;
        best_prefix = moves.size();
      }
    }
    if (opt_.stats != nullptr)
      opt_.stats->moves += static_cast<long long>(moves.size());

    // Roll back to the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i)
      d_.set_tier(moves[i - 1],
                  tier_snapshot[static_cast<std::size_t>(moves[i - 1])]);
    rebuild_counts();
    const int new_cut = current_cut();
    util::log_debug("FM pass ", pass, ": cut ", cut, " -> ", new_cut);
    if (new_cut >= cut) break;
    cut = new_cut;
  }
  return cut;
}

std::vector<int> bin_regions(const Design& d, int bins) {
  const auto fp = d.floorplan();
  std::vector<int> region(static_cast<std::size_t>(d.nl().cell_count()), 0);
  for (CellId c = 0; c < d.nl().cell_count(); ++c) {
    const auto p = d.pos(c);
    int bx = static_cast<int>((p.x - fp.xlo) / std::max(fp.width(), 1e-9) *
                              bins);
    int by = static_cast<int>((p.y - fp.ylo) / std::max(fp.height(), 1e-9) *
                              bins);
    bx = std::clamp(bx, 0, bins - 1);
    by = std::clamp(by, 0, bins - 1);
    region[static_cast<std::size_t>(c)] = by * bins + bx;
  }
  return region;
}

}  // namespace

int fm_mincut(Design& d, const FmOptions& opt,
              const std::vector<char>* locked) {
  std::vector<int> region(static_cast<std::size_t>(d.nl().cell_count()), 0);
  if (detail::use_kway(d, opt))
    return detail::kway_fm(d, opt, locked, std::move(region), 1);
  FmEngine eng(d, opt, locked, std::move(region), 1);
  return eng.run();
}

int bin_fm_partition(Design& d, const FmOptions& opt,
                     const std::vector<char>* locked) {
  if (detail::use_kway(d, opt))
    return detail::kway_fm(d, opt, locked, bin_regions(d, opt.bins),
                           opt.bins * opt.bins);
  FmEngine eng(d, opt, locked, bin_regions(d, opt.bins),
               opt.bins * opt.bins);
  return eng.run();
}

}  // namespace m3d::part
