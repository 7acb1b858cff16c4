/// \file fm.cpp
/// \brief FM tier partitioning on a stack of any height, with an optional
///        die-cost term folded into the move objective:
///
///   J = cut + µ · die_cost(footprint(per-tier areas), tiers)
///
/// Moves are (cell, target-tier) pairs. Gain buckets are kept per ordered
/// (from, to) tier pair and store *integer cut gains* only — those stay
/// valid across moves the way classic FM gains do. The µ-weighted cost
/// term re-prices every candidate after every move (each move shifts the
/// per-tier areas, hence the die footprint), so it is evaluated at
/// *selection* time from the current areas instead of being baked into
/// the buckets: the scan probes a bounded front of each bucket and scores
/// the probed candidates on the combined objective on the fly.
///
/// Each pass is one serial select → commit loop; only the per-pass
/// initial gain computation and the engine's per-cell and per-net sweeps
/// (net CSR, area cache, per-net tier counts) run on the pool, each slot
/// with one writer, so the committed move sequence is byte-identical at
/// any pool size.

#include "part/fm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "exec/pool.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace m3d::part {

using netlist::CellKind;
using netlist::kInvalidId;
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

/// FM passes per run (each pass visits every movable cell); a pass that
/// improves nothing ends the run early.
constexpr int kMaxPasses = 8;

/// Three-level find-first bitset over cell ids: O(1) set/clear and a
/// few word scans for find-first / find-next-after. One instance backs
/// one FM gain bucket, where iteration must be in ascending cell id —
/// the order the old std::set<(-gain, cell)> key produced within a
/// single gain value. Covers up to 64^3 ids before the top-level scan
/// degrades to linear over summary words (a handful of words even at
/// sixteen million cells).
class IdBitset {
 public:
  explicit IdBitset(int n)
      : l0_((static_cast<std::size_t>(n) >> 6) + 2, 0),
        l1_((l0_.size() >> 6) + 2, 0),
        l2_((l1_.size() >> 6) + 2, 0) {}

  void set(int i) {
    const std::size_t u = static_cast<std::size_t>(i);
    l0_[u >> 6] |= 1ull << (i & 63);
    l1_[u >> 12] |= 1ull << ((i >> 6) & 63);
    l2_[u >> 18] |= 1ull << ((i >> 12) & 63);
  }

  void clear(int i) {
    const std::size_t u = static_cast<std::size_t>(i);
    if ((l0_[u >> 6] &= ~(1ull << (i & 63))) != 0) return;
    if ((l1_[u >> 12] &= ~(1ull << ((i >> 6) & 63))) != 0) return;
    l2_[u >> 18] &= ~(1ull << ((i >> 12) & 63));
  }

  /// Smallest set id, or -1.
  int first() const { return from(0); }

  /// Smallest set id strictly greater than i, or -1.
  int next_after(int i) const { return from(i + 1); }

 private:
  /// Smallest set id >= i, or -1.
  int from(int i) const {
    std::size_t w0 = static_cast<std::size_t>(i) >> 6;
    if (w0 >= l0_.size()) return -1;
    const std::uint64_t m0 = l0_[w0] & (~0ull << (i & 63));
    if (m0 != 0) return word_hit(w0, m0);
    // Climb: next non-empty l0 word after w0, found via l1 then l2.
    std::size_t w1 = w0 >> 6;
    const int b1 = static_cast<int>(w0 & 63);
    std::uint64_t m1 = b1 < 63 ? l1_[w1] & (~0ull << (b1 + 1)) : 0;
    if (m1 == 0) {
      std::size_t w2 = w1 >> 6;
      const int b2 = static_cast<int>(w1 & 63);
      std::uint64_t m2 = b2 < 63 ? l2_[w2] & (~0ull << (b2 + 1)) : 0;
      while (m2 == 0) {
        if (++w2 >= l2_.size()) return -1;
        m2 = l2_[w2];
      }
      w1 = (w2 << 6) + static_cast<std::size_t>(std::countr_zero(m2));
      m1 = l1_[w1];
    }
    w0 = (w1 << 6) + static_cast<std::size_t>(std::countr_zero(m1));
    return word_hit(w0, l0_[w0]);
  }

  static int word_hit(std::size_t w, std::uint64_t m) {
    return static_cast<int>((w << 6) + static_cast<std::size_t>(
                                           std::countr_zero(m)));
  }

  std::vector<std::uint64_t> l0_, l1_, l2_;
};

/// One (from, to) tier pair's gain-ordered FM candidate set: per-gain
/// IdBitsets plus entry counts. Traversal — descending gain, ascending id
/// within a gain — reproduces the old std::set<(-gain, cell)> iteration
/// order exactly, so candidate selection is unchanged; only the cost
/// moved, from a pointer-chasing red-black tree (log-n rebalances and a
/// node allocation per update, ruinous at a million entries) to O(1) word
/// writes.
struct GainBuckets {
  int ncells;         // id-space size for lazily built bitsets
  int off;            // bucket index = gain + off
  int cur_max = 0;    // highest index that may be non-empty
  long long total = 0;
  std::vector<int> cnt;
  // Bitsets are built lazily on first insert at a gain value: a pass only
  // ever populates a handful of distinct gains (|gain| <= the cell's net
  // degree, and most cells cluster near zero), while 2*dmax+1 eagerly
  // built bitsets cost tens of MB per pass at a million cells. reset()
  // frees them again between passes so long-lived in-process flows (the
  // m3dd daemon) don't carry a pass's peak footprint forward.
  std::vector<std::unique_ptr<IdBitset>> bs;

  GainBuckets(int ncells_, int dmax)
      : ncells(ncells_),
        off(dmax),
        cnt(static_cast<std::size_t>(2 * dmax + 1), 0),
        bs(static_cast<std::size_t>(2 * dmax + 1)) {}

  /// Empty the buckets and release every bitset (shrink-to-fit).
  void reset() {
    cur_max = 0;
    total = 0;
    std::fill(cnt.begin(), cnt.end(), 0);
    for (auto& p : bs) p.reset();
  }

  void insert(int g, netlist::CellId c) {
    const int ix = g + off;
    auto& b = bs[static_cast<std::size_t>(ix)];
    if (!b) b = std::make_unique<IdBitset>(ncells);
    b->set(c);
    ++cnt[static_cast<std::size_t>(ix)];
    ++total;
    cur_max = std::max(cur_max, ix);
  }
  void erase(int g, netlist::CellId c) {
    const int ix = g + off;
    bs[static_cast<std::size_t>(ix)]->clear(c);
    --cnt[static_cast<std::size_t>(ix)];
    --total;
  }
  bool empty() const { return total == 0; }
};

/// Cells per parallel_for chunk of the initial gain computation.
constexpr int kGainChunk = 2048;

/// Cells or nets per chunk of the engine's net-CSR, area and pin-count
/// sweeps. Each chunk writes only its own cells' or nets' slots; a design
/// under 16k cells and nets (the paper tables' designs) sweeps in one
/// inline chunk.
constexpr int kCountChunk = 1 << 14;

/// FM over `num_regions` balance domains (one for whole-design FM, a
/// placement bin each for the bin-based variant) on a stack of K >= 2
/// tiers.
class KwayEngine {
 public:
  KwayEngine(Design& d, const FmOptions& opt, const std::vector<char>* locked,
             std::vector<int> region, int num_regions)
      : d_(d),
        nl_(d.nl()),
        opt_(opt),
        pool_(exec::pool_or_global(opt.pool)),
        K_(d.num_tiers()),
        region_(std::move(region)),
        nreg_(num_regions) {
    M3D_CHECK_MSG(K_ >= 2, "FM needs a stacked design");
    M3D_CHECK(nl_.cell_count() <
              std::numeric_limits<int>::max() / std::max(K_, 1));
    if (!opt_.tier_area_cap_um2.empty())
      M3D_CHECK_MSG(static_cast<int>(opt_.tier_area_cap_um2.size()) == K_,
                    "tier_area_cap_um2 must have one entry per tier");
    if (!opt_.tier_process.empty())
      M3D_CHECK_MSG(static_cast<int>(opt_.tier_process.size()) == K_,
                    "tier_process must have one entry per tier");
    // Normalized per-tier target shares; empty means uniform.
    share_.assign(static_cast<std::size_t>(K_), 1.0 / K_);
    if (!opt_.tier_share.empty()) {
      M3D_CHECK_MSG(static_cast<int>(opt_.tier_share.size()) == K_,
                    "tier_share must have one entry per tier");
      double sum = 0.0;
      for (double s : opt_.tier_share) {
        M3D_CHECK(s >= 0.0);
        sum += s;
      }
      M3D_CHECK_MSG(sum > 0.0, "tier_share must not be all-zero");
      for (int t = 0; t < K_; ++t)
        share_[static_cast<std::size_t>(t)] =
            opt_.tier_share[static_cast<std::size_t>(t)] / sum;
    }

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
  struct NetSpan {
    const NetId* b;
    const NetId* e;
    const NetId* begin() const { return b; }
    const NetId* end() const { return e; }
  };

  /// A scored candidate move; invalid when c == kInvalidId.
  struct Cand {
    CellId c = kInvalidId;
    int to = -1;
    double score = 0.0;
  };

  std::size_t idx(CellId c, int t) const {
    return static_cast<std::size_t>(c) * static_cast<std::size_t>(K_) +
           static_cast<std::size_t>(t);
  }
  std::size_t nidx(NetId n, int t) const {
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(K_) +
           static_cast<std::size_t>(t);
  }
  std::size_t ridx(int r, int t) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(K_) +
           static_cast<std::size_t>(t);
  }
  NetSpan nets_of(CellId c) const {
    const std::size_t i = static_cast<std::size_t>(c);
    return {csr_.data() + csr_off_[i], csr_.data() + csr_off_[i + 1]};
  }
  double area_on(CellId c, int t) const { return area_cache_[idx(c, t)]; }

  void build_net_csr();
  void build_area_cache();
  void initial_assignment();
  void rebuild_counts();
  int current_cut() const;

  /// Cut gain of moving c to tier `to` (to != tier(c)).
  int gain_of(CellId c, int to) const;

  /// Balance/cap feasibility of moving c to `to` against the current
  /// per-region and global areas: the destination cap must hold, and the
  /// region must stay balanced — on two tiers the top tier's share lands
  /// within balance_tol of its target; on more, both affected tiers land
  /// within balance_tol of their targets or strictly improve an
  /// already-out-of-envelope share.
  bool feasible(CellId c, int to) const;

  /// Die cost of the stack whose largest tier carries `amax_um2` of
  /// standard-cell area, at the configured utilization.
  double die_cost_from(double amax_um2) const;
  double die_cost_now() const;
  /// c1 − c0 with inf−inf collapsing to 0 (both states unmanufacturable:
  /// the move neither helps nor hurts the cost term).
  static double sub_cost(double c1, double c0) {
    if (std::isinf(c1) && std::isinf(c0)) return 0.0;
    return c1 - c0;
  }
  /// Cost-term delta of moving c from f to t at the current global areas.
  double delta_cost(CellId c, int f, int t) const;

  /// Best feasible (cell, target) across every (from, to) bucket front.
  /// Walks each bucket in descending cut gain / ascending id, probing at
  /// most 16 entries; with µ = 0 the first feasible entry is the bucket's
  /// best and the walk stops there (classic FM selection), with µ > 0 all
  /// probed entries are scored on the combined objective.
  /// Ties keep the earlier candidate in (from, to, probe) order.
  Cand scan_candidate(std::vector<GainBuckets>& bucket) const;

  void apply_move(CellId c, int to);

  Design& d_;
  const netlist::Netlist& nl_;
  const FmOptions& opt_;
  exec::Pool& pool_;
  const int K_;
  std::vector<int> region_;
  int nreg_;
  std::vector<double> share_;
  cost::CostModel cm_;  ///< Table-IV assumptions of the cost term
  std::vector<char> movable_;
  std::vector<int> csr_off_;
  std::vector<NetId> csr_;
  int max_deg_ = 0;
  std::vector<double> area_cache_;  // nc × K hypothetical areas
  std::vector<int> cnt_;            // nn × K per-net per-tier pin counts
  std::vector<int> occ_;            // per net: tiers with ≥1 pin
  std::vector<double> area_;        // nreg × K per-region per-tier area
  std::vector<double> global_;      // K whole-design per-tier area
};

void KwayEngine::build_net_csr() {
  // Per cell: the sorted, distinct signal nets of two or more pins on its
  // pins. One sweep counts each row, a second fills it from its offset.
  const int nc = nl_.cell_count();
  const auto row_of = [&](CellId c, std::vector<NetId>& row) {
    row.clear();
    for (PinId p : nl_.cell(c).pins) {
      const NetId n = nl_.pin(p).net;
      if (n == kInvalidId || nl_.net_is_clock(n)) continue;
      if (nl_.net(n).pins.size() < 2) continue;
      row.push_back(n);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  };
  const auto n_chunks = static_cast<std::size_t>(
      (nc + kCountChunk - 1) / kCountChunk);
  std::vector<int> chunk_start(n_chunks, 0);  // row total, then first slot
  std::vector<int> chunk_max(n_chunks, 0);
  csr_off_.resize(static_cast<std::size_t>(nc) + 1);
  csr_off_[0] = 0;
  exec::for_chunks(pool_, nc, kCountChunk, [&](int ch, int lo, int hi) {
    std::vector<NetId> row;
    int total = 0, max_deg = 0;
    for (CellId c = lo; c < hi; ++c) {
      row_of(c, row);
      const int deg = static_cast<int>(row.size());
      csr_off_[static_cast<std::size_t>(c) + 1] = deg;
      total += deg;
      max_deg = std::max(max_deg, deg);
    }
    chunk_start[static_cast<std::size_t>(ch)] = total;
    chunk_max[static_cast<std::size_t>(ch)] = max_deg;
  });
  int run = 0;
  for (std::size_t ch = 0; ch < n_chunks; ++ch) {
    const int total = chunk_start[ch];
    chunk_start[ch] = run;
    run += total;
    max_deg_ = std::max(max_deg_, chunk_max[ch]);
  }
  csr_.resize(static_cast<std::size_t>(run));
  exec::for_chunks(pool_, nc, kCountChunk, [&](int ch, int lo, int hi) {
    std::vector<NetId> row;
    int at = chunk_start[static_cast<std::size_t>(ch)];
    for (CellId c = lo; c < hi; ++c) {
      row_of(c, row);
      std::copy(row.begin(), row.end(),
                csr_.begin() + static_cast<std::ptrdiff_t>(at));
      at += static_cast<int>(row.size());
      csr_off_[static_cast<std::size_t>(c) + 1] = at;
    }
  });
}

void KwayEngine::build_area_cache() {
  const int nc = nl_.cell_count();
  area_cache_.resize(static_cast<std::size_t>(nc) *
                     static_cast<std::size_t>(K_));
  exec::for_chunks(pool_, nc, kCountChunk, [&](int, int lo, int hi) {
    for (CellId c = lo; c < hi; ++c) {
      const auto& cc = nl_.cell(c);
      const bool sized = cc.is_comb() || cc.is_sequential() || cc.is_macro();
      for (int t = 0; t < K_; ++t)
        area_cache_[idx(c, t)] = sized ? cell_area_on(d_, c, t) : 0.0;
    }
  });
}

void KwayEngine::rebuild_counts() {
  // Per net: pins per tier and occupied tiers, one writer per net.
  const int nn = nl_.net_count();
  cnt_.resize(static_cast<std::size_t>(nn) * static_cast<std::size_t>(K_));
  occ_.resize(static_cast<std::size_t>(nn));
  exec::for_chunks(pool_, nn, kCountChunk, [&](int, int lo, int hi) {
    for (NetId n = lo; n < hi; ++n) {
      int* cnt = cnt_.data() + nidx(n, 0);
      std::fill_n(cnt, K_, 0);
      const auto& net = nl_.net(n);
      int o = 0;
      if (!net.is_clock && net.pins.size() >= 2) {
        for (PinId p : net.pins) ++cnt[d_.tier(nl_.pin(p).cell)];
        for (int t = 0; t < K_; ++t) o += cnt[t] > 0;
      }
      occ_[static_cast<std::size_t>(n)] = o;
    }
  });
  // The area sums stay in cell order.
  area_.assign(static_cast<std::size_t>(nreg_) * static_cast<std::size_t>(K_),
               0.0);
  global_.assign(static_cast<std::size_t>(K_), 0.0);
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const CellKind k = nl_.cell_kind(c);
    if (k != CellKind::Comb && k != CellKind::Seq) continue;
    const int t = d_.tier(c);
    const double a = area_on(c, t);
    area_[ridx(region_[static_cast<std::size_t>(c)], t)] += a;
    global_[static_cast<std::size_t>(t)] += a;
  }
}

int KwayEngine::current_cut() const {
  int cut = 0;
  for (int o : occ_) cut += o >= 2;
  return cut;
}

int KwayEngine::gain_of(CellId c, int to) const {
  const int from = d_.tier(c);
  int g = 0;
  for (NetId n : nets_of(c)) {
    const int o = occ_[static_cast<std::size_t>(n)];
    const int oa = o - (cnt_[nidx(n, from)] == 1) + (cnt_[nidx(n, to)] == 0);
    g += (o >= 2) - (oa >= 2);
  }
  return g;
}

bool KwayEngine::feasible(CellId c, int to) const {
  const int from = d_.tier(c);
  if (!opt_.tier_area_cap_um2.empty()) {
    const double cap = opt_.tier_area_cap_um2[static_cast<std::size_t>(to)];
    if (cap > 0.0 &&
        global_[static_cast<std::size_t>(to)] + area_on(c, to) > cap)
      return false;
  }
  const std::size_t r0 =
      static_cast<std::size_t>(region_[static_cast<std::size_t>(c)]) *
      static_cast<std::size_t>(K_);
  const double af = area_on(c, from);
  const double at = area_on(c, to);
  const double from_after = area_[r0 + static_cast<std::size_t>(from)] - af;
  const double to_after = area_[r0 + static_cast<std::size_t>(to)] + at;
  if (K_ == 2) {
    // Two tiers: only the top tier's share is tested, against a region
    // total summed from the two after-move areas, and there is no escape.
    // This is the arithmetic every golden was cut with. Measured against
    // it: the escape moves all four Hetero-3D rows of tables 6/7 (AES PPC
    // 1345.8 -> 1015.1); testing both shares moves aes 3D-9T in the
    // benchmark's paper_sweep (seed 503, qor.cut 9850 -> 9854), and with
    // incrementally updated totals as well aes 3D-9T, aes 3D-12T and ldpc
    // 3D-12T move (9850 -> 9865). Fm.PinnedPartitions catches each rule.
    const double total2 = from_after + to_after;
    if (total2 <= 0.0) return true;
    const double top = to == 1 ? to_after : from_after;
    return std::abs(top / total2 - share_[1]) <= opt_.balance_tol;
  }
  double total = 0.0;
  for (int u = 0; u < K_; ++u) total += area_[r0 + static_cast<std::size_t>(u)];
  const double total2 = total - af + at;
  if (total2 <= 0.0) return true;
  const auto ok = [&](int u, double a_after) {
    const double dev_after =
        std::abs(a_after / total2 - share_[static_cast<std::size_t>(u)]);
    if (dev_after <= opt_.balance_tol) return true;
    // Outside the envelope: allow only strict improvement, so an
    // out-of-balance start can converge without ever worsening. Three or
    // more tiers need this escape: without it the 12T+12T+12T explorer
    // points (ids 32-55) lose PPC (20583 -> 19021).
    const double dev_before =
        total > 0.0
            ? std::abs(area_[r0 + static_cast<std::size_t>(u)] / total -
                       share_[static_cast<std::size_t>(u)])
            : 0.0;
    return dev_after < dev_before;
  };
  return ok(from, from_after) && ok(to, to_after);
}

double KwayEngine::die_cost_from(double amax_um2) const {
  const double foot_mm2 = amax_um2 / opt_.utilization * 1e-6;
  if (foot_mm2 <= 0.0) return 0.0;
  return opt_.tier_process.empty()
             ? cm_.die_cost(foot_mm2, K_)
             : cm_.die_cost(foot_mm2, opt_.tier_process);
}

double KwayEngine::die_cost_now() const {
  double amax = 0.0;
  for (double a : global_) amax = std::max(amax, a);
  return die_cost_from(amax);
}

double KwayEngine::delta_cost(CellId c, int f, int t) const {
  const double af = area_on(c, f);
  const double at = area_on(c, t);
  double amax0 = 0.0, amax1 = 0.0;
  for (int u = 0; u < K_; ++u) {
    const double a0 = global_[static_cast<std::size_t>(u)];
    double a1 = a0;
    if (u == f) a1 -= af;
    if (u == t) a1 += at;
    amax0 = std::max(amax0, a0);
    amax1 = std::max(amax1, a1);
  }
  return sub_cost(die_cost_from(amax1), die_cost_from(amax0));
}

KwayEngine::Cand KwayEngine::scan_candidate(
    std::vector<GainBuckets>& bucket) const {
  Cand best;
  bool have = false;
  const bool pure_cut = opt_.cost_weight <= 0.0;
  for (int f = 0; f < K_; ++f) {
    for (int t = 0; t < K_; ++t) {
      if (t == f) continue;
      GainBuckets& gb =
          bucket[static_cast<std::size_t>(f) * static_cast<std::size_t>(K_) +
                 static_cast<std::size_t>(t)];
      if (gb.empty()) continue;
      while (gb.cur_max > 0 &&
             gb.cnt[static_cast<std::size_t>(gb.cur_max)] == 0)
        --gb.cur_max;
      int probed = 0;
      bool found = false;
      for (int ix = gb.cur_max; ix >= 0 && probed < 16 && !found; --ix) {
        if (gb.cnt[static_cast<std::size_t>(ix)] == 0) continue;
        const IdBitset& ids = *gb.bs[static_cast<std::size_t>(ix)];
        for (int id = ids.first(); id >= 0 && probed < 16;
             id = ids.next_after(id)) {
          ++probed;
          if (!feasible(id, t)) continue;
          const int g = ix - gb.off;
          const double score =
              pure_cut ? static_cast<double>(g)
                       : g - opt_.cost_weight * delta_cost(id, f, t);
          if (!have || score > best.score) {
            best.c = id;
            best.to = t;
            best.score = score;
            have = true;
          }
          if (pure_cut) {
            // First feasible is this bucket's best by cut gain.
            found = true;
            break;
          }
        }
      }
    }
  }
  return best;
}

void KwayEngine::apply_move(CellId c, int to) {
  const int from = d_.tier(c);
  const double af = area_on(c, from);
  const double at = area_on(c, to);
  const std::size_t r =
      static_cast<std::size_t>(region_[static_cast<std::size_t>(c)]);
  area_[ridx(static_cast<int>(r), from)] -= af;
  area_[ridx(static_cast<int>(r), to)] += at;
  global_[static_cast<std::size_t>(from)] -= af;
  global_[static_cast<std::size_t>(to)] += at;
  for (NetId n : nets_of(c)) {
    int& cf = cnt_[nidx(n, from)];
    int& ct = cnt_[nidx(n, to)];
    occ_[static_cast<std::size_t>(n)] += (ct == 0) - (cf == 1);
    --cf;
    ++ct;
  }
  d_.set_tier(c, to);
}

void KwayEngine::initial_assignment() {
  // Per region, grow one connected BFS blob per stacked tier (top tier
  // first) out of the bottom-tier cell pool, up to that tier's target
  // share. Connected seed partitions start the cut near blob surfaces
  // instead of scattered through the whole graph.
  util::Rng rng(opt_.seed);
  std::vector<std::vector<CellId>> by_region(
      static_cast<std::size_t>(nreg_));
  for (CellId c = 0; c < nl_.cell_count(); ++c)
    if (movable_[static_cast<std::size_t>(c)])
      by_region[static_cast<std::size_t>(
          region_[static_cast<std::size_t>(c)])].push_back(c);

  // Whole-design per-tier areas (all standard cells) for cap checks.
  std::vector<double> glob(static_cast<std::size_t>(K_), 0.0);
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const auto& cc = nl_.cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    glob[static_cast<std::size_t>(d_.tier(c))] += area_on(c, d_.tier(c));
  }

  std::vector<char> in_region(static_cast<std::size_t>(nl_.cell_count()), 0);
  std::vector<char> visited(static_cast<std::size_t>(nl_.cell_count()), 0);
  for (auto& cells : by_region) {
    if (cells.empty()) continue;
    rng.shuffle(cells);
    std::vector<double> ar(static_cast<std::size_t>(K_), 0.0);
    for (CellId c : cells)
      ar[static_cast<std::size_t>(d_.tier(c))] += area_on(c, d_.tier(c));
    for (CellId c : cells) in_region[static_cast<std::size_t>(c)] = 1;

    for (int t = K_ - 1; t >= 1; --t) {
      const double target = share_[static_cast<std::size_t>(t)];
      const double cap =
          opt_.tier_area_cap_um2.empty()
              ? 0.0
              : opt_.tier_area_cap_um2[static_cast<std::size_t>(t)];
      std::size_t seed_idx = 0;
      std::vector<CellId> frontier;
      // The region total is re-summed from the per-tier areas in tier
      // order, the two-tier arithmetic (see feasible()): an incrementally
      // updated total moves the pinned 3D-9T locked partition. Three-tier
      // results are the same either way on every measured case.
      const auto tier_share_now = [&] {
        double total = 0.0;
        for (double a : ar) total += a;
        return total > 0.0 ? ar[static_cast<std::size_t>(t)] / total : target;
      };
      while (tier_share_now() < target) {
        CellId c = kInvalidId;
        if (!frontier.empty()) {
          c = frontier.back();
          frontier.pop_back();
        } else {
          // Natural blob boundary: good enough inside the envelope.
          if (tier_share_now() >= target - 0.9 * opt_.balance_tol) break;
          while (seed_idx < cells.size() &&
                 visited[static_cast<std::size_t>(cells[seed_idx])])
            ++seed_idx;
          if (seed_idx >= cells.size()) break;
          c = cells[seed_idx];
        }
        if (visited[static_cast<std::size_t>(c)]) continue;
        if (cap > 0.0 &&
            glob[static_cast<std::size_t>(t)] + area_on(c, t) > cap)
          break;  // destination cap reached; FM cannot add more either
        visited[static_cast<std::size_t>(c)] = 1;
        if (d_.tier(c) != t) {
          const int f = d_.tier(c);
          const double af = area_on(c, f);
          const double at = area_on(c, t);
          ar[static_cast<std::size_t>(f)] -= af;
          ar[static_cast<std::size_t>(t)] += at;
          glob[static_cast<std::size_t>(f)] -= af;
          glob[static_cast<std::size_t>(t)] += at;
          d_.set_tier(c, t);
        }
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
    for (CellId c : cells) in_region[static_cast<std::size_t>(c)] = 0;
  }
}

int KwayEngine::run() {
  initial_assignment();
  rebuild_counts();
  int cut = current_cut();
  const double mu = std::max(opt_.cost_weight, 0.0);
  double cost = mu > 0.0 ? die_cost_now() : 0.0;
  double J = cut + mu * cost;

  const int nc = nl_.cell_count();
  const bool tracing = util::trace_enabled();

  // One gain bucket per ordered (from, to) tier pair; entries carry
  // integer cut gains only (see file comment).
  std::vector<GainBuckets> bucket;
  bucket.reserve(static_cast<std::size_t>(K_) * static_cast<std::size_t>(K_));
  for (int i = 0; i < K_ * K_; ++i) bucket.emplace_back(nc, max_deg_);
  std::vector<int> gain(
      static_cast<std::size_t>(nc) * static_cast<std::size_t>(K_), 0);
  std::vector<char> locked_in_pass(static_cast<std::size_t>(nc), 0);

  for (int pass = 0; pass < kMaxPasses; ++pass) {
    util::TraceSpan pass_span(
        "fm_pass", tracing ? std::to_string(pass) : std::string());
    if (opt_.stats != nullptr) ++opt_.stats->passes;
    for (auto& gb : bucket) gb.reset();
    std::fill(gain.begin(), gain.end(), 0);
    std::fill(locked_in_pass.begin(), locked_in_pass.end(), 0);

    // Initial gains: independent integers over frozen counts, each cell
    // writing only its own K−1 slots — pool-parallel equals serial.
    pool_.parallel_for(
        0, nc,
        [&](int ci) {
          const CellId c = ci;
          if (!movable_[static_cast<std::size_t>(c)]) return;
          const int f = d_.tier(c);
          for (int u = 0; u < K_; ++u)
            if (u != f) gain[idx(c, u)] = gain_of(c, u);
        },
        kGainChunk);
    for (CellId c = 0; c < nc; ++c) {
      if (!movable_[static_cast<std::size_t>(c)]) continue;
      const int f = d_.tier(c);
      for (int u = 0; u < K_; ++u)
        if (u != f)
          bucket[static_cast<std::size_t>(f) * static_cast<std::size_t>(K_) +
                 static_cast<std::size_t>(u)]
              .insert(gain[idx(c, u)], c);
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
    double running_cost = cost;
    double best_J = J;
    std::size_t best_prefix = 0;

    // Select the best feasible (cell, target) on the combined objective,
    // commit it, update the neighbours' cut gains; repeat until no
    // candidate is feasible.
    while (true) {
      const Cand cand = scan_candidate(bucket);
      if (cand.c == kInvalidId) break;
      const CellId c = cand.c;
      const int to = cand.to;
      const int c_from = d_.tier(c);
      for (int u = 0; u < K_; ++u)
        if (u != c_from)
          bucket[static_cast<std::size_t>(c_from) *
                     static_cast<std::size_t>(K_) +
                 static_cast<std::size_t>(u)]
              .erase(gain[idx(c, u)], c);
      locked_in_pass[static_cast<std::size_t>(c)] = 1;
      // Settled-net pruning, K-way form: a net with ≥3 pins on the
      // mover's tier and ≥2 on the target keeps every per-tier count it
      // exposes to neighbor gains in the same predicate class (no count
      // crosses the 0/1 thresholds and the occupied-tier count is
      // unchanged), so its pins need no revisit.
      touched.clear();
      for (NetId n : nets_of(c)) {
        if (cnt_[nidx(n, c_from)] >= 3 && cnt_[nidx(n, to)] >= 2) continue;
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
      running_cut -= gain[idx(c, to)];
      apply_move(c, to);
      if (mu > 0.0) running_cost = die_cost_now();
      moves.push_back(c);
      for (CellId nb : touched) {
        const int tb = d_.tier(nb);
        for (int u = 0; u < K_; ++u) {
          if (u == tb) continue;
          const int ng = gain_of(nb, u);
          const int og = gain[idx(nb, u)];
          if (ng == og) continue;
          GainBuckets& gb =
              bucket[static_cast<std::size_t>(tb) *
                         static_cast<std::size_t>(K_) +
                     static_cast<std::size_t>(u)];
          gb.erase(og, nb);
          gain[idx(nb, u)] = ng;
          gb.insert(ng, nb);
        }
      }
      const double j_now = running_cut + mu * running_cost;
      if (j_now < best_J) {
        best_J = j_now;
        best_prefix = moves.size();
      }
    }
    if (opt_.stats != nullptr)
      opt_.stats->moves += static_cast<long long>(moves.size());

    // Roll back to the best prefix on the combined objective.
    for (std::size_t i = moves.size(); i > best_prefix; --i)
      d_.set_tier(moves[i - 1],
                  tier_snapshot[static_cast<std::size_t>(moves[i - 1])]);
    rebuild_counts();
    const int new_cut = current_cut();
    const double new_cost = mu > 0.0 ? die_cost_now() : 0.0;
    const double new_J = new_cut + mu * new_cost;
    util::log_debug("FM pass ", pass, ": J ", J, " -> ", new_J,
                    " (cut ", cut, " -> ", new_cut, ")");
    if (new_J >= J) break;
    J = new_J;
    cut = new_cut;
    cost = new_cost;
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
  KwayEngine eng(d, opt, locked, std::move(region), 1);
  return eng.run();
}

int bin_fm_partition(Design& d, const FmOptions& opt,
                     const std::vector<char>* locked) {
  KwayEngine eng(d, opt, locked, bin_regions(d, opt.bins),
                 opt.bins * opt.bins);
  return eng.run();
}

}  // namespace m3d::part
