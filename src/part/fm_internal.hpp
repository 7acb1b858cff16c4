#pragma once
/// \file fm_internal.hpp
/// \brief Machinery shared by the 2-tier FM engine (fm.cpp) and the K-way
///        generalization (kway.cpp): the find-first bitset and the
///        gain-ordered candidate buckets.
///
/// Internal to m3d_part — not installed, not part of the public interface.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "part/fm.hpp"

namespace m3d::part::detail {

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

/// One side's gain-ordered FM candidate set: per-gain IdBitsets plus
/// entry counts. Traversal — descending gain, ascending id within a
/// gain — reproduces the old std::set<(-gain, cell)> iteration order
/// exactly, so candidate selection is unchanged; only the cost moved,
/// from a pointer-chasing red-black tree (log-n rebalances and a node
/// allocation per update, ruinous at a million entries) to O(1) word
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

/// True when the options/design require the K-way engine: more (or fewer)
/// than two tiers, a cost term in the objective, or any of the per-tier
/// knobs. Plain 2-tier min-cut keeps going through the historical 2-tier
/// engine so its committed move sequences stay byte-identical.
bool use_kway(const Design& d, const FmOptions& opt);

/// K-way cost-aware FM over `region` balance domains. Returns the final
/// cut (nets spanning two or more tiers).
int kway_fm(Design& d, const FmOptions& opt, const std::vector<char>* locked,
            std::vector<int> region, int num_regions);

}  // namespace m3d::part::detail
