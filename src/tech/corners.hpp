#pragma once
/// \file corners.hpp
/// \brief Inter-tier process corners for the multi-corner STA sweep.
///
/// The top tier of a monolithic 3-D stack is fabricated under a
/// constrained thermal budget and comes out systematically slower and
/// more variable than the bottom tier (the inter-tier-variation
/// literature's core observation). A CornerSpec captures that as a
/// per-tier systematic derate plus a per-tier relative sigma; CornerSet
/// expands it into K multiplicative delay factors per tier:
///
///   corner 0      : factor = derate[tier]                  (nominal)
///   corner k >= 1 : factor = derate[tier] * (1 + sigma[tier] * z_k)
///
/// with z_k = Phi^-1(u_k) and u_k drawn from the deterministic stream
/// util::Rng::stream(seed, k) — one stream per corner, so corner k is the
/// same for every K >= k+1 (a K=16 set is a prefix of the K=64 set) and
/// the whole set is a pure function of the spec. sta::Sta propagates all
/// K factors as stride-K SoA lanes in one pass; lane 0 with a default
/// spec is bitwise-identical to the scalar single-corner engine.

#include <cstdint>
#include <vector>

namespace m3d::tech {

/// Value-type corner configuration carried inside sta::StaOptions and
/// core::FlowOptions (and hashed by the flow-cache option hashes).
struct CornerSpec {
  int count = 1;                    ///< K; 1 = single-corner scalar engine
  double derate[2] = {1.0, 1.0};    ///< systematic per-tier delay multiplier
  double sigma[2] = {0.0, 0.0};     ///< per-tier relative variability
  std::uint64_t seed = 0x3dc0;      ///< Rng stream family for the draws

  bool operator==(const CornerSpec&) const = default;
};

/// The expanded per-tier factor lanes of a CornerSpec.
class CornerSet {
 public:
  /// Expand a spec. count is clamped to [1, 4096]; factors are clamped to
  /// [0.05, 20] so a wild sigma cannot produce a negative "delay".
  static CornerSet generate(const CornerSpec& spec);

  int count() const { return count_; }
  const CornerSpec& spec() const { return spec_; }

  /// Delay factor of corner k on `tier` (tier 0/1; single-tier designs
  /// read tier 0).
  double factor(int tier, int k) const {
    return fac_[tier][static_cast<std::size_t>(k)];
  }

  /// Contiguous per-tier factor lanes — the STA inner loop's stride.
  const std::vector<double>& factors(int tier) const { return fac_[tier]; }

  /// A single-corner spec carrying corner k's exact factors as its
  /// derates (sigma = 0): the scalar baseline a sequential K-corner loop
  /// would run — what bench_mcsta measures the one-pass sweep against.
  CornerSpec single(int k) const;

 private:
  int count_ = 1;
  CornerSpec spec_;
  std::vector<double> fac_[2];
};

/// Corner spec from the environment: M3D_STA_CORNERS (K; unset or <=1
/// disables the sweep), M3D_TIER_SIGMA ("s" for both tiers or
/// "s_bottom,s_top"; default 0.03,0.08 when a sweep is on — the top tier
/// is the more variable one), M3D_TIER_DERATE (same syntax; default
/// 1.0,1.05). The benches pass this into FlowOptions::sta_corners; with
/// the variables unset the result is the default spec and every golden
/// artifact is byte-identical to the single-corner flow. A malformed value
/// throws util::Error (util::env_int / util::env_tier_pair).
CornerSpec corner_spec_from_env();

}  // namespace m3d::tech
