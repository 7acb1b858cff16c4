#include "tech/corners.hpp"

#include <algorithm>

#include "util/env.hpp"
#include "util/quantile.hpp"
#include "util/rng.hpp"

namespace m3d::tech {

CornerSet CornerSet::generate(const CornerSpec& spec) {
  CornerSet cs;
  cs.spec_ = spec;
  cs.count_ = std::clamp(spec.count, 1, 4096);
  cs.spec_.count = cs.count_;
  for (int t : {0, 1}) {
    auto& lane = cs.fac_[t];
    lane.resize(static_cast<std::size_t>(cs.count_));
    lane[0] = spec.derate[t];  // corner 0: the systematic (nominal) corner
  }
  for (int k = 1; k < cs.count_; ++k) {
    // One Rng stream per corner: corner k's draws depend only on
    // (seed, k), never on K, so growing the set keeps its prefix.
    util::Rng rng = util::Rng::stream(spec.seed, static_cast<std::uint64_t>(k));
    for (int t : {0, 1}) {
      const double u = std::clamp(rng.uniform(), 1e-12, 1.0 - 1e-12);
      const double z = util::inv_normal_cdf(u);
      const double f = spec.derate[t] * (1.0 + spec.sigma[t] * z);
      cs.fac_[t][static_cast<std::size_t>(k)] = std::clamp(f, 0.05, 20.0);
    }
  }
  return cs;
}

CornerSpec CornerSet::single(int k) const {
  CornerSpec s;
  s.count = 1;
  s.derate[0] = factor(0, k);
  s.derate[1] = factor(1, k);
  s.sigma[0] = s.sigma[1] = 0.0;
  s.seed = spec_.seed;
  return s;
}

CornerSpec corner_spec_from_env() {
  CornerSpec spec;
  const auto count = util::env_int("M3D_STA_CORNERS");
  if (!count || *count <= 1) return spec;
  spec.count = *count;
  // Defaults model the inter-tier asymmetry: the top tier is both
  // systematically slower and more variable than the bottom one.
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;
  spec.derate[0] = 1.0;
  spec.derate[1] = 1.05;
  if (const auto v = util::env_tier_pair("M3D_TIER_SIGMA"))
    std::copy(v->begin(), v->end(), spec.sigma);
  if (const auto v = util::env_tier_pair("M3D_TIER_DERATE"))
    std::copy(v->begin(), v->end(), spec.derate);
  return spec;
}

}  // namespace m3d::tech
