#include "util/rng.hpp"

#include <atomic>
#include <cmath>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace m3d::util {

namespace {
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> [0,1) double.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int lo, int hi) {
  M3D_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(next_u64() % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::stream(std::uint64_t global_seed, std::uint64_t stream_id) {
  // Two SplitMix64 rounds over the pair: the first whitens the id so
  // consecutive ids land far apart, the second mixes in the seed. The Rng
  // constructor runs SplitMix64 again for the four state words.
  std::uint64_t x = stream_id;
  const std::uint64_t a = splitmix64(x);
  x = global_seed ^ a;
  return Rng(splitmix64(x));
}

namespace {
std::atomic<std::uint64_t> g_global_seed{0x9e3779b97f4a7c15ull};
thread_local std::uint64_t t_stream_id = 0;
}  // namespace

void set_global_seed(std::uint64_t seed) { g_global_seed.store(seed); }

std::uint64_t global_seed() { return g_global_seed.load(); }

void set_thread_stream_id(std::uint64_t id) { t_stream_id = id; }

std::uint64_t thread_stream_id() { return t_stream_id; }

Rng& thread_rng() {
  struct Cached {
    std::uint64_t seed = 0;
    std::uint64_t id = 0;
    bool valid = false;
    Rng rng;
  };
  thread_local Cached c;
  const std::uint64_t seed = global_seed();
  const std::uint64_t id = thread_stream_id();
  if (!c.valid || c.seed != seed || c.id != id) {
    c.rng = Rng::stream(seed, id);
    c.seed = seed;
    c.id = id;
    c.valid = true;
  }
  return c.rng;
}

}  // namespace m3d::util
