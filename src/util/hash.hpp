#pragma once
/// \file hash.hpp
/// \brief The library's one 64-bit mix (splitmix64, which seeds every
///        Rng) and the streaming Hasher built on it, which keys the flow
///        cache, digests timing views and design state, and checksums
///        persisted flow state. Those values name files and appear in
///        golden outputs, so neither may change. Header-only so the mix
///        inlines into the fingerprint loops. Not cryptographic.

#include <bit>
#include <cstdint>
#include <string_view>

namespace m3d::util {

/// One SplitMix64 step: advance `state` by the golden gamma and return the
/// finalized mix of the new state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-offset-seeded accumulator, one splitmix64 round per 64-bit word:
/// h ← splitmix64(h ^ word).
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;

  void mix(std::uint64_t v) {
    std::uint64_t x = h ^ v;
    h = splitmix64(x);
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::int64_t>(v)); }
  void mix(unsigned v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(std::uint64_t{v ? 1u : 0u}); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  /// Length, then the bytes packed big-end-first into 8-byte words, then
  /// the zero-padded tail word (if any).
  void mix(std::string_view s) {
    mix(static_cast<std::uint64_t>(s.size()));
    std::uint64_t word = 0;
    int n = 0;
    for (unsigned char c : s) {
      word = (word << 8) | c;
      if (++n == 8) {
        mix(word);
        word = 0;
        n = 0;
      }
    }
    if (n > 0) mix(word);
  }
};

}  // namespace m3d::util
