#pragma once
/// \file env.hpp
/// \brief The one strict reader for the numeric M3D_* knobs.
///
/// Unset or empty leaves the caller's default. Anything else must be one
/// whole token: "4x", "x", " 4", a number that overflows its type or a
/// non-finite double throws util::Error naming the variable and its
/// value, instead of reading as a prefix or as unset. What an accepted
/// value means (a count of 0 falling back to a default, say) stays with
/// each call site.

#include <array>
#include <optional>

namespace m3d::util {

/// Integer knob: std::nullopt when unset or empty, else the whole value
/// as an int.
std::optional<int> env_int(const char* name);

/// Per-tier knob "v" or "v0,v1": std::nullopt when unset or empty; a
/// single value applies to both tiers.
std::optional<std::array<double, 2>> env_tier_pair(const char* name);

}  // namespace m3d::util
