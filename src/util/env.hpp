#pragma once
/// \file env.hpp
/// \brief The one strict number parser, and the numeric M3D_* knobs read
///        through it.
///
/// Unset or empty leaves the caller's default. Anything else must be one
/// whole token: "4x", "x", " 4", a number that overflows its type or a
/// non-finite double throws util::Error naming the variable and its
/// value, instead of reading as a prefix or as unset. What an accepted
/// value means (a count of 0 falling back to a default, say) stays with
/// each call site.

#include <array>
#include <optional>
#include <string_view>
#include <vector>

namespace m3d::util {

/// The whole of `token` as a T (int or double; a double must be finite),
/// else throws util::Error "<name>: malformed value '<value>'", where
/// `value` is the full text `token` was cut from. Besides the knobs
/// below, m3dd's config file and flags, m3dctl's flags and the Verilog
/// reader parse their numbers here.
template <typename T>
T parse_token(std::string_view name, std::string_view value,
              std::string_view token);

/// Integer knob: std::nullopt when unset or empty, else the whole value
/// as an int.
std::optional<int> env_int(const char* name);

/// Real knob: std::nullopt when unset or empty, else the whole value as a
/// finite double.
std::optional<double> env_double(const char* name);

/// List knob "v0,v1,...": std::nullopt when unset or empty, else every
/// comma-separated element as a finite double.
std::optional<std::vector<double>> env_list(const char* name);

/// Per-tier knob "v" or "v0,v1": std::nullopt when unset or empty; a
/// single value applies to both tiers.
std::optional<std::array<double, 2>> env_tier_pair(const char* name);

}  // namespace m3d::util
