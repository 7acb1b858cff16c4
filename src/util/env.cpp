#include "util/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/check.hpp"

namespace m3d::util {

namespace {

/// The whole of `token` as a T (finite, for doubles); throws util::Error
/// naming the variable `name` and its full value `value` otherwise.
template <typename T>
T parse_token(const char* name, const char* value, std::string_view token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  bool ok = !token.empty() && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok)
    throw Error(std::string(name) + ": malformed value '" + value + "'");
  return v;
}

/// The variable's value, or nullptr when unset or empty.
const char* value_of(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : nullptr;
}

}  // namespace

std::optional<int> env_int(const char* name) {
  const char* s = value_of(name);
  if (s == nullptr) return std::nullopt;
  return parse_token<int>(name, s, s);
}

std::optional<std::array<double, 2>> env_tier_pair(const char* name) {
  const char* s = value_of(name);
  if (s == nullptr) return std::nullopt;
  const std::string_view text(s);
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos) {
    const double v = parse_token<double>(name, s, text);
    return std::array<double, 2>{v, v};
  }
  return std::array<double, 2>{
      parse_token<double>(name, s, text.substr(0, comma)),
      parse_token<double>(name, s, text.substr(comma + 1))};
}

}  // namespace m3d::util
