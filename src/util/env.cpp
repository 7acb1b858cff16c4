#include "util/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <type_traits>

#include "util/check.hpp"

namespace m3d::util {

namespace {

[[noreturn]] void malformed(std::string_view name, std::string_view value) {
  throw Error(std::string(name) + ": malformed value '" + std::string(value) +
              "'");
}

/// The variable's value, or nullptr when unset or empty.
const char* value_of(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : nullptr;
}

}  // namespace

template <typename T>
T parse_token(std::string_view name, std::string_view value,
              std::string_view token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  bool ok = !token.empty() && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) malformed(name, value);
  return v;
}

template int parse_token<int>(std::string_view, std::string_view,
                              std::string_view);
template double parse_token<double>(std::string_view, std::string_view,
                                    std::string_view);

std::optional<int> env_int(const char* name) {
  const char* s = value_of(name);
  if (s == nullptr) return std::nullopt;
  return parse_token<int>(name, s, s);
}

std::optional<double> env_double(const char* name) {
  const char* s = value_of(name);
  if (s == nullptr) return std::nullopt;
  return parse_token<double>(name, s, s);
}

std::optional<std::vector<double>> env_list(const char* name) {
  const char* s = value_of(name);
  if (s == nullptr) return std::nullopt;
  std::vector<double> out;
  std::string_view rest(s);
  for (;;) {
    const std::size_t comma = rest.find(',');
    out.push_back(parse_token<double>(name, s, rest.substr(0, comma)));
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

std::optional<std::array<double, 2>> env_tier_pair(const char* name) {
  const auto v = env_list(name);
  if (!v) return std::nullopt;
  if (v->size() > 2) malformed(name, value_of(name));
  return std::array<double, 2>{v->front(), v->back()};
}

}  // namespace m3d::util
