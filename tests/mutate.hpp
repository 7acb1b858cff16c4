#pragma once
/// \file mutate.hpp
/// \brief The one text mutator of the parser fuzz tests (Verilog,
///        Liberty and the m3dd request path).

#include <cstddef>
#include <string>

#include "util/rng.hpp"

namespace m3d::test {

/// `text` with one random edit: a flipped, inserted or deleted byte; a
/// deleted or duplicated line; a truncation; or an inserted `\`, `/*`,
/// `(`, `.` or run of digits.
inline std::string mutate(const std::string& text, util::Rng& rng) {
  std::string m = text;
  const auto at = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(m.size()) - 1));
  const std::size_t nl_before = m.rfind('\n', at);
  const std::size_t line_begin =
      nl_before == std::string::npos ? 0 : nl_before + 1;
  const std::size_t nl_after = m.find('\n', at);
  const std::size_t line_end =
      nl_after == std::string::npos ? m.size() : nl_after + 1;
  switch (rng.uniform_int(0, 10)) {
    case 0:
      m[at] = static_cast<char>(m[at] ^ rng.uniform_int(1, 255));
      break;
    case 1:
      m.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
      break;
    case 2:
      m.erase(at, 1);
      break;
    case 3:
      m.erase(line_begin, line_end - line_begin);
      break;
    case 4:
      m.insert(line_begin, m.substr(line_begin, line_end - line_begin));
      break;
    case 5:
      m.resize(at);
      break;
    case 6:
      m.insert(at, "\\");
      break;
    case 7:
      m.insert(at, "/*");
      break;
    case 8:
      m.insert(at, "(");
      break;
    case 9:
      m.insert(at, ".");
      break;
    default: {
      std::string digits(static_cast<std::size_t>(rng.uniform_int(1, 12)),
                         '0');
      for (char& d : digits) d = static_cast<char>('0' + rng.uniform_int(0, 9));
      m.insert(at, digits);
    }
  }
  return m;
}

}  // namespace m3d::test
