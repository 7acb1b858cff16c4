#include "netlist/verilog_reader.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"
#include "util/env.hpp"

namespace m3d::netlist {

namespace {

// Character classes, one table load per character.
enum : unsigned char { kSpace = 1, kIdent = 2, kIdentStart = 4 };

constexpr std::array<unsigned char, 256> kClass = [] {
  std::array<unsigned char, 256> t{};
  for (unsigned char c : {' ', '\n', '\t', '\r', '\v', '\f'}) t[c] = kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (alnum || c == '_') t[c] = kIdent | kIdentStart;
  }
  t['$'] = kIdent;
  t['\\'] = kIdentStart;
  return t;
}();

bool has(char c, unsigned char cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

struct Token {
  enum Kind { Ident, Punct, End } kind = End;
  std::string_view text;  ///< a view into the text being read
  int line = 0;
  bool clock_comment = false;  ///< a "// clock" comment preceded this token
};

class Lexer {
 public:
  explicit Lexer(std::string_view s) : s_(s) {}

  Token next() {
    Token t;
    t.clock_comment = skip();
    t.line = line_;
    if (pos_ >= s_.size()) return t;
    const char c = s_[pos_];
    if (has(c, kIdentStart)) {
      t.kind = Token::Ident;
      if (c == '\\') ++pos_;  // escaped identifier prefix
      const std::size_t begin = pos_;
      while (pos_ < s_.size() && has(s_[pos_], kIdent)) ++pos_;
      t.text = std::string_view(s_.data() + begin, pos_ - begin);
      M3D_CHECK_MSG(!t.text.empty(),
                    "empty escaped identifier at line " << line_);
      return t;
    }
    t.kind = Token::Punct;
    t.text = std::string_view(s_.data() + pos_, 1);
    ++pos_;
    return t;
  }

 private:
  /// Returns true when a `// clock` marker was skipped. The writer puts
  /// it after the wire's semicolon, so the *following* token carries it.
  bool skip() {
    bool saw_clock = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (has(c, kSpace)) {
        line_ += c == '\n';
        ++pos_;
      } else if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '/') {
        const std::size_t eol = s_.find('\n', pos_);
        if (s_.substr(pos_, 8) == "// clock") saw_clock = true;
        pos_ = eol == std::string_view::npos ? s_.size() : eol;
      } else if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '*') {
        const std::size_t end = s_.find("*/", pos_ + 2);
        M3D_CHECK_MSG(end != std::string_view::npos,
                      "unterminated comment at line " << line_);
        line_ += static_cast<int>(
            std::count(s_.begin() + pos_, s_.begin() + end, '\n'));
        pos_ = end + 2;
      } else {
        break;
      }
    }
    return saw_clock;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Try to interpret an instance type as FUNC_Xd.
bool parse_std_type(std::string_view type, tech::CellFunc* func,
                    int* drive) {
  const std::size_t us = type.rfind("_X");
  if (us == std::string_view::npos) return false;
  const std::string_view fname = type.substr(0, us);
  const std::string_view dstr = type.substr(us + 2);
  if (dstr.empty()) return false;
  for (char c : dstr)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  for (int f = 0; f < tech::kCellFuncCount; ++f) {
    if (fname == tech::func_name(static_cast<tech::CellFunc>(f))) {
      *func = static_cast<tech::CellFunc>(f);
      *drive = util::parse_token<int>("cell type", type, dstr);
      return true;
    }
  }
  return false;
}

/// Runs one statement's netlist edits. A util::Error they raise is
/// rethrown with the statement's line appended.
template <typename F>
void at_line(int line, F&& edit) {
  try {
    edit();
  } catch (const util::Error& e) {
    throw util::Error(std::string(e.what()) + " at line " +
                      std::to_string(line));
  }
}

class Reader {
 public:
  explicit Reader(std::string_view s) : text_(s), lex_(s) { advance(); }

  Netlist parse() {
    expect_ident("module");
    Netlist nl(std::string(expect_any_ident("module name")));
    expect_punct('(');

    // Port list: `input name` / `output name`, comma separated.
    while (!at_punct(')')) {
      if (at_punct(',')) {
        advance();
        continue;
      }
      const int line = cur_.line;
      const std::string_view dir = expect_any_ident("port direction");
      const std::string_view name = expect_any_ident("port name");
      M3D_CHECK_MSG(dir == "input" || dir == "output",
                    "bad port direction '" << dir << "' at line " << line);
      cells_.push_back({name, line});
      ports_[name] = dir == "input" ? nl.add_input_port(name)
                                    : nl.add_output_port(name);
    }
    advance();  // ')'
    expect_punct(';');

    // One counting pass sizes the tables: every wire, assign and instance
    // ends in ';', and every named connection starts with '.'.
    int semis = 0, dots = 0;
    for (const char c : text_) {
      semis += c == ';';
      dots += c == '.';
    }
    const int ports = nl.cell_count();
    nl.reserve(ports + semis, semis, ports + dots);
    nets_.reserve(static_cast<std::size_t>(semis));
    cells_.reserve(static_cast<std::size_t>(ports + semis));

    while (!at_ident("endmodule")) {
      M3D_CHECK_MSG(cur_.kind != Token::End,
                    "missing endmodule at line " << cur_.line);
      const int line = cur_.line;
      if (at_ident("wire")) {
        advance();
        const std::string_view name = expect_any_ident("wire name");
        expect_punct(';');
        const auto [net, fresh] = nets_.try_emplace(name, kInvalidId);
        M3D_CHECK_MSG(fresh,
                      "duplicate wire '" << name << "' at line " << line);
        // The writer's "// clock" marker lands on the token *after* the
        // semicolon; peek at it.
        net->second = nl.add_net(name, cur_.clock_comment);
      } else if (at_ident("assign")) {
        advance();
        const std::string_view lhs = expect_any_ident("assign lhs");
        expect_punct('=');
        const std::string_view rhs = expect_any_ident("assign rhs");
        expect_punct(';');
        at_line(line, [&] {
          // Either `net = in_port` or `out_port = net`.
          if (const auto in = ports_.find(rhs); in != ports_.end()) {
            nl.connect(net_of(lhs), nl.output_pin(in->second));
          } else {
            const auto out = ports_.find(lhs);
            M3D_CHECK_MSG(out != ports_.end(), "assign without a port");
            nl.connect(net_of(rhs), nl.input_pin(out->second, 0));
          }
        });
      } else {
        // Instance: TYPE name ( .PIN(net), .PIN(), ... );
        const std::string_view type = expect_any_ident("cell type");
        const std::string_view inst = expect_any_ident("instance name");
        cells_.push_back({inst, line});
        expect_punct('(');
        conns_.clear();
        while (!at_punct(')')) {
          if (at_punct(',')) {
            advance();
            continue;
          }
          expect_punct('.');
          const std::string_view pin = expect_any_ident("pin name");
          expect_punct('(');
          std::string_view net;  // empty: `.P()` leaves the pin open
          if (!at_punct(')')) net = expect_any_ident("net name");
          expect_punct(')');
          conns_.push_back({pin, net});
        }
        advance();  // ')'
        expect_punct(';');
        at_line(line, [&] { make_instance(nl, type, inst); });
      }
    }
    check_cell_names(ports);
    nl.validate();
    return nl;
  }

 private:
  struct Conn {
    std::string_view pin;
    std::string_view net;  ///< empty for an open pin
  };
  struct Decl {
    std::string_view name;
    int line;
  };

  NetId net_of(std::string_view name) const {
    const auto it = nets_.find(name);
    M3D_CHECK_MSG(it != nets_.end(), "undeclared net '" << name << "'");
    return it->second;
  }

  void make_instance(Netlist& nl, std::string_view type,
                     std::string_view inst) {
    tech::CellFunc func = tech::CellFunc::Inv;
    int drive = 1;
    CellId c = kInvalidId;
    if (parse_std_type(type, &func, &drive)) {
      c = func == tech::CellFunc::Dff ? nl.add_dff(inst, drive)
                                      : nl.add_comb(inst, func, drive);
    } else {
      // Macro: pin counts from the connection list itself.
      int n_in = 0, n_out = 0;
      for (const Conn& k : conns_) {
        if (k.pin[0] == 'A') ++n_in;
        if (k.pin[0] == 'Z') ++n_out;
      }
      M3D_CHECK_MSG(n_in > 0 && n_out > 0,
                    "macro '" << inst << "' needs A and Z pins");
      c = nl.add_macro(inst, type, n_in, n_out);
    }
    for (const Conn& k : conns_) {
      const PinId p = pin_of(nl, c, inst, k.pin);
      if (!k.net.empty()) nl.connect(net_of(k.net), p);
    }
  }

  /// Throws at the first cell (port or instance) in file order that
  /// redeclares a name. Sorting the names' hashes once costs a fraction
  /// of a node-based hash-set insert per name, which slowed the parse of
  /// a 331k-instance mesh by a third.
  void check_cell_names(int ports) const {
    std::vector<std::pair<std::size_t, int>> keys(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i)
      keys[i] = {std::hash<std::string_view>{}(cells_[i].name),
                 static_cast<int>(i)};
    std::sort(keys.begin(), keys.end());
    int dup = -1;
    for (std::size_t k = 1; k < keys.size(); ++k)
      for (std::size_t j = k; j-- > 0 && keys[j].first == keys[k].first;)
        if (cells_[static_cast<std::size_t>(keys[j].second)].name ==
            cells_[static_cast<std::size_t>(keys[k].second)].name) {
          if (dup < 0 || keys[k].second < dup) dup = keys[k].second;
          break;
        }
    if (dup < 0) return;
    const Decl& d = cells_[static_cast<std::size_t>(dup)];
    M3D_CHECK_MSG(false, (dup < ports ? "duplicate port '"
                                      : "duplicate cell name '")
                             << d.name << "' at line " << d.line);
  }

  /// The pin a connection names: CK, A<i>, Z or Z<i>.
  static PinId pin_of(const Netlist& nl, CellId c, std::string_view inst,
                      std::string_view pin) {
    // The number after a pin's A/Z letter.
    const auto index = [&] {
      return util::parse_token<int>("pin", pin, pin.substr(1));
    };
    if (pin == "CK") {
      const PinId p = nl.clock_pin(c);
      M3D_CHECK_MSG(p != kInvalidId, "cell " << inst << " has no clock pin");
      return p;
    }
    if (pin[0] == 'A') return nl.input_pin(c, index());
    if (pin == "Z") return nl.output_pin(c, 0);
    M3D_CHECK_MSG(pin[0] == 'Z', "unknown pin '" << pin << "' on " << inst);
    return nl.output_pin(c, index());
  }

  void advance() { cur_ = lex_.next(); }

  bool at_punct(char p) const {
    return cur_.kind == Token::Punct && cur_.text[0] == p;
  }

  bool at_ident(std::string_view word) const {
    return cur_.kind == Token::Ident && cur_.text == word;
  }

  void expect_punct(char p) {
    M3D_CHECK_MSG(at_punct(p), "expected '" << p << "' at line " << cur_.line
                                            << ", got '" << cur_.text << "'");
    advance();
  }

  void expect_ident(std::string_view word) {
    M3D_CHECK_MSG(at_ident(word),
                  "expected '" << word << "' at line " << cur_.line);
    advance();
  }

  std::string_view expect_any_ident(const char* what) {
    M3D_CHECK_MSG(cur_.kind == Token::Ident,
                  "expected " << what << " at line " << cur_.line);
    const std::string_view s = cur_.text;
    advance();
    return s;
  }

  std::string_view text_;
  Lexer lex_;
  Token cur_;
  std::unordered_map<std::string_view, NetId> nets_;
  std::unordered_map<std::string_view, CellId> ports_;
  std::vector<Decl> cells_;  ///< ports, then instances, in file order
  std::vector<Conn> conns_;  ///< the current instance's connections
};

}  // namespace

Netlist parse_verilog(const std::string& text) {
  // Ids, line numbers and the counting pass's totals are ints.
  M3D_CHECK_MSG(text.size() < static_cast<std::size_t>(
                                  std::numeric_limits<int>::max()),
                "Verilog text of " << text.size() << " bytes is too large");
  Reader r(text);
  return r.parse();
}

}  // namespace m3d::netlist
