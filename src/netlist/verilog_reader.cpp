#include "netlist/verilog_reader.hpp"

#include <cctype>
#include <map>
#include <vector>

#include "util/check.hpp"
#include "util/env.hpp"

namespace m3d::netlist {

namespace {

struct Token {
  enum Kind { Ident, Punct, End } kind = End;
  std::string text;
  int line = 0;
  bool clock_comment = false;  ///< a "// clock" comment preceded this token
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) {}

  Token next() {
    bool saw_clock = skip();
    Token t;
    t.line = line_;
    t.clock_comment = saw_clock;
    if (pos_ >= s_.size()) return t;
    const char c = s_[pos_];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '\\') {
      t.kind = Token::Ident;
      if (c == '\\') ++pos_;  // escaped identifier prefix
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '_' || s_[pos_] == '$'))
        t.text += s_[pos_++];
      return t;
    }
    t.kind = Token::Punct;
    t.text = std::string(1, c);
    ++pos_;
    return t;
  }

  /// Returns true when a `// clock` marker was skipped. The writer puts
  /// it after the wire's semicolon, so the *following* token carries it.
  bool skip() {
    bool saw_clock = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '/') {
        const std::size_t eol = s_.find('\n', pos_);
        if (s_.compare(pos_, 8, "// clock") == 0) saw_clock = true;
        pos_ = eol == std::string::npos ? s_.size() : eol;
      } else if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '*') {
        const std::size_t end = s_.find("*/", pos_ + 2);
        M3D_CHECK_MSG(end != std::string::npos, "unterminated comment");
        for (std::size_t i = pos_; i < end; ++i)
          if (s_[i] == '\n') ++line_;
        pos_ = end + 2;
      } else {
        break;
      }
    }
    return saw_clock;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Try to interpret an instance type as FUNC_Xd.
bool parse_std_type(const std::string& type, tech::CellFunc* func,
                    int* drive) {
  const std::size_t us = type.rfind("_X");
  if (us == std::string::npos) return false;
  const std::string fname = type.substr(0, us);
  const std::string dstr = type.substr(us + 2);
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

class Reader {
 public:
  explicit Reader(const std::string& s) : lex_(s) { advance(); }

  Netlist parse() {
    expect_ident("module");
    Netlist nl(expect_any_ident("module name"));
    expect_punct("(");

    // Port list: `input name` / `output name`, comma separated.
    std::map<std::string, CellId> ports;
    while (!at_punct(")")) {
      if (at_punct(",")) {
        advance();
        continue;
      }
      const std::string dir = expect_any_ident("port direction");
      const std::string name = expect_any_ident("port name");
      if (dir == "input")
        ports[name] = nl.add_input_port(name);
      else if (dir == "output")
        ports[name] = nl.add_output_port(name);
      else
        M3D_CHECK_MSG(false, "bad port direction '" << dir << "' at line "
                                                    << cur_.line);
    }
    advance();  // ')'
    expect_punct(";");

    std::map<std::string, NetId> nets;
    auto net_of = [&](const std::string& name) {
      auto it = nets.find(name);
      M3D_CHECK_MSG(it != nets.end(),
                    "undeclared net '" << name << "'");
      return it->second;
    };

    while (!(cur_.kind == Token::Ident && cur_.text == "endmodule")) {
      M3D_CHECK_MSG(cur_.kind != Token::End, "missing endmodule");
      if (cur_.text == "wire") {
        advance();
        const std::string name = expect_any_ident("wire name");
        expect_punct(";");
        // The writer's "// clock" marker lands on the token *after* the
        // semicolon; peek at it.
        const bool is_clock = cur_.clock_comment;
        nets[name] = nl.add_net(name, is_clock);
      } else if (cur_.text == "assign") {
        advance();
        const std::string lhs = expect_any_ident("assign lhs");
        expect_punct("=");
        const std::string rhs = expect_any_ident("assign rhs");
        expect_punct(";");
        // Either `net = in_port` or `out_port = net`.
        if (ports.count(rhs) != 0) {
          nl.connect(net_of(lhs), nl.output_pin(ports[rhs]));
        } else {
          M3D_CHECK_MSG(ports.count(lhs) != 0,
                        "assign without a port at line " << cur_.line);
          nl.connect(net_of(rhs), nl.input_pin(ports[lhs], 0));
        }
      } else {
        // Instance: TYPE name ( .PIN(net), ... );
        const std::string type = expect_any_ident("cell type");
        const std::string inst = expect_any_ident("instance name");
        expect_punct("(");
        std::vector<std::pair<std::string, std::string>> conns;
        while (!at_punct(")")) {
          if (at_punct(",")) {
            advance();
            continue;
          }
          expect_punct(".");
          const std::string pin = expect_any_ident("pin name");
          expect_punct("(");
          const std::string net = expect_any_ident("net name");
          expect_punct(")");
          conns.emplace_back(pin, net);
        }
        advance();  // ')'
        expect_punct(";");
        make_instance(nl, nets, type, inst, conns);
      }
    }
    nl.validate();
    return nl;
  }

 private:
  void make_instance(
      Netlist& nl, std::map<std::string, NetId>& nets,
      const std::string& type, const std::string& inst,
      const std::vector<std::pair<std::string, std::string>>& conns) {
    auto net_of = [&](const std::string& name) {
      auto it = nets.find(name);
      M3D_CHECK_MSG(it != nets.end(), "undeclared net '" << name << "'");
      return it->second;
    };

    tech::CellFunc func;
    int drive;
    CellId c;
    if (parse_std_type(type, &func, &drive)) {
      c = func == tech::CellFunc::Dff ? nl.add_dff(inst, drive)
                                      : nl.add_comb(inst, func, drive);
    } else {
      // Macro: pin counts from the connection list itself.
      int n_in = 0, n_out = 0;
      for (const auto& [pin, net] : conns) {
        if (pin[0] == 'A') ++n_in;
        if (pin[0] == 'Z') ++n_out;
      }
      M3D_CHECK_MSG(n_in > 0 && n_out > 0,
                    "macro '" << inst << "' needs A and Z pins");
      c = nl.add_macro(inst, type, n_in, n_out);
    }

    // The number after a pin's A/Z letter.
    auto pin_index = [](const std::string& pin) {
      return util::parse_token<int>("pin", pin,
                                    std::string_view(pin).substr(1));
    };
    for (const auto& [pin, net] : conns) {
      if (pin == "CK") {
        nl.connect(net_of(net), nl.clock_pin(c));
      } else if (pin[0] == 'A') {
        nl.connect(net_of(net), nl.input_pin(c, pin_index(pin)));
      } else if (pin == "Z") {
        nl.connect(net_of(net), nl.output_pin(c, 0));
      } else if (pin[0] == 'Z') {
        nl.connect(net_of(net), nl.output_pin(c, pin_index(pin)));
      } else {
        M3D_CHECK_MSG(false, "unknown pin '" << pin << "' on " << inst);
      }
    }
  }

  void advance() { cur_ = lex_.next(); }

  bool at_punct(const char* p) {
    return cur_.kind == Token::Punct && cur_.text == p;
  }

  void expect_punct(const char* p) {
    M3D_CHECK_MSG(at_punct(p), "expected '" << p << "' at line " << cur_.line
                                            << ", got '" << cur_.text << "'");
    advance();
  }

  void expect_ident(const char* word) {
    M3D_CHECK_MSG(cur_.kind == Token::Ident && cur_.text == word,
                  "expected '" << word << "' at line " << cur_.line);
    advance();
  }

  std::string expect_any_ident(const char* what) {
    M3D_CHECK_MSG(cur_.kind == Token::Ident,
                  "expected " << what << " at line " << cur_.line);
    std::string s = cur_.text;
    advance();
    return s;
  }

  Lexer lex_;
  Token cur_;
};

}  // namespace

Netlist parse_verilog(const std::string& text) {
  Reader r(text);
  return r.parse();
}

}  // namespace m3d::netlist
