#include "tech/liberty.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace m3d::tech {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += fmt(v[i]);
  }
  return out;
}

void write_table(std::ostream& os, const char* kind, const NldmTable& t,
                 const char* indent) {
  os << indent << kind << " (m3d_template) {\n";
  os << indent << "  index_1 (\"" << join(t.slew_axis()) << "\");\n";
  os << indent << "  index_2 (\"" << join(t.load_axis()) << "\");\n";
  os << indent << "  values ( \\\n";
  for (std::size_t i = 0; i < t.slew_axis().size(); ++i) {
    os << indent << "    \"";
    for (std::size_t j = 0; j < t.load_axis().size(); ++j) {
      if (j) os << ", ";
      os << fmt(t.lookup(t.slew_axis()[i], t.load_axis()[j]));
    }
    os << "\"" << (i + 1 < t.slew_axis().size() ? ", \\" : " \\") << "\n";
  }
  os << indent << "  );\n";
  os << indent << "}\n";
}

}  // namespace

void write_liberty(const TechLib& lib, std::ostream& os) {
  os << "/* hetero-m3d Liberty subset */\n";
  os << "library (" << lib.name() << ") {\n";
  os << "  nom_voltage : " << fmt(lib.vdd()) << ";\n";
  os << "  m3d_tracks : " << lib.tracks() << ";\n";
  os << "  m3d_vthp : " << fmt(lib.vthp()) << ";\n";
  os << "  m3d_row_height : " << fmt(lib.row_height_um()) << ";\n";
  const auto& w = lib.wire();
  os << "  m3d_wire_res : " << fmt(w.res_kohm_per_um) << ";\n";
  os << "  m3d_wire_cap : " << fmt(w.cap_ff_per_um) << ";\n";
  os << "  m3d_wire_layers : " << w.signal_layers << ";\n";
  const auto& miv = lib.miv();
  os << "  m3d_miv_res : " << fmt(miv.res_kohm) << ";\n";
  os << "  m3d_miv_cap : " << fmt(miv.cap_ff) << ";\n";
  os << "  m3d_miv_pitch : " << fmt(miv.pitch_um) << ";\n";

  for (int i = 0; i < lib.cell_count(); ++i) {
    const LibCell& c = lib.cell(i);
    os << "  cell (" << c.name << ") {\n";
    os << "    m3d_function : " << func_name(c.func) << ";\n";
    os << "    m3d_drive : " << c.drive << ";\n";
    os << "    area : " << fmt(c.area_um2(lib.row_height_um())) << ";\n";
    os << "    m3d_width : " << fmt(c.width_um) << ";\n";
    os << "    cell_leakage_power : " << fmt(c.leakage_uw) << ";\n";
    os << "    m3d_internal_energy : " << fmt(c.internal_energy_fj) << ";\n";
    if (c.is_sequential()) {
      os << "    ff (IQ, IQN) { }\n";
      os << "    m3d_setup : " << fmt(c.setup_ns) << ";\n";
      os << "    m3d_hold : " << fmt(c.hold_ns) << ";\n";
      os << "    m3d_clock_cap : " << fmt(c.clock_cap_ff) << ";\n";
    }
    for (int p = 0; p < c.input_count(); ++p) {
      os << "    pin (A" << p << ") {\n";
      os << "      direction : input;\n";
      os << "      capacitance : " << fmt(c.input_cap_ff) << ";\n";
      os << "    }\n";
    }
    os << "    pin (Z) {\n";
    os << "      direction : output;\n";
    for (const auto& arc : c.arcs) {
      os << "      timing () {\n";
      os << "        related_pin : \"A" << arc.input_index << "\";\n";
      os << "        timing_sense : "
         << (arc.inverting ? "negative_unate" : "positive_unate") << ";\n";
      write_table(os, "cell_rise",
                  arc.delay[static_cast<int>(Transition::Rise)],
                  "        ");
      write_table(os, "cell_fall",
                  arc.delay[static_cast<int>(Transition::Fall)],
                  "        ");
      write_table(os, "rise_transition",
                  arc.out_slew[static_cast<int>(Transition::Rise)],
                  "        ");
      write_table(os, "fall_transition",
                  arc.out_slew[static_cast<int>(Transition::Fall)],
                  "        ");
      os << "      }\n";
    }
    os << "    }\n";
    os << "  }\n";
  }

  for (int i = 0; i < lib.macro_count(); ++i) {
    const MacroCell& m = lib.macro(i);
    os << "  cell (" << m.name << ") {\n";
    os << "    m3d_is_macro : true;\n";
    os << "    area : " << fmt(m.area_um2()) << ";\n";
    os << "    m3d_width : " << fmt(m.width_um) << ";\n";
    os << "    m3d_height : " << fmt(m.height_um) << ";\n";
    os << "    m3d_pin_cap : " << fmt(m.pin_cap_ff) << ";\n";
    os << "    m3d_access : " << fmt(m.access_ns) << ";\n";
    os << "    m3d_setup : " << fmt(m.setup_ns) << ";\n";
    os << "    m3d_out_slew : " << fmt(m.out_slew_ns) << ";\n";
    os << "    m3d_drive_res : " << fmt(m.drive_res_kohm) << ";\n";
    os << "    cell_leakage_power : " << fmt(m.leakage_uw) << ";\n";
    os << "    m3d_internal_energy : " << fmt(m.internal_energy_fj) << ";\n";
    os << "  }\n";
  }
  os << "}\n";
}

std::string liberty_string(const TechLib& lib) {
  std::ostringstream os;
  write_liberty(lib, os);
  return os.str();
}

// ---------------------------------------------------------------- parser --

namespace {

/// The whole of `text` as a finite double. Every numeric token goes
/// through here, so a malformed or out-of-range one is a util::Error
/// naming it and `where` it appeared, never a std::stod exception.
double to_number(const std::string& text, const std::string& where) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  M3D_CHECK_MSG(!text.empty() && end == text.c_str() + text.size() &&
                    errno != ERANGE && std::isfinite(v),
                "bad number '" << text << "' in " << where);
  return v;
}

struct Token {
  enum Kind { Ident, Number, String, Punct, End } kind = End;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) {}

  Token next() {
    skip_space_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= s_.size()) return t;
    const char c = s_[pos_];
    if (c == '"') {
      ++pos_;
      t.kind = Token::String;
      while (pos_ < s_.size() && s_[pos_] != '"') {
        if (s_[pos_] == '\\' && pos_ + 1 < s_.size() &&
            s_[pos_ + 1] == '\n') {
          pos_ += 2;  // Liberty line continuation inside strings
          ++line_;
          continue;
        }
        if (s_[pos_] == '\n') ++line_;
        t.text += s_[pos_++];
      }
      M3D_CHECK_MSG(pos_ < s_.size(), "unterminated string at line "
                                          << t.line);
      ++pos_;
      return t;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      t.kind = Token::Ident;
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '_' || s_[pos_] == '.'))
        t.text += s_[pos_++];
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+' || c == '.') {
      t.kind = Token::Number;
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '.' || s_[pos_] == '-' || s_[pos_] == '+'))
        t.text += s_[pos_++];
      return t;
    }
    t.kind = Token::Punct;
    t.text = std::string(1, c);
    ++pos_;
    return t;
  }

 private:
  void skip_space_and_comments() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) || c == '\\') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < s_.size() &&
               !(s_[pos_] == '*' && s_[pos_ + 1] == '/')) {
          if (s_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Generic parsed group: `type (args) { attrs... children... }`.
struct Group {
  std::string type;
  std::vector<std::string> args;
  // attribute name -> flat value list (simple attrs have one entry;
  // complex attrs like values(...) keep each parenthesized arg).
  std::vector<std::pair<std::string, std::vector<std::string>>> attrs;
  std::vector<Group> children;

  const std::vector<std::string>* find(const std::string& name) const {
    for (const auto& [k, v] : attrs)
      if (k == name) return &v;
    return nullptr;
  }
  std::string attr(const std::string& name, const std::string& dflt = "") const {
    const auto* v = find(name);
    return v != nullptr && !v->empty() ? (*v)[0] : dflt;
  }
  double num(const std::string& name, double dflt = 0.0) const {
    const auto* v = find(name);
    return v != nullptr && !v->empty() ? to_number((*v)[0], name) : dflt;
  }
  /// A whole-number attribute in [1, INT_MAX] (a drive, a track or layer
  /// count); anything else is a util::Error naming this group and the
  /// value, never an out-of-range cast.
  int positive_int(const std::string& name, int dflt) const {
    const auto* v = find(name);
    if (v == nullptr || v->empty()) return dflt;
    const std::string& text = (*v)[0];
    const double x = to_number(text, name);
    constexpr int kMax = std::numeric_limits<int>::max();
    M3D_CHECK_MSG(x >= 1.0 && x <= kMax && x == std::floor(x),
                  type << " " << (args.empty() ? "" : args[0]) << ": "
                       << name << " '" << text
                       << "' is not a whole number in [1, " << kMax << "]");
    return static_cast<int>(x);
  }
};

class Parser {
 public:
  explicit Parser(const std::string& s) : lex_(s) { advance(); }

  Group parse_top() {
    // Find the `library (...) { ... }` group.
    while (cur_.kind != Token::End) {
      if (cur_.kind == Token::Ident && cur_.text == "library")
        return parse_group();
      advance();
    }
    M3D_CHECK_MSG(false, "no library group found");
    return {};
  }

 private:
  void advance() { cur_ = lex_.next(); }

  void expect_punct(const char* p) {
    M3D_CHECK_MSG(cur_.kind == Token::Punct && cur_.text == p,
                  "expected '" << p << "' at line " << cur_.line << ", got '"
                               << cur_.text << "'");
    advance();
  }

  std::vector<std::string> parse_paren_args() {
    expect_punct("(");
    std::vector<std::string> args;
    while (!(cur_.kind == Token::Punct && cur_.text == ")")) {
      M3D_CHECK_MSG(cur_.kind != Token::End, "unterminated argument list");
      if (cur_.kind == Token::Punct && cur_.text == ",") {
        advance();
        continue;
      }
      args.push_back(cur_.text);
      advance();
    }
    advance();  // ')'
    return args;
  }

  Group parse_group() {
    Group g;
    g.type = cur_.text;
    advance();
    g.args = parse_paren_args();
    expect_punct("{");
    parse_body(g);
    return g;
  }

  // Parse the body of a group whose '{' is already consumed.
  void parse_body(Group& g) {
    while (!(cur_.kind == Token::Punct && cur_.text == "}")) {
      M3D_CHECK_MSG(cur_.kind != Token::End,
                    "unterminated group '" << g.type << "'");
      M3D_CHECK_MSG(cur_.kind == Token::Ident,
                    "expected identifier at line " << cur_.line);
      const std::string name = cur_.text;
      advance();
      if (cur_.kind == Token::Punct && cur_.text == ":") {
        advance();
        std::vector<std::string> vals{cur_.text};
        advance();
        if (cur_.kind == Token::Punct && cur_.text == ";") advance();
        g.attrs.emplace_back(name, std::move(vals));
      } else if (cur_.kind == Token::Punct && cur_.text == "(") {
        auto args = parse_paren_args();
        if (cur_.kind == Token::Punct && cur_.text == "{") {
          Group child;
          child.type = name;
          child.args = std::move(args);
          advance();
          parse_body(child);
          g.children.push_back(std::move(child));
        } else {
          if (cur_.kind == Token::Punct && cur_.text == ";") advance();
          g.attrs.emplace_back(name, std::move(args));
        }
      } else {
        M3D_CHECK_MSG(false, "unexpected token after '" << name
                                                        << "' at line "
                                                        << cur_.line);
      }
    }
    advance();  // '}'
  }

  Lexer lex_;
  Token cur_;
};

std::vector<double> parse_number_list(const std::vector<std::string>& args) {
  std::vector<double> out;
  for (const auto& a : args) {
    std::stringstream ss(a);
    std::string item;
    while (std::getline(ss, item, ',')) {
      // trim
      std::size_t b = item.find_first_not_of(" \t\n\\");
      std::size_t e = item.find_last_not_of(" \t\n\\");
      if (b == std::string::npos) continue;
      out.push_back(to_number(item.substr(b, e - b + 1), "a number list"));
    }
  }
  return out;
}

NldmTable parse_table(const Group& g) {
  const auto* i1 = g.find("index_1");
  const auto* i2 = g.find("index_2");
  const auto* vals = g.find("values");
  M3D_CHECK_MSG(i1 && i2 && vals, "NLDM table missing index/values");
  return NldmTable(parse_number_list(*i1), parse_number_list(*i2),
                   parse_number_list(*vals));
}

CellFunc func_from_name(const std::string& s) {
  for (int f = 0; f < kCellFuncCount; ++f)
    if (s == func_name(static_cast<CellFunc>(f)))
      return static_cast<CellFunc>(f);
  M3D_CHECK_MSG(false, "unknown m3d_function '" << s << "'");
  return CellFunc::Inv;
}

}  // namespace

TechLib parse_liberty(const std::string& text) {
  Parser p(text);
  const Group top = p.parse_top();
  M3D_CHECK_MSG(!top.args.empty(), "library group has no name");

  TechLib lib(top.args[0], top.positive_int("m3d_tracks", 12),
              top.num("nom_voltage", 0.9), top.num("m3d_vthp", 0.32),
              top.num("m3d_row_height", 1.2));
  WireModel wire;
  wire.res_kohm_per_um = top.num("m3d_wire_res", wire.res_kohm_per_um);
  wire.cap_ff_per_um = top.num("m3d_wire_cap", wire.cap_ff_per_um);
  wire.signal_layers =
      top.positive_int("m3d_wire_layers", wire.signal_layers);
  lib.set_wire(wire);
  MivModel miv;
  miv.res_kohm = top.num("m3d_miv_res", miv.res_kohm);
  miv.cap_ff = top.num("m3d_miv_cap", miv.cap_ff);
  miv.pitch_um = top.num("m3d_miv_pitch", miv.pitch_um);
  lib.set_miv(miv);

  for (const Group& cell : top.children) {
    if (cell.type != "cell") continue;
    M3D_CHECK(!cell.args.empty());

    if (cell.attr("m3d_is_macro") == "true") {
      MacroCell m;
      m.name = cell.args[0];
      m.width_um = cell.num("m3d_width");
      m.height_um = cell.num("m3d_height");
      m.pin_cap_ff = cell.num("m3d_pin_cap");
      m.access_ns = cell.num("m3d_access");
      m.setup_ns = cell.num("m3d_setup");
      m.out_slew_ns = cell.num("m3d_out_slew");
      m.drive_res_kohm = cell.num("m3d_drive_res");
      m.leakage_uw = cell.num("cell_leakage_power");
      m.internal_energy_fj = cell.num("m3d_internal_energy");
      lib.add_macro(std::move(m));
      continue;
    }

    LibCell c;
    c.name = cell.args[0];
    c.func = func_from_name(cell.attr("m3d_function", "INV"));
    c.drive = cell.positive_int("m3d_drive", 1);
    c.width_um = cell.num("m3d_width");
    c.leakage_uw = cell.num("cell_leakage_power");
    c.internal_energy_fj = cell.num("m3d_internal_energy");
    c.setup_ns = cell.num("m3d_setup");
    c.hold_ns = cell.num("m3d_hold");
    c.clock_cap_ff = cell.num("m3d_clock_cap");

    // Pins: input capacitance from the first input pin; timing arcs from
    // the output pin's timing groups.
    c.arcs.resize(static_cast<std::size_t>(c.input_count()));
    for (const Group& pin : cell.children) {
      if (pin.type != "pin") continue;
      if (pin.attr("direction") == "input") {
        c.input_cap_ff = pin.num("capacitance", c.input_cap_ff);
        continue;
      }
      for (const Group& timing : pin.children) {
        if (timing.type != "timing") continue;
        const std::string related = timing.attr("related_pin", "A0");
        M3D_CHECK_MSG(related.size() >= 2 && related[0] == 'A',
                      "unexpected related_pin '" << related << "'");
        const double input = to_number(related.substr(1), "related_pin");
        M3D_CHECK_MSG(input >= 0 && input < c.input_count() &&
                          input == std::floor(input),
                      "related_pin '" << related << "' names no input of "
                                      << c.name);
        const int idx = static_cast<int>(input);
        TimingArc& arc = c.arcs[static_cast<std::size_t>(idx)];
        arc.input_index = idx;
        arc.inverting = timing.attr("timing_sense") != "positive_unate";
        for (const Group& tbl : timing.children) {
          if (tbl.type == "cell_rise")
            arc.delay[static_cast<int>(Transition::Rise)] = parse_table(tbl);
          else if (tbl.type == "cell_fall")
            arc.delay[static_cast<int>(Transition::Fall)] = parse_table(tbl);
          else if (tbl.type == "rise_transition")
            arc.out_slew[static_cast<int>(Transition::Rise)] =
                parse_table(tbl);
          else if (tbl.type == "fall_transition")
            arc.out_slew[static_cast<int>(Transition::Fall)] =
                parse_table(tbl);
        }
      }
    }
    lib.add_cell(std::move(c));
  }
  return lib;
}

}  // namespace m3d::tech
