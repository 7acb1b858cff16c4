#include "service/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace m3d::service {

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  return obj_[key];
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

double Json::num_or(const std::string& key, double def) const {
  const Json* v = find(key);
  return v && v->type_ == Type::Number ? v->num_ : def;
}

template <typename T>
bool Json::int_field(const std::string& key, T lo, T hi, T* out,
                     std::string* err) const {
  const Json* v = find(key);
  if (!v) return true;
  const double x = v->num_;
  if (v->type_ != Type::Number || x != std::floor(x) ||
      x < static_cast<double>(lo) || x > static_cast<double>(hi)) {
    if (err)
      *err = key + ": expected a whole number in [" + std::to_string(lo) +
             ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<T>(x);
  return true;
}

template bool Json::int_field<int>(const std::string&, int, int, int*,
                                   std::string*) const;
template bool Json::int_field<std::uint64_t>(const std::string&,
                                             std::uint64_t, std::uint64_t,
                                             std::uint64_t*,
                                             std::string*) const;

bool Json::bool_or(const std::string& key, bool def) const {
  const Json* v = find(key);
  return v && v->type_ == Type::Bool ? v->bool_ : def;
}

std::string Json::str_or(const std::string& key,
                         const std::string& def) const {
  const Json* v = find(key);
  return v && v->type_ == Type::String ? v->str_ : def;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; degrade to null
    out += "null";
    return;
  }
  // Round-trippable and readable: integers print without a decimal point.
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void append_indent(std::string& out, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent) const {
  const bool pretty = indent >= 0;
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: append_number(out, num_); break;
    case Type::String: append_escaped(out, str_); break;
    case Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out += pretty ? ", " : ",";
        first = false;
        v.dump_to(out, indent);
      }
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        if (pretty) append_indent(out, indent + 1);
        append_escaped(out, k);
        out += pretty ? ": " : ":";
        v.dump_to(out, pretty ? indent + 1 : -1);
      }
      if (pretty && !obj_.empty()) append_indent(out, indent);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  // Any non-negative indent selects pretty printing (2-space steps);
  // dump_to's int is the current depth, which starts at 0.
  dump_to(out, indent >= 0 ? 0 : -1);
  return out;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& msg) {
    err = msg + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value(Json* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Json(std::move(s));
      return true;
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(Json* out) {
    auto match = [&](std::string_view kw) {
      if (text.substr(pos, kw.size()) != kw) return false;
      pos += kw.size();
      return true;
    };
    if (match("true")) { *out = Json(true); return true; }
    if (match("false")) { *out = Json(false); return true; }
    if (match("null")) { *out = Json(); return true; }
    return fail("invalid literal");
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool digits = false;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      digits |= std::isdigit(static_cast<unsigned char>(text[pos])) != 0;
      ++pos;
    }
    if (!digits) return fail("invalid number");
    const std::string tok(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) return fail("invalid number");
    *out = Json(v);
    return true;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (!eat('"')) return fail("expected string");
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos >= text.size()) break;
      const char e = text[pos++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("bad \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are outside
          // what the protocol ever emits; encode them as-is).
          if (v < 0x80) {
            *out += static_cast<char>(v);
          } else if (v < 0x800) {
            *out += static_cast<char>(0xC0 | (v >> 6));
            *out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (v >> 12));
            *out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_object(Json* out) {
    if (!eat('{')) return fail("expected '{'");
    *out = Json::object();
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      std::string key;
      if (!parse_string(&key)) return false;
      if (!eat(':')) return fail("expected ':'");
      Json value;
      if (!parse_value(&value)) return false;
      (*out)[key] = std::move(value);
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Json* out) {
    if (!eat('[')) return fail("expected '['");
    *out = Json::array();
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      Json value;
      if (!parse_value(&value)) return false;
      out->push(std::move(value));
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool Json::parse(std::string_view text, Json* out, std::string* err) {
  Parser p{text};
  if (!p.parse_value(out)) {
    if (err) *err = p.err;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err) *err = "trailing characters at offset " + std::to_string(p.pos);
    return false;
  }
  return true;
}

}  // namespace m3d::service
