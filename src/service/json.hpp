#pragma once
/// \file json.hpp
/// \brief Minimal JSON value for the m3dd line protocol.
///
/// The service protocol is one JSON object per line in each direction
/// (see protocol.hpp), so the parser/printer here is deliberately small:
/// objects, arrays, strings (with escapes), doubles, bools, null. Objects
/// keep their keys in sorted order (std::map), which makes dump() output
/// deterministic — responses and journal lines are byte-stable, and tests
/// can compare them with string equality.
///
/// Numbers are stored as double. Protocol counters fit comfortably below
/// 2^53; 64-bit hashes travel as hex *strings* (see protocol.hpp), never
/// as numbers.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace m3d::service {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Object, Array };

  Json() = default;
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double v) : type_(Type::Number), num_(v) {}
  Json(int v) : type_(Type::Number), num_(v) {}
  Json(std::int64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}

  static Json object() { Json j; j.type_ = Type::Object; return j; }
  static Json array() { Json j; j.type_ = Type::Array; return j; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_array() const { return type_ == Type::Array; }

  bool as_bool() const { return bool_; }
  double as_num() const { return num_; }
  const std::string& as_str() const { return str_; }
  const std::vector<Json>& items() const { return arr_; }
  const std::map<std::string, Json>& fields() const { return obj_; }

  /// Object field access for building; converts a Null value to Object.
  Json& operator[](const std::string& key);

  /// Object field lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  // Typed lookups with defaults — the protocol's tolerant-reader posture:
  // a wrong-typed or missing field yields the default, never a throw.
  double num_or(const std::string& key, double def) const;
  bool bool_or(const std::string& key, bool def) const;
  std::string str_or(const std::string& key, const std::string& def) const;

  /// The one reader of integer fields. A missing field leaves *out (the
  /// caller's default) as it is. A number holding a whole value in
  /// [lo, hi] is stored there; anything else (a fraction, a value out of
  /// range, a non-number) stores nothing and returns false with a message
  /// naming the field in *err. The value is checked before it is
  /// narrowed, so no conversion can wrap. T is int or std::uint64_t, and
  /// lo and hi must lie within ±2^53.
  template <typename T>
  bool int_field(const std::string& key, T lo, T hi, T* out,
                 std::string* err) const;

  void push(Json v) { type_ = Type::Array; arr_.push_back(std::move(v)); }

  /// Serialize on one line (no newline); `indent >= 0` pretty-prints with
  /// that starting depth (two spaces per level) for artifact files.
  std::string dump(int indent = -1) const;

  /// Parse exactly one JSON value (trailing whitespace allowed). Returns
  /// false with a short message in *err on malformed input.
  static bool parse(std::string_view text, Json* out, std::string* err);

 private:
  void dump_to(std::string& out, int indent) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

}  // namespace m3d::service
