#include "service/protocol.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "exec/flow_cache.hpp"
#include "gen/designs.hpp"

namespace m3d::service {

namespace {

struct ConfigToken {
  core::Config cfg;
  const char* token;
};

constexpr ConfigToken kConfigs[] = {
    {core::Config::TwoD9T, "2d9t"},     {core::Config::TwoD12T, "2d12t"},
    {core::Config::ThreeD9T, "3d9t"},   {core::Config::ThreeD12T, "3d12t"},
    {core::Config::Hetero3D, "hetero3d"},
};

std::string lower_alnum(std::string_view s) {
  std::string out;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) out += static_cast<char>(std::tolower(u));
  }
  return out;
}

std::string num_token(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

const char* config_token(core::Config c) {
  for (const auto& t : kConfigs)
    if (t.cfg == c) return t.token;
  return "hetero3d";
}

bool parse_config(std::string_view s, core::Config* out) {
  // "Hetero-3D" and "hetero3d" both normalize to "hetero3d"; the paper
  // labels ("2D-12T") likewise collapse onto the tokens.
  const std::string norm = lower_alnum(s);
  for (const auto& t : kConfigs) {
    if (norm == t.token || norm == lower_alnum(core::config_name(t.cfg))) {
      *out = t.cfg;
      return true;
    }
  }
  return false;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  j["design"] = Json(design);
  j["scale"] = Json(scale);
  j["seed"] = Json(seed);
  j["config"] = Json(std::string(config_token(config)));
  j["period_ns"] = Json(period_ns);
  j["max_sizing_rounds"] = Json(max_sizing_rounds);
  j["eco_iters"] = Json(eco_iters);
  return j;
}

bool JobSpec::from_json(const Json& j, JobSpec* out, std::string* err) {
  JobSpec s;
  s.design = j.str_or("design", s.design);
  if (s.design != "aes" && s.design != "ldpc" && s.design != "netcard" &&
      s.design != "cpu") {
    if (err) *err = "unknown design '" + s.design + "'";
    return false;
  }
  if (!parse_config(j.str_or("config", config_token(s.config)), &s.config)) {
    if (err) *err = "unknown config '" + j.str_or("config", "") + "'";
    return false;
  }
  s.scale = j.num_or("scale", s.scale);
  s.period_ns = j.num_or("period_ns", s.period_ns);
  if (!(s.scale > 0.0) || s.scale > 4.0) {
    if (err) *err = "scale out of range (0, 4]";
    return false;
  }
  if (!(s.period_ns > 0.0) || s.period_ns > 100.0) {
    if (err) *err = "period_ns out of range (0, 100]";
    return false;
  }
  if (!j.int_field("seed", 0, std::numeric_limits<int>::max(), &s.seed,
                   err) ||
      !j.int_field("max_sizing_rounds", 0, 16, &s.max_sizing_rounds, err) ||
      !j.int_field("eco_iters", 0, 64, &s.eco_iters, err))
    return false;
  *out = s;
  return true;
}

std::string JobSpec::label() const {
  return design + "@" + num_token(scale) + "#" + std::to_string(seed) + "/" +
         config_token(config) + "@" + num_token(period_ns) + "r" +
         std::to_string(max_sizing_rounds) + "e" + std::to_string(eco_iters);
}

core::FlowOptions JobSpec::flow_options() const {
  core::FlowOptions opt;
  opt.clock_period_ns = period_ns;
  opt.max_sizing_rounds = max_sizing_rounds;
  opt.eco_iters = eco_iters;
  return opt;
}

netlist::Netlist JobSpec::make_netlist() const {
  gen::GenOptions g;
  g.scale = scale;
  g.seed = static_cast<unsigned>(seed);
  return gen::make_design(design, g);
}

std::string result_digest(const core::FlowResult& res) {
  // Equal digest + equal spec means a byte-identical design state.
  const netlist::Design& d = res.design;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "-%016" PRIx64,
                exec::FlowCache::fingerprint(d.nl()),
                netlist::state_digest(d));
  return buf;
}

Json error_response(const std::string& code, int retry_after_ms) {
  Json j = Json::object();
  j["ok"] = Json(false);
  j["error"] = Json(code);
  if (retry_after_ms > 0) j["retry_after_ms"] = Json(retry_after_ms);
  return j;
}

Json ok_response() {
  Json j = Json::object();
  j["ok"] = Json(true);
  return j;
}

}  // namespace m3d::service
