#pragma once
/// \file protocol.hpp
/// \brief The m3dd wire protocol: job specs, verbs, and result digests.
///
/// Transport: a byte stream (Unix-domain or TCP socket) carrying one JSON
/// object per '\n'-terminated line in each direction; every request gets
/// exactly one response line. Verbs (the "cmd" field):
///
///   submit    {"cmd":"submit", ...JobSpec fields...}
///             → {"ok":true,"id":"j-7","state":"queued"}
///             → {"ok":false,"error":"queue_full","retry_after_ms":250}
///             → {"ok":false,"error":"client_limit","retry_after_ms":100}
///   status    {"cmd":"status","id":"j-7"}
///             → {"ok":true,"id":"j-7","state":"running",...}
///   result    {"cmd":"result","id":"j-7","timeout_ms":60000}
///             blocks until the job is terminal (or timeout/drain), then
///             → {"ok":true,"state":"done","digest":"...","metrics_csv":..}
///   cancel    {"cmd":"cancel","id":"j-7"} — queued jobs only
///   stats     {"cmd":"stats"} → queue/cache/pool/uptime counters
///   shutdown  {"cmd":"shutdown"} → {"ok":true}; the daemon then drains
///   ping      {"cmd":"ping"} → {"ok":true}
///
/// A JobSpec names a flow the same way the benches do: a generated
/// evaluation netlist (design/scale/seed), a Fig.-1 configuration, and
/// the handful of flow knobs the examples expose. Flows are deterministic
/// functions of exactly that tuple, so the daemon's answer for a spec is
/// byte-identical to a local run_flow of it — `result_digest` is the
/// checkable witness (the CI smoke job compares daemon digests against
/// `m3dctl direct`).
///
/// 64-bit hashes travel as fixed-width hex strings (JSON numbers are
/// doubles); job ids are short strings ("j-<n>") stable across a daemon
/// restart (the journal persists the counter).

#include <string>
#include <string_view>

#include "core/flow.hpp"
#include "netlist/netlist.hpp"
#include "service/json.hpp"

namespace m3d::service {

/// Everything needed to (re)run one flow job. Field names double as the
/// JSON keys of the submit verb.
struct JobSpec {
  std::string design = "aes";  ///< gen::make_design name
  double scale = 0.05;         ///< generator width multiplier
  int seed = 7;                ///< generator seed
  core::Config config = core::Config::Hetero3D;
  double period_ns = 1.2;
  int max_sizing_rounds = 2;
  int eco_iters = 3;

  Json to_json() const;
  /// Validates design/config names and numeric ranges; on failure returns
  /// false with a client-presentable message in *err.
  static bool from_json(const Json& j, JobSpec* out, std::string* err);

  /// Stable human-readable identity, e.g. "aes@0.05#7/hetero3d@1.2" —
  /// the key of the bench digest table. Two specs with equal labels are
  /// field-identical.
  std::string label() const;

  core::FlowOptions flow_options() const;  ///< pool/checkpoint left unset
  netlist::Netlist make_netlist() const;   ///< deterministic generation
};

/// Lowercase config token ("2d9t", "hetero3d", ...) and its inverse.
/// parse_config also accepts the paper labels config_name() prints.
const char* config_token(core::Config c);
bool parse_config(std::string_view s, core::Config* out);

/// One-line digest of a flow result: netlist fingerprint plus
/// netlist::state_digest (every cell's tier / exact position bits / clock
/// latency), the state digest examples/checkpoint_restart prints. Equal
/// digests (for equal specs) mean byte-identical outcomes.
std::string result_digest(const core::FlowResult& res);

/// Canonical error response; retry_after_ms <= 0 omits the field.
Json error_response(const std::string& code, int retry_after_ms = 0);

/// Canonical success skeleton: {"ok":true}.
Json ok_response();

}  // namespace m3d::service
