#include "core/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "exec/flow_cache.hpp"
#include "io/flow_state.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace m3d::flow {

namespace {

const char* const kStageNames[kStageCount] = {
    "synth",       "place",     "partition",
    "post_place_opt", "cts",    "post_cts_opt",
    "repart_eco",  "rebalance", "repart_fixup",
};

/// Total order over boundaries: later stages beat earlier ones, and a
/// stage-completion boundary (iter 0) beats every iteration boundary of
/// the same stage. Iterations are bounded far below 999 (max_iters ~12).
int order_value(int stage, int iter) {
  return stage * 1000 + (iter == 0 ? 999 : std::min(iter, 998));
}

void write_eco_state(io::BinWriter& w, const part::EcoIterState& st) {
  io::write_repart_result(w, st.partial);
  w.f64(st.d_k);
  w.f64(st.wns);
  w.f64(st.tns);
  w.f64(st.initial_unbalance);
  w.u64(st.sta_fingerprint);
}

void read_eco_state(io::BinReader& r, part::EcoIterState& st) {
  io::read_repart_result(r, st.partial);
  st.d_k = r.f64();
  st.wns = r.f64();
  st.tns = r.f64();
  st.initial_unbalance = r.f64();
  st.sta_fingerprint = r.u64();
}

// In-process kill point armed by fault_arm(). Encoded as
// order-value + 1 in one atomic (0 = disarmed) so arm/fire is a single
// exchange even if a stage boundary and a test race.
std::atomic<int> g_armed_fault{0};

// Cooperative interrupt flag (request_interrupt / Interrupted). Relaxed
// is enough: the flag is a latch consulted at checkpoint boundaries, not
// a synchronization edge.
std::atomic<bool> g_interrupt{false};

extern "C" void m3d_interrupt_signal_handler(int sig) {
  // Async-signal-safe: one relaxed store, then re-arm the default
  // disposition so a second signal kills a flow that never reaches a
  // boundary.
  g_interrupt.store(true, std::memory_order_relaxed);
  std::signal(sig, SIG_DFL);
}

}  // namespace

const char* stage_name(Stage s) {
  const int i = static_cast<int>(s);
  M3D_CHECK(i >= 0 && i < kStageCount);
  return kStageNames[i];
}

bool parse_stage(std::string_view name, Stage* out) {
  for (int i = 0; i < kStageCount; ++i) {
    if (name == kStageNames[i]) {
      *out = static_cast<Stage>(i);
      return true;
    }
  }
  return false;
}

bool parse_fault_spec(std::string_view spec, Stage* stage, int* iter) {
  *iter = 0;
  const std::size_t colon = spec.find(':');
  if (colon != std::string_view::npos) {
    const std::string_view it = spec.substr(colon + 1);
    if (it.empty()) return false;
    int v = 0;
    for (char c : it) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + (c - '0');
      if (v > 998) return false;
    }
    if (v < 1) return false;
    *iter = v;
    spec = spec.substr(0, colon);
  }
  return parse_stage(spec, stage);
}

FaultInjected::FaultInjected(Stage s, int it)
    : std::runtime_error(std::string("fault injected at ") + stage_name(s) +
                         (it > 0 ? ":" + std::to_string(it) : std::string())),
      stage(s),
      iter(it) {}

void fault_arm(Stage stage, int iter) {
  g_armed_fault.store(order_value(static_cast<int>(stage), iter) + 1);
}

void fault_disarm() { g_armed_fault.store(0); }

Interrupted::Interrupted(Stage s, int it)
    : std::runtime_error(std::string("interrupted at ") + stage_name(s) +
                         (it > 0 ? ":" + std::to_string(it) : std::string()) +
                         " (checkpoint flushed)"),
      stage(s),
      iter(it) {}

void request_interrupt() { g_interrupt.store(true, std::memory_order_relaxed); }
void clear_interrupt() { g_interrupt.store(false, std::memory_order_relaxed); }
bool interrupt_requested() {
  return g_interrupt.load(std::memory_order_relaxed);
}

void install_interrupt_handlers() {
  std::signal(SIGINT, m3d_interrupt_signal_handler);
  std::signal(SIGTERM, m3d_interrupt_signal_handler);
}

std::string Checkpoint::default_dir() {
  if (const char* s = std::getenv("M3D_CHECKPOINT_DIR"))
    if (*s != '\0') return s;
  return {};
}

Checkpoint::Checkpoint(std::string dir, const netlist::Netlist& nl,
                       core::Config cfg, const core::FlowOptions& opt)
    : dir_(std::move(dir)), cfg_(cfg), nl_name_(nl.name()) {
  if (active()) {
    netlist_fp_ = exec::FlowCache::fingerprint(nl);
    opt_hash_ = exec::FlowCache::options_hash(opt);
    opt_ = opt;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx-c%d-%016llx-",
                  static_cast<unsigned long long>(netlist_fp_),
                  static_cast<int>(cfg_),
                  static_cast<unsigned long long>(opt_hash_));
    prefix_ = buf;
  }
  if (const char* s = std::getenv("M3D_FAULT_AT")) {
    if (*s != '\0') {
      if (parse_fault_spec(s, &env_fault_stage_, &env_fault_iter_)) {
        env_fault_armed_ = true;
      } else {
        util::log_warn("M3D_FAULT_AT: malformed spec '", s,
                       "' (want <stage>[:<iter>]), ignoring");
      }
    }
  }
}

std::string Checkpoint::file_for(int stage, int iter) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "s%02d-i%03d.m3dckpt", stage, iter);
  return dir_ + "/" + prefix_ + buf;
}

void Checkpoint::maybe_inject_fault(Stage s, int iter) const {
  const int ov = order_value(static_cast<int>(s), iter) + 1;
  int expected = ov;
  if (g_armed_fault.compare_exchange_strong(expected, 0))
    throw FaultInjected(s, iter);
  if (env_fault_armed_ && env_fault_stage_ == s && env_fault_iter_ == iter) {
    util::log_info("M3D_FAULT_AT: killing the process at ", stage_name(s),
                   iter > 0 ? ":" + std::to_string(iter) : std::string());
    std::_Exit(kFaultExitCode);  // a crash: no cleanup, no atexit hooks
  }
}

void Checkpoint::write_boundary(Stage s, int iter, const core::FlowResult& res,
                                const part::EcoIterState* eco) {
  if (!active()) return;
  util::TraceSpan span("checkpoint_write",
                       std::string(stage_name(s)) +
                           (iter > 0 ? ":" + std::to_string(iter)
                                     : std::string()));
  std::string payload;
  io::BinWriter w{payload};
  io::write_snapshot(w, res);
  w.f64(eco ? eco->wns : res.opt.wns_after);
  w.f64(eco ? eco->tns : res.repart.tns_after);
  w.u8(eco ? 1 : 0);
  if (eco) write_eco_state(w, *eco);
  const io::StateKey key{netlist_fp_, static_cast<int>(cfg_), opt_hash_,
                         static_cast<int>(s), iter};
  if (io::write_state_file(file_for(key.stage, iter), key, payload))
    util::trace_counter("checkpoint_bytes",
                        static_cast<double>(payload.size()));
}

void Checkpoint::save(Stage s, const core::FlowResult& res) {
  write_boundary(s, 0, res, nullptr);
  maybe_inject_fault(s, 0);
  maybe_interrupt(s, 0);
}

void Checkpoint::save_iter(Stage s, const core::FlowResult& res,
                           const part::EcoIterState& st) {
  M3D_CHECK(s == Stage::RepartEco || s == Stage::RepartFixup);
  write_boundary(s, st.partial.iterations, res, &st);
  maybe_inject_fault(s, st.partial.iterations);
  maybe_interrupt(s, st.partial.iterations);
}

void Checkpoint::maybe_interrupt(Stage s, int iter) const {
  // Only resumable runs stop: the boundary file just landed via atomic
  // rename, so unwinding here loses nothing. The flag stays set — every
  // other in-flight flow in the process (m3dd drains many at once) stops
  // at its own next boundary; the entry point clears it when done.
  if (!active() || !interrupt_requested()) return;
  util::log_info("checkpoint: interrupt at ", stage_name(s),
                 iter > 0 ? ":" + std::to_string(iter) : std::string(),
                 ", flow state flushed");
  throw Interrupted(s, iter);
}

void Checkpoint::load_file(const Candidate& c, core::FlowResult& res) {
  const io::StateKey key{netlist_fp_, static_cast<int>(cfg_), opt_hash_,
                         c.stage, c.iter};
  const std::optional<std::string> payload = io::read_state_file(c.path, key);
  M3D_CHECK_MSG(payload, c.path << ": cannot open");
  io::BinReader r{*payload};
  core::FlowResult loaded = io::read_snapshot(r, cfg_, opt_);
  const double wns_at = r.f64();
  const double tns_at = r.f64();
  const bool has_eco = r.u8() != 0;
  part::EcoIterState eco;
  if (has_eco) read_eco_state(r, eco);
  r.expect_end();
  // Nothing is restored until the whole file decoded.
  res = std::move(loaded);
  eco_state_valid_ = has_eco;
  eco_state_ = eco;
  util::trace_counter("checkpoint_resume_wns_ns", wns_at);
  util::trace_counter("checkpoint_resume_tns_ns", tns_at);
}

std::vector<Checkpoint::Candidate> Checkpoint::scan() const {
  // The filename prefix carries the full run key, so concurrent runs of
  // different flows share a directory without seeing each other's files.
  std::vector<Candidate> cands;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(prefix_, 0) != 0) continue;
    const char* rest = name.c_str() + prefix_.size();
    int stage = -1, iter = -1, used = 0;
    if (std::sscanf(rest, "s%d-i%d.m3dckpt%n", &stage, &iter, &used) != 2 ||
        rest[used] != '\0')
      continue;  // not a boundary file (e.g. a publisher's temporary)
    if (stage < 0 || stage >= kStageCount || iter < 0) continue;
    cands.push_back({it->path().string(), stage, iter});
  }
  std::sort(cands.begin(), cands.end(), [](const Candidate& a,
                                           const Candidate& b) {
    return order_value(a.stage, a.iter) > order_value(b.stage, b.iter);
  });
  return cands;
}

bool Checkpoint::resume(core::FlowResult& res) {
  if (!active()) return false;
  util::TraceSpan span("checkpoint_resume", nl_name_);
  for (const Candidate& c : scan()) {
    try {
      load_file(c, res);
    } catch (const util::Error& e) {
      util::log_warn("checkpoint: discarding invalid boundary (", e.what(),
                     "), falling back to the previous checkpoint");
      continue;
    }
    resume_stage_ = c.stage;
    resume_iter_ = c.iter;
    util::log_info("checkpoint: resuming ", config_name(cfg_), " on ",
                   nl_name_, " from ", stage_name(static_cast<Stage>(c.stage)),
                   c.iter > 0 ? ":" + std::to_string(c.iter) : std::string());
    return true;
  }
  return false;
}

bool Checkpoint::done(Stage s) const {
  return order_value(resume_stage_, resume_iter_) >=
         order_value(static_cast<int>(s), 0);
}

const part::EcoIterState* Checkpoint::eco_resume(Stage s) const {
  if (resume_stage_ == static_cast<int>(s) && resume_iter_ >= 1 &&
      eco_state_valid_)
    return &eco_state_;
  return nullptr;
}

void Checkpoint::finish() {
  if (!active()) return;
  if (const char* s = std::getenv("M3D_CHECKPOINT_KEEP"))
    if (*s != '\0') return;
  std::error_code ec;
  for (const Candidate& c : scan()) std::filesystem::remove(c.path, ec);
}

}  // namespace m3d::flow
