#pragma once
/// \file checkpoint.hpp
/// \brief Stage-level flow checkpoint/restart and deterministic fault
///        injection for core::run_flow.
///
/// The RTL-to-"GDS" flow is a multi-stage computation (synth → place →
/// partition → post-place opt → CTS → post-CTS opt → repartition ECO);
/// on large designs the ECO loop alone runs for a long time, and a crash
/// anywhere used to throw the whole run away. The checkpoint layer writes
/// the complete flow state after every stage — and after every
/// repartition-ECO iteration — so an interrupted run restarts from the
/// last boundary instead of from scratch.
///
/// What a checkpoint holds: the io::flow_state snapshot of the flow so far
/// (netlist, design state, per-stage results, last ClockTreeReport), the
/// WNS/TNS at the boundary and, for ECO-iteration boundaries, the loop
/// state (part::EcoIterState) including an sta::timing_fingerprint of the
/// incremental engine.
///
/// Because every stage is a deterministic function of (design state,
/// options) — RNG streams are seeded from options, never carried across
/// stages — a resumed run is **byte-identical** to an uninterrupted run
/// at any worker-pool size. The property tests in tests/test_checkpoint.cpp
/// kill the flow at every boundary and assert exactly that.
///
/// Files & robustness:
///  * one file per boundary under the checkpoint directory
///    (M3D_CHECKPOINT_DIR or core::FlowOptions::checkpoint_dir), named
///    <netlist-fp>-c<cfg>-<opt-hash>-s<stage>-i<iter>.m3dckpt, in the
///    io::flow_state envelope (magic, version, run key + stage/iteration,
///    payload size and checksum) that the flow-cache disk tier uses too,
///    published atomically;
///  * resume picks the newest boundary whose file validates end to end
///    (envelope, netlist replay fingerprint, no unread payload bytes).
///    Anything invalid — corrupted, truncated, version-mismatched —
///    degrades to the next older checkpoint, and ultimately to a cold
///    start: a damaged checkpoint can cost time, never correctness
///    (the same policy as the flow cache);
///  * after a successful flow, the run's checkpoints are deleted unless
///    M3D_CHECKPOINT_KEEP is set (the finished result belongs to the
///    flow cache, not the checkpoint directory).
///
/// Fault injection: M3D_FAULT_AT=<stage>[:<iter>] kills the process
/// (std::_Exit(kFaultExitCode), no cleanup — a real crash) right after
/// the matching boundary's checkpoint write. In-process tests instead arm
/// the same kill point with fault_arm(), which throws FaultInjected once.
/// Kill points fire at every boundary even when checkpointing is
/// disabled, so "the flow dies here" is testable on its own.
///
/// Tracing: every write emits a `checkpoint_write` span (stage:iter
/// detail) and a `checkpoint_bytes` counter; a successful resume emits a
/// `checkpoint_resume` span plus `checkpoint_resume_wns_ns` /
/// `checkpoint_resume_tns_ns` counters so traces show the timing state a
/// run re-entered with.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow.hpp"
#include "part/repartition.hpp"

/// The checkpoint/fault layer sits *beside* core::run_flow (which calls
/// into it at every boundary) rather than inside the core namespace: it
/// orchestrates flows, it is not part of computing one.
namespace m3d::flow {

/// Checkpoint boundaries of core::run_flow, in execution order. Stages a
/// configuration never runs (e.g. RepartEco for 2-D flows) are simply
/// never written.
enum class Stage : int {
  Synth = 0,
  Place,
  Partition,     ///< tier cut (3-D) + legalization (all configs)
  PostPlaceOpt,
  Cts,
  PostCtsOpt,
  RepartEco,     ///< Algorithm-1 ECO loop (per-iteration boundaries)
  Rebalance,     ///< slack-rich bottom→top migration + rescale
  RepartFixup,   ///< final ECO pass at settled positions (per-iteration)
};
inline constexpr int kStageCount = static_cast<int>(Stage::RepartFixup) + 1;

/// Stable lowercase name, e.g. "post_place_opt", "repart_eco".
const char* stage_name(Stage s);

/// Inverse of stage_name; false when `name` matches no stage.
bool parse_stage(std::string_view name, Stage* out);

/// Parse a fault spec "<stage>[:<iter>]" (iter >= 1 names an ECO
/// iteration boundary; absent means the stage-completion boundary).
/// Returns false on malformed input.
bool parse_fault_spec(std::string_view spec, Stage* stage, int* iter);

/// Exit code of an environment-armed (M3D_FAULT_AT) kill point.
inline constexpr int kFaultExitCode = 86;

/// Thrown by a kill point armed in-process via fault_arm().
struct FaultInjected : std::runtime_error {
  FaultInjected(Stage s, int it);
  Stage stage;
  int iter;
};

/// Arm the in-process kill point at (stage, iter): the next matching
/// boundary throws FaultInjected and disarms. iter 0 = stage completion,
/// iter k >= 1 = after ECO iteration k. Process-global; tests arm before
/// calling run_flow on the same design.
void fault_arm(Stage stage, int iter = 0);
void fault_disarm();

/// Thrown out of run_flow by the *next* checkpoint boundary after an
/// interrupt was requested — the boundary's checkpoint file is already
/// written and flushed when this propagates, so the run is resumable
/// exactly from where it stopped. Only active checkpoint sessions throw:
/// with checkpointing disabled there is nothing to resume from, so an
/// interrupted flow simply runs to completion.
struct Interrupted : std::runtime_error {
  Interrupted(Stage s, int it);
  Stage stage;
  int iter;
};

/// Request cooperative interruption of every in-flight run_flow in the
/// process (see Interrupted above). Async-signal-safe: a lone relaxed
/// atomic store, callable straight from a SIGINT/SIGTERM handler. This is
/// how long-running entry points (examples/checkpoint_restart, the m3dd
/// drain path) stop mid-flow without dying mid-write: the atomic-rename
/// checkpoint write completes, then the flow unwinds.
void request_interrupt();
void clear_interrupt();            ///< rearm after a handled interrupt
bool interrupt_requested();

/// Install SIGINT/SIGTERM handlers that call request_interrupt(). A
/// second signal restores the default disposition, so a stuck flow can
/// still be killed the ordinary way. Entry points opt in explicitly;
/// library code never touches signal state.
void install_interrupt_handlers();

/// One run_flow invocation's checkpoint session. Inactive (every call a
/// no-op except kill points) when `dir` is empty. Not thread-safe across
/// concurrent saves — run_flow drives it from one thread.
class Checkpoint {
 public:
  /// `dir` empty disables checkpointing; kill points still fire.
  Checkpoint(std::string dir, const netlist::Netlist& nl, core::Config cfg,
             const core::FlowOptions& opt);

  bool active() const { return !dir_.empty(); }

  /// Scan the directory for this run's checkpoints and restore the
  /// newest valid one into `res`. Invalid files degrade to the next older
  /// boundary. Returns true when something was restored.
  bool resume(core::FlowResult& res);

  /// Did the restored checkpoint already complete stage `s`?
  bool done(Stage s) const;

  /// Mid-loop resume state for an ECO stage, or nullptr when that stage
  /// starts fresh (valid until the next resume()).
  const part::EcoIterState* eco_resume(Stage s) const;

  /// Write the stage-completion boundary (iter 0), then fire a matching
  /// kill point. A failed write is logged and swallowed: checkpointing
  /// must never fail a healthy flow.
  void save(Stage s, const core::FlowResult& res);

  /// Write an ECO-iteration boundary (iter = st.partial.iterations >= 1)
  /// for stage RepartEco or RepartFixup, then fire a matching kill point.
  void save_iter(Stage s, const core::FlowResult& res,
                 const part::EcoIterState& st);

  /// The flow completed: delete this run's checkpoint files (unless
  /// M3D_CHECKPOINT_KEEP is set in the environment).
  void finish();

  /// M3D_CHECKPOINT_DIR, or empty when checkpointing is disabled.
  static std::string default_dir();

 private:
  struct Candidate {
    std::string path;
    int stage = -1;
    int iter = 0;
  };

  std::vector<Candidate> scan() const;  ///< this run's files, newest first
  void write_boundary(Stage s, int iter, const core::FlowResult& res,
                      const part::EcoIterState* eco);
  void load_file(const Candidate& c, core::FlowResult& res);
  std::string file_for(int stage, int iter) const;
  void maybe_inject_fault(Stage s, int iter) const;
  void maybe_interrupt(Stage s, int iter) const;

  std::string dir_;
  core::Config cfg_;
  std::string nl_name_;
  std::uint64_t netlist_fp_ = 0;
  std::uint64_t opt_hash_ = 0;
  std::string prefix_;  // "<netlist-fp>-c<cfg>-<opt-hash>-" of every file
  // The run's options: load_file rebuilds the Design from their tier
  // stack, as the flow did when it started.
  core::FlowOptions opt_;

  // Environment-armed kill point (M3D_FAULT_AT), parsed at construction.
  bool env_fault_armed_ = false;
  Stage env_fault_stage_ = Stage::Synth;
  int env_fault_iter_ = 0;

  // Restored boundary; stage -1 = cold start.
  int resume_stage_ = -1;
  int resume_iter_ = 0;
  bool eco_state_valid_ = false;
  part::EcoIterState eco_state_;
};

}  // namespace m3d::flow
