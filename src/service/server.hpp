#pragma once
/// \file server.hpp
/// \brief The m3dd daemon core: listener + per-connection sessions +
///        executor threads over one shared Pool/FlowCache.
///
/// Thread architecture (the dovecot-style listener/service split, in
/// modern C++ on top of exec::Pool):
///
///   acceptor ──► Session (thread per connection; parses one JSON line,
///                dispatches a verb, writes one JSON line back)
///                     │ submit / cancel / status / result-wait
///                     ▼
///                 JobQueue  (bounded, per-client capped — job_queue.hpp)
///                     │ pop
///   executors ───────┴────► FlowCache::get_or_run ──► run_flow
///                            (one cache, one exec::Pool, shared by every
///                             client — repeated (netlist, config) specs
///                             collapse into O(1) hits or in-flight joins)
///
/// Thread-per-connection is the right weight here: clients are design-
/// space explorers holding a handful of sockets, not a C10K web tier, and
/// a session thread spends its life blocked in read() or in a result
/// wait. The scarce resource — flow compute — is bounded by the executor
/// count, not the connection count.
///
/// Durability: when `state_dir` is set, every accepted submit appends a
/// record to <state_dir>/jobs.jsonl and every terminal state appends a
/// matching "done" record; flows run with checkpoint_dir =
/// <state_dir>/ckpt. On start the journal is replayed: unfinished jobs
/// are re-enqueued under their original ids (client "recovered") and
/// resume from their checkpoint boundary — the daemon's crash-recovery
/// and drain-handoff story are the same mechanism.
///
/// Drain (SIGTERM or the shutdown verb): stop accepting, reject new
/// submits, let executors finish — or, because drain raises
/// flow::request_interrupt(), stop at their next checkpoint boundary with
/// state flushed (Interrupted). wait_drained() then journals the
/// unfinished set, closes every session, unlinks the socket and returns;
/// the process exits 0 with nothing orphaned.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "service/job_queue.hpp"

namespace m3d::service {

struct ServerOptions {
  std::string socket_path;  ///< Unix-domain listen path (required)
  int tcp_port = 0;         ///< additionally listen on 127.0.0.1:port
  std::string state_dir;    ///< journal + checkpoints; empty = ephemeral
  std::string config_file;  ///< key=value file re-read on reload_config()
  QueueLimits limits = QueueLimits::from_env();
  int executors = 2;        ///< concurrent flows (each fans out on `pool`)
  /// Kernel pool of every flow the daemon runs (FlowOptions::pool); null
  /// means exec::Pool::global(), as for every other Pool* option.
  exec::Pool* pool = nullptr;
  exec::FlowCache* cache = nullptr; ///< null → exec::FlowCache::global()
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind sockets, replay the journal, spawn acceptor/executors. Throws
  /// std::runtime_error on bind failure (including "socket path in use by
  /// a live daemon").
  void start();

  /// Begin graceful drain (idempotent, callable from any thread incl. a
  /// session's): stop accepting, reject submits, interrupt in-flight
  /// flows at their next checkpoint boundary. Returns immediately.
  void begin_drain();

  /// Join every thread, persist the unfinished-job journal, unlink the
  /// socket. Blocks until drain completes. Also begins drain if nobody
  /// did yet (so destruction is always clean).
  void wait_drained();

  bool draining() const { return draining_.load(); }

  /// Re-read config_file (max_queue / max_inflight_per_client /
  /// log_level) and apply — the SIGHUP handler's target. Missing file or
  /// keys leave current values untouched. A line whose value is not one
  /// whole positive number (or a known level), or whose key is unknown,
  /// logs a warning naming it and is ignored.
  void reload_config();

  const std::string& socket_path() const { return opt_.socket_path; }
  int tcp_port() const { return tcp_port_actual_; }

  /// The stats verb's payload (also handy for tests/benches in-process).
  Json stats_json() const;

 private:
  struct Session;

  void acceptor_main();
  void executor_main(int index);
  void session_main(Session* s);
  Json dispatch(Session& s, const Json& req);
  Json handle_submit(Session& s, const Json& req);
  Json job_json(const Job& job) const;

  void journal_submit(const Job& job);
  void journal_done(std::uint64_t id, JobState state,
                    const std::string& digest);
  void journal_replay();
  void journal_compact();

  ServerOptions opt_;
  JobQueue queue_;
  exec::Pool* pool_ = nullptr;
  exec::FlowCache* cache_ = nullptr;
  std::string ckpt_dir_;  ///< <state_dir>/ckpt, or empty

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_actual_ = 0;
  int wake_pipe_[2] = {-1, -1};  ///< drain → poke the acceptor's poll()

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> next_client_{1};
  std::chrono::steady_clock::time_point started_at_;

  std::thread acceptor_;
  std::vector<std::thread> executors_;
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::mutex journal_mu_;
};

}  // namespace m3d::service
