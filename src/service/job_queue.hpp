#pragma once
/// \file job_queue.hpp
/// \brief The daemon's central job queue: bounded, per-client capped,
///        drain-aware.
///
/// One instance sits between the session threads (producers: submit /
/// cancel / status / result-wait) and the executor threads (consumers:
/// pop / complete). Admission control happens at submit time:
///
///  * **Queue-depth backpressure.** At most `max_queue` jobs may be
///    Queued at once (running jobs don't count — they already hold an
///    executor). An overfull submit is rejected with a retry_after hint
///    derived from the backlog, never silently dropped or blocked: the
///    client owns its retry policy.
///  * **Per-client in-flight cap.** Each client (one network connection)
///    may have at most `max_inflight_per_client` jobs in Queued/Running.
///    A greedy client saturates its own cap and gets `client_limit`
///    rejections while other clients' submits still land — the classic
///    fair-admission split of one shared queue.
///
/// Drain: begin_drain() makes pop() return false (executors exit their
/// loop) and wakes every result-waiter. Queued and Interrupted jobs stay
/// in the table — unfinished() is what the server journals so a restarted
/// daemon can resubmit them; their flow state lives in the checkpoint
/// directory.
///
/// All methods are thread-safe; one mutex + two condvars (consumer wake,
/// terminal-state wake) — admission decisions are O(1), job lookup is a
/// map find, and the flows behind the queue run for seconds, so lock
/// granularity is a non-issue.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace m3d::service {

enum class JobState {
  Queued,
  Running,
  Done,
  Failed,
  Cancelled,
  Interrupted,  ///< drain stopped it at a checkpoint boundary; resumable
};
const char* job_state_name(JobState s);
bool job_state_terminal(JobState s);

struct Job {
  std::uint64_t id = 0;
  std::string client;
  JobSpec spec;
  JobState state = JobState::Queued;
  std::string digest;       ///< Done: result_digest of the flow
  std::string metrics_csv;  ///< Done: io::metrics_csv row(s)
  std::string error;        ///< Failed: what()
  bool cache_hit = false;   ///< Done: served from a ready cache entry
  double queued_ms = 0.0;   ///< submit → pop
  double run_ms = 0.0;      ///< pop → terminal
};

struct QueueLimits {
  int max_queue = 64;
  int max_inflight_per_client = 8;
  /// M3D_SERVICE_MAX_QUEUE / M3D_SERVICE_MAX_INFLIGHT_PER_CLIENT when set
  /// and positive, else the defaults above. A malformed value throws
  /// util::Error (util::env_int).
  static QueueLimits from_env();
};

struct SubmitOutcome {
  enum Kind { Accepted, QueueFull, ClientLimit } kind = Accepted;
  std::uint64_t id = 0;      ///< valid when Accepted
  int retry_after_ms = 0;    ///< backoff hint when rejected
};

struct QueueStats {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_client_limit = 0;
  int queued_now = 0;
  int running_now = 0;
};

class JobQueue {
 public:
  explicit JobQueue(QueueLimits limits);

  /// Admission-checked enqueue; never blocks.
  SubmitOutcome submit(const std::string& client, const JobSpec& spec);

  /// Journal replay: re-enqueue a recovered job under its original id
  /// (bypasses admission — recovered work was already admitted once).
  void restore(std::uint64_t id, const std::string& client,
               const JobSpec& spec);

  /// Executor side: block for the next runnable job (FIFO), marking it
  /// Running. Returns false when draining — the executor should exit.
  bool pop(Job* out);

  /// Executor side: move a Running job to a terminal state.
  void complete(std::uint64_t id, JobState state, const std::string& digest,
                const std::string& metrics_csv, const std::string& error,
                bool cache_hit);

  /// Executor side: the flow threw flow::Interrupted during drain — the
  /// job's checkpoint is on disk; mark it resumable.
  void mark_interrupted(std::uint64_t id);

  std::optional<Job> get(std::uint64_t id) const;

  /// Cancel a Queued job (Running flows are not preemptible mid-stage;
  /// callers get the current state back and can retry after drain).
  bool cancel(std::uint64_t id);

  /// Block until the job reaches a terminal state (or parks as
  /// Interrupted), the queue drains, or `timeout_ms` elapses; returns the
  /// job's state at that moment.
  std::optional<Job> wait_terminal(std::uint64_t id, int timeout_ms) const;

  void begin_drain();
  bool draining() const;

  /// Jobs a restarted daemon must resubmit: Queued + Interrupted.
  std::vector<Job> unfinished() const;

  QueueStats stats() const;
  void set_limits(QueueLimits limits);  ///< SIGHUP config reload
  QueueLimits limits() const;

  /// Ensure future ids start above `floor` (journal replay).
  void reserve_ids(std::uint64_t floor);

 private:
  int inflight_of_locked(const std::string& client) const;
  int retry_hint_locked() const;

  mutable std::mutex mu_;
  std::condition_variable runnable_cv_;          ///< executors
  mutable std::condition_variable terminal_cv_;  ///< result-waiters
  QueueLimits limits_;
  bool draining_ = false;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> fifo_;  ///< Queued ids in arrival order
  std::map<std::string, int> inflight_;
  QueueStats stats_;
  // Running EWMA of job wall time, seeding the retry_after hint.
  double avg_job_ms_ = 250.0;
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> started_;
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> enqueued_;
};

}  // namespace m3d::service
