#include "service/job_queue.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/env.hpp"

namespace m3d::service {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int env_positive(const char* name, int def) {
  const auto v = util::env_int(name);
  return v && *v > 0 ? *v : def;
}
}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Interrupted: return "interrupted";
  }
  return "?";
}

bool job_state_terminal(JobState s) {
  return s == JobState::Done || s == JobState::Failed ||
         s == JobState::Cancelled;
}

QueueLimits QueueLimits::from_env() {
  QueueLimits l;
  l.max_queue = env_positive("M3D_SERVICE_MAX_QUEUE", l.max_queue);
  l.max_inflight_per_client = env_positive(
      "M3D_SERVICE_MAX_INFLIGHT_PER_CLIENT", l.max_inflight_per_client);
  return l;
}

JobQueue::JobQueue(QueueLimits limits) : limits_(limits) {
  M3D_CHECK(limits_.max_queue >= 1);
  M3D_CHECK(limits_.max_inflight_per_client >= 1);
}

int JobQueue::inflight_of_locked(const std::string& client) const {
  auto it = inflight_.find(client);
  return it == inflight_.end() ? 0 : it->second;
}

int JobQueue::retry_hint_locked() const {
  // Backlog drained at roughly one job per avg_job_ms per executor; the
  // queue doesn't know the executor count, so hint a single-lane estimate
  // clamped to a sane polling band. Clients treat it as advice.
  const double est = (static_cast<double>(fifo_.size()) + 1.0) * avg_job_ms_;
  return static_cast<int>(std::clamp(est, 50.0, 5000.0));
}

SubmitOutcome JobQueue::submit(const std::string& client,
                               const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  SubmitOutcome out;
  if (draining_ || static_cast<int>(fifo_.size()) >= limits_.max_queue) {
    ++stats_.rejected_queue_full;
    out.kind = SubmitOutcome::QueueFull;
    out.retry_after_ms = retry_hint_locked();
    return out;
  }
  if (inflight_of_locked(client) >= limits_.max_inflight_per_client) {
    ++stats_.rejected_client_limit;
    out.kind = SubmitOutcome::ClientLimit;
    out.retry_after_ms = static_cast<int>(avg_job_ms_);
    return out;
  }
  Job job;
  job.id = next_id_++;
  job.client = client;
  job.spec = spec;
  out.id = job.id;
  fifo_.push_back(job.id);
  enqueued_[job.id] = Clock::now();
  ++inflight_[client];
  ++stats_.submitted;
  jobs_.emplace(job.id, std::move(job));
  runnable_cv_.notify_one();
  return out;
}

void JobQueue::restore(std::uint64_t id, const std::string& client,
                       const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (jobs_.count(id)) return;  // journal replayed the same id twice
  Job job;
  job.id = id;
  job.client = client;
  job.spec = spec;
  next_id_ = std::max(next_id_, id + 1);
  fifo_.push_back(id);
  enqueued_[id] = Clock::now();
  ++inflight_[client];
  ++stats_.submitted;
  jobs_.emplace(id, std::move(job));
  runnable_cv_.notify_one();
}

bool JobQueue::pop(Job* out) {
  std::unique_lock<std::mutex> lock(mu_);
  runnable_cv_.wait(lock, [&] { return draining_ || !fifo_.empty(); });
  if (draining_) return false;  // queued jobs stay for the journal
  const std::uint64_t id = fifo_.front();
  fifo_.pop_front();
  Job& job = jobs_.at(id);
  job.state = JobState::Running;
  auto en = enqueued_.find(id);
  if (en != enqueued_.end()) {
    job.queued_ms = ms_since(en->second);
    enqueued_.erase(en);
  }
  started_[id] = Clock::now();
  *out = job;
  return true;
}

void JobQueue::complete(std::uint64_t id, JobState state,
                        const std::string& digest,
                        const std::string& metrics_csv,
                        const std::string& error, bool cache_hit) {
  M3D_CHECK(job_state_terminal(state));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  auto st = started_.find(id);
  if (st != started_.end()) {
    job.run_ms = ms_since(st->second);
    started_.erase(st);
    avg_job_ms_ = 0.8 * avg_job_ms_ + 0.2 * job.run_ms;
  }
  job.state = state;
  job.digest = digest;
  job.metrics_csv = metrics_csv;
  job.error = error;
  job.cache_hit = cache_hit;
  if (state == JobState::Done) ++stats_.done;
  if (state == JobState::Failed) ++stats_.failed;
  if (state == JobState::Cancelled) ++stats_.cancelled;
  auto inf = inflight_.find(job.client);
  if (inf != inflight_.end() && --inf->second <= 0) inflight_.erase(inf);
  terminal_cv_.notify_all();
}

void JobQueue::mark_interrupted(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second.state = JobState::Interrupted;
  started_.erase(id);
  ++stats_.interrupted;
  // The client's in-flight slot frees up (this connection is going away
  // anyway — interrupts only happen during drain).
  auto inf = inflight_.find(it->second.client);
  if (inf != inflight_.end() && --inf->second <= 0) inflight_.erase(inf);
  terminal_cv_.notify_all();
}

std::optional<Job> JobQueue::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

bool JobQueue::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != JobState::Queued) return false;
  it->second.state = JobState::Cancelled;
  fifo_.erase(std::find(fifo_.begin(), fifo_.end(), id));
  enqueued_.erase(id);
  ++stats_.cancelled;
  auto inf = inflight_.find(it->second.client);
  if (inf != inflight_.end() && --inf->second <= 0) inflight_.erase(inf);
  terminal_cv_.notify_all();
  return true;
}

std::optional<Job> JobQueue::wait_terminal(std::uint64_t id,
                                           int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [&] {
    if (draining_) return true;  // never strand a session thread in drain
    auto it = jobs_.find(id);
    // Interrupted is not terminal, but the job is parked until a daemon
    // restart — waiters are released and see the resumable state.
    return it == jobs_.end() || job_state_terminal(it->second.state) ||
           it->second.state == JobState::Interrupted;
  };
  if (timeout_ms > 0) {
    terminal_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
  } else {
    terminal_cv_.wait(lock, ready);
  }
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

void JobQueue::begin_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  runnable_cv_.notify_all();
  terminal_cv_.notify_all();
}

bool JobQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::vector<Job> JobQueue::unfinished() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Job> out;
  for (const auto& [id, job] : jobs_)
    if (job.state == JobState::Queued || job.state == JobState::Interrupted)
      out.push_back(job);
  return out;
}

QueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueueStats s = stats_;
  s.queued_now = static_cast<int>(fifo_.size());
  s.running_now = static_cast<int>(started_.size());
  return s;
}

void JobQueue::set_limits(QueueLimits limits) {
  std::lock_guard<std::mutex> lock(mu_);
  if (limits.max_queue >= 1) limits_.max_queue = limits.max_queue;
  if (limits.max_inflight_per_client >= 1)
    limits_.max_inflight_per_client = limits.max_inflight_per_client;
}

QueueLimits JobQueue::limits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limits_;
}

void JobQueue::reserve_ids(std::uint64_t floor) {
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = std::max(next_id_, floor);
}

}  // namespace m3d::service
