#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "io/reports.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/publish.hpp"
#include "util/trace.hpp"

namespace m3d::service {

namespace {

constexpr std::size_t kMaxLine = 1 << 20;  // 1 MiB: a submit is ~200 bytes

/// Write the whole buffer; MSG_NOSIGNAL so a vanished peer surfaces as
/// EPIPE instead of killing the daemon.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool parse_job_id(const std::string& s, std::uint64_t* out) {
  std::size_t i = s.rfind('-');
  const std::string digits = i == std::string::npos ? s : s.substr(i + 1);
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return v != 0;
}

std::string job_id_str(std::uint64_t id) { return "j-" + std::to_string(id); }

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

int bind_tcp_local(int port, int* actual_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("m3dd: socket(AF_INET) failed");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw std::runtime_error("m3dd: cannot listen on 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    *actual_port = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

int bind_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("m3dd: socket path too long: " + path);
  // A stale socket file from a crashed daemon is unlinked; a live one is
  // an error — probe with a connect.
  if (::access(path.c_str(), F_OK) == 0) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un paddr{};
    paddr.sun_family = AF_UNIX;
    std::strncpy(paddr.sun_path, path.c_str(), sizeof paddr.sun_path - 1);
    const bool alive = probe >= 0 &&
                       ::connect(probe, reinterpret_cast<sockaddr*>(&paddr),
                                 sizeof paddr) == 0;
    if (probe >= 0) ::close(probe);
    if (alive)
      throw std::runtime_error("m3dd: " + path +
                               " is in use by a running daemon");
    ::unlink(path.c_str());
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("m3dd: socket(AF_UNIX) failed");
  set_cloexec(fd);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw std::runtime_error("m3dd: cannot listen on " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
}

}  // namespace

/// One connected client. The thread owns the fd; drain wakes it with
/// shutdown(2), which turns the blocking recv into EOF.
struct Server::Session {
  int fd = -1;
  std::string client_id;
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      queue_(opt_.limits),
      pool_(&exec::pool_or_global(opt_.pool)),
      cache_(opt_.cache ? opt_.cache : &exec::FlowCache::global()) {
  if (opt_.executors < 1) opt_.executors = 1;
  if (!opt_.state_dir.empty())
    ckpt_dir_ = opt_.state_dir + "/ckpt";
}

Server::~Server() {
  if (started_.load()) {
    begin_drain();
    wait_drained();
  }
}

void Server::start() {
  if (opt_.socket_path.empty())
    throw std::runtime_error("m3dd: no socket path configured");
  if (!opt_.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.state_dir, ec);
    if (ec)
      throw std::runtime_error("m3dd: cannot create state dir " +
                               opt_.state_dir);
  }
  unix_fd_ = bind_unix(opt_.socket_path);
  if (opt_.tcp_port > 0 || opt_.tcp_port == -1) {
    // -1 = "any free port" (tests); getsockname reports the choice.
    tcp_fd_ = bind_tcp_local(opt_.tcp_port > 0 ? opt_.tcp_port : 0,
                             &tcp_port_actual_);
  }
  if (::pipe(wake_pipe_) != 0)
    throw std::runtime_error("m3dd: pipe() failed");
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);

  journal_replay();

  started_at_ = std::chrono::steady_clock::now();
  started_.store(true);
  acceptor_ = std::thread([this] { acceptor_main(); });
  executors_.reserve(static_cast<std::size_t>(opt_.executors));
  for (int i = 0; i < opt_.executors; ++i)
    executors_.emplace_back([this, i] { executor_main(i); });
  util::log_info("m3dd: listening on ", opt_.socket_path,
                 tcp_fd_ >= 0 ? " and 127.0.0.1:" +
                                    std::to_string(tcp_port_actual_)
                              : std::string(),
                 " (executors=", opt_.executors,
                 ", pool=", pool_->size(), ")");
}

void Server::begin_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  util::log_info("m3dd: drain requested");
  queue_.begin_drain();
  // In-flight flows stop at their next checkpoint boundary with state
  // flushed (flow::Interrupted) — or run to completion when no state dir
  // is configured (the flag alone never aborts a non-resumable flow).
  flow::request_interrupt();
  // Wake the acceptor's poll; it closes the listen fds and unlinks the
  // socket so new connections fail fast.
  if (wake_pipe_[1] >= 0) {
    const char b = 'q';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::wait_drained() {
  if (!started_.load()) return;
  begin_drain();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : executors_)
    if (t.joinable()) t.join();
  // Executors are gone: every job is terminal, Interrupted, or still
  // Queued. Wake and close the sessions.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_)
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
  }
  for (;;) {
    std::unique_ptr<Session> victim;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (sessions_.empty()) break;
      victim = std::move(sessions_.back());
      sessions_.pop_back();
    }
    if (victim->thread.joinable()) victim->thread.join();
    if (victim->fd >= 0) ::close(victim->fd);
  }
  journal_compact();
  for (int i = 0; i < 2; ++i)
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  started_.store(false);
  const auto st = queue_.stats();
  util::log_info("m3dd: drained (done=", st.done, " failed=", st.failed,
                 " interrupted=", st.interrupted,
                 " still queued=", st.queued_now, ")");
}

void Server::acceptor_main() {
  util::trace_register_thread("m3dd-acceptor");
  std::vector<pollfd> fds;
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  fds.push_back({unix_fd_, POLLIN, 0});
  if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
  while (!draining_.load()) {
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (draining_.load() || (fds[0].revents & POLLIN)) break;
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (!(fds[i].revents & POLLIN)) continue;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      set_cloexec(cfd);
      auto session = std::make_unique<Session>();
      session->fd = cfd;
      session->client_id = "c" + std::to_string(next_client_.fetch_add(1));
      Session* raw = session.get();
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        // Reap sessions whose clients already hung up so a long-lived
        // daemon doesn't accumulate dead threads.
        for (auto it = sessions_.begin(); it != sessions_.end();) {
          if ((*it)->done.load()) {
            if ((*it)->thread.joinable()) (*it)->thread.join();
            if ((*it)->fd >= 0) ::close((*it)->fd);
            it = sessions_.erase(it);
          } else {
            ++it;
          }
        }
        sessions_.push_back(std::move(session));
      }
      raw->thread = std::thread([this, raw] { session_main(raw); });
    }
  }
  ::close(unix_fd_);
  unix_fd_ = -1;
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  ::unlink(opt_.socket_path.c_str());
}

void Server::session_main(Session* s) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(s->fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: client is gone
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() > kMaxLine) break;  // protocol abuse; drop the client
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      Json req;
      std::string err;
      Json resp;
      bool shutdown_after = false;
      if (!Json::parse(line, &req, &err) || !req.is_object()) {
        resp = error_response("bad_json");
      } else {
        if (req.str_or("cmd", "") == "shutdown") shutdown_after = true;
        resp = dispatch(*s, req);
      }
      if (!send_all(s->fd, resp.dump() + "\n")) {
        s->done.store(true);
        return;
      }
      if (shutdown_after) begin_drain();
    }
  }
  s->done.store(true);
}

Json Server::job_json(const Job& job) const {
  Json j = ok_response();
  j["id"] = Json(job_id_str(job.id));
  j["state"] = Json(std::string(job_state_name(job.state)));
  if (job.state == JobState::Done) {
    j["digest"] = Json(job.digest);
    j["metrics_csv"] = Json(job.metrics_csv);
    j["cache_hit"] = Json(job.cache_hit);
  }
  if (job.state == JobState::Failed) j["job_error"] = Json(job.error);
  j["queued_ms"] = Json(job.queued_ms);
  j["run_ms"] = Json(job.run_ms);
  return j;
}

Json Server::handle_submit(Session& s, const Json& req) {
  if (draining_.load()) return error_response("draining");
  JobSpec spec;
  std::string err;
  if (!JobSpec::from_json(req, &spec, &err)) {
    Json resp = error_response("bad_spec");
    resp["detail"] = Json(err);
    return resp;
  }
  const SubmitOutcome out = queue_.submit(s.client_id, spec);
  switch (out.kind) {
    case SubmitOutcome::QueueFull:
      return error_response("queue_full", out.retry_after_ms);
    case SubmitOutcome::ClientLimit:
      return error_response("client_limit", out.retry_after_ms);
    case SubmitOutcome::Accepted:
      break;
  }
  if (auto job = queue_.get(out.id)) journal_submit(*job);
  util::trace_instant("m3dd_submit");
  Json resp = ok_response();
  resp["id"] = Json(job_id_str(out.id));
  resp["state"] = Json("queued");
  return resp;
}

Json Server::dispatch(Session& s, const Json& req) {
  const std::string cmd = req.str_or("cmd", "");
  if (cmd == "ping") return ok_response();
  if (cmd == "submit") return handle_submit(s, req);
  if (cmd == "shutdown") {
    // Respond before begin_drain runs (session_main sequences that) so
    // the requester always hears the ack.
    Json resp = ok_response();
    resp["draining"] = Json(true);
    return resp;
  }
  if (cmd == "stats") return stats_json();
  if (cmd == "status" || cmd == "result" || cmd == "cancel") {
    std::uint64_t id = 0;
    if (!parse_job_id(req.str_or("id", ""), &id))
      return error_response("bad_id");
    if (cmd == "cancel") {
      if (queue_.cancel(id)) {
        journal_done(id, JobState::Cancelled, "");
        Json resp = ok_response();
        resp["state"] = Json("cancelled");
        return resp;
      }
      auto job = queue_.get(id);
      if (!job) return error_response("unknown_id");
      Json resp = error_response("not_cancellable");
      resp["state"] = Json(std::string(job_state_name(job->state)));
      return resp;
    }
    std::optional<Job> job;
    if (cmd == "result") {
      // Bounded block: a drain or timeout returns the current state, so
      // no session thread is ever stranded.
      int timeout_ms = req.int_or("timeout_ms", 600000);
      timeout_ms = std::min(timeout_ms, 3600000);
      job = queue_.wait_terminal(id, timeout_ms);
    } else {
      job = queue_.get(id);
    }
    if (!job) return error_response("unknown_id");
    return job_json(*job);
  }
  return error_response("bad_request");
}

void Server::executor_main(int index) {
  util::trace_register_thread("m3dd-executor-" + std::to_string(index));
  Job job;
  while (queue_.pop(&job)) {
    util::TraceSpan span("m3dd_job", job.spec.label());
    try {
      const netlist::Netlist nl = job.spec.make_netlist();
      core::FlowOptions fopt = job.spec.flow_options();
      fopt.pool = pool_;
      fopt.checkpoint_dir = ckpt_dir_;
      // Completed-entry probe first, so the response can say whether the
      // shared cache answered (the bench's hit-rate accounting).
      const bool hit =
          cache_->lookup(nl, job.spec.config, fopt) != nullptr;
      const exec::FlowCache::ResultPtr res =
          cache_->get_or_run(nl, job.spec.config, fopt);
      const std::string digest = result_digest(*res);
      queue_.complete(job.id, JobState::Done, digest,
                      io::metrics_csv({res->metrics}), "", hit);
      journal_done(job.id, JobState::Done, digest);
    } catch (const flow::Interrupted& e) {
      // Drain caught the flow at a checkpoint boundary; the job resumes
      // under its original id when a daemon next replays the journal.
      util::log_info("m3dd: job ", job_id_str(job.id), " interrupted (",
                     e.what(), ")");
      queue_.mark_interrupted(job.id);
    } catch (const std::exception& e) {
      queue_.complete(job.id, JobState::Failed, "", "", e.what(), false);
      journal_done(job.id, JobState::Failed, "");
    }
  }
}

Json Server::stats_json() const {
  const QueueStats qs = queue_.stats();
  const exec::FlowCacheStats cs = cache_->stats_snapshot();
  const QueueLimits lim = queue_.limits();
  Json j = ok_response();
  j["uptime_s"] = Json(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started_at_)
                           .count());
  j["draining"] = Json(draining_.load());
  Json q = Json::object();
  q["submitted"] = Json(qs.submitted);
  q["done"] = Json(qs.done);
  q["failed"] = Json(qs.failed);
  q["cancelled"] = Json(qs.cancelled);
  q["interrupted"] = Json(qs.interrupted);
  q["rejected_queue_full"] = Json(qs.rejected_queue_full);
  q["rejected_client_limit"] = Json(qs.rejected_client_limit);
  q["queued"] = Json(qs.queued_now);
  q["running"] = Json(qs.running_now);
  q["max_queue"] = Json(lim.max_queue);
  q["max_inflight_per_client"] = Json(lim.max_inflight_per_client);
  j["queue"] = std::move(q);
  Json c = Json::object();
  c["hits"] = Json(cs.hits);
  c["joins"] = Json(cs.joins);
  c["misses"] = Json(cs.misses);
  c["bypasses"] = Json(cs.bypasses);
  c["evictions"] = Json(cs.evictions);
  c["disk_hits"] = Json(cs.disk_hits);
  c["disk_writes"] = Json(cs.disk_writes);
  c["entries"] = Json(static_cast<std::uint64_t>(cache_->size()));
  j["cache"] = std::move(c);
  Json p = Json::object();
  p["threads"] = Json(pool_->size());
  p["pending"] = Json(pool_->pending());
  j["pool"] = std::move(p);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    int live = 0;
    for (const auto& s : sessions_)
      if (!s->done.load()) ++live;
    j["sessions"] = Json(live);
  }
  return j;
}

// ---- journal -------------------------------------------------------------

void Server::journal_submit(const Job& job) {
  if (opt_.state_dir.empty()) return;
  Json rec = Json::object();
  rec["ev"] = Json("submit");
  rec["id"] = Json(job.id);
  rec["client"] = Json(job.client);
  rec["spec"] = job.spec.to_json();
  std::lock_guard<std::mutex> lock(journal_mu_);
  std::ofstream os(opt_.state_dir + "/jobs.jsonl", std::ios::app);
  os << rec.dump() << "\n";
}

void Server::journal_done(std::uint64_t id, JobState state,
                          const std::string& digest) {
  if (opt_.state_dir.empty()) return;
  Json rec = Json::object();
  rec["ev"] = Json("done");
  rec["id"] = Json(id);
  rec["state"] = Json(std::string(job_state_name(state)));
  if (!digest.empty()) rec["digest"] = Json(digest);
  std::lock_guard<std::mutex> lock(journal_mu_);
  std::ofstream os(opt_.state_dir + "/jobs.jsonl", std::ios::app);
  os << rec.dump() << "\n";
}

void Server::journal_replay() {
  if (opt_.state_dir.empty()) return;
  const std::string path = opt_.state_dir + "/jobs.jsonl";
  std::ifstream is(path);
  if (!is) return;
  std::map<std::uint64_t, JobSpec> open;
  std::uint64_t max_id = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    Json rec;
    std::string err;
    if (!Json::parse(line, &rec, &err)) continue;  // torn tail write
    const std::uint64_t id =
        static_cast<std::uint64_t>(rec.num_or("id", 0));
    if (id == 0) continue;
    max_id = std::max(max_id, id);
    const std::string ev = rec.str_or("ev", "");
    if (ev == "submit") {
      JobSpec spec;
      const Json* sj = rec.find("spec");
      if (sj && JobSpec::from_json(*sj, &spec, &err)) open[id] = spec;
    } else if (ev == "done") {
      open.erase(id);
    }
  }
  queue_.reserve_ids(max_id + 1);
  for (const auto& [id, spec] : open) {
    util::log_info("m3dd: recovering job j-", id, " (", spec.label(), ")");
    queue_.restore(id, "recovered", spec);
  }
  journal_compact();
}

void Server::journal_compact() {
  if (opt_.state_dir.empty()) return;
  const std::string path = opt_.state_dir + "/jobs.jsonl";
  const std::vector<Job> open = queue_.unfinished();
  std::lock_guard<std::mutex> lock(journal_mu_);
  std::error_code ec;
  if (open.empty()) {
    std::filesystem::remove(path, ec);
    return;
  }
  std::string text;
  for (const Job& job : open) {
    Json rec = Json::object();
    rec["ev"] = Json("submit");
    rec["id"] = Json(job.id);
    rec["client"] = Json(job.client);
    rec["spec"] = job.spec.to_json();
    text += rec.dump() + "\n";
  }
  // A failed publish keeps the old journal, which still lists every open
  // job (replay skips the finished ones).
  util::publish_file(path, text);
}

// ---- config reload -------------------------------------------------------

void Server::reload_config() {
  if (opt_.config_file.empty()) return;
  std::ifstream is(opt_.config_file);
  if (!is) {
    util::log_warn("m3dd: cannot read config file ", opt_.config_file);
    return;
  }
  QueueLimits lim = queue_.limits();
  auto positive = [](const std::string& key, const std::string& value) {
    const int v = util::parse_token<int>(key, value, value);
    if (v < 1)
      throw util::Error(key + ": value '" + value + "' is not positive");
    return v;
  };
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto trim = [](std::string s) {
      const char* ws = " \t\r";
      const std::size_t b = s.find_first_not_of(ws);
      if (b == std::string::npos) return std::string();
      return s.substr(b, s.find_last_not_of(ws) - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    // A bad line is ignored, so its key keeps the previous setting; the
    // rest of the file still applies.
    try {
      if (key == "max_queue") {
        lim.max_queue = positive(key, value);
      } else if (key == "max_inflight_per_client") {
        lim.max_inflight_per_client = positive(key, value);
      } else if (key == "log_level") {
        if (value == "debug") util::set_log_level(util::LogLevel::Debug);
        else if (value == "info") util::set_log_level(util::LogLevel::Info);
        else if (value == "warn") util::set_log_level(util::LogLevel::Warn);
        else if (value == "error") util::set_log_level(util::LogLevel::Error);
        else if (value == "silent") util::set_log_level(util::LogLevel::Silent);
        else throw util::Error(key + ": unknown level '" + value + "'");
      } else {
        throw util::Error("unknown key '" + key + "'");
      }
    } catch (const util::Error& e) {
      util::log_warn("m3dd: config ", opt_.config_file, ": ", e.what(),
                     "; ignored");
    }
  }
  queue_.set_limits(lim);
  const QueueLimits applied = queue_.limits();
  util::log_info("m3dd: config reloaded (max_queue=", applied.max_queue,
                 ", max_inflight_per_client=",
                 applied.max_inflight_per_client, ")");
}

}  // namespace m3d::service
