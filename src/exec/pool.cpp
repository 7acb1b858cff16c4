#include "exec/pool.hpp"

#include <algorithm>
#include <deque>
#include <string>

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace m3d::exec {

namespace {
/// Worker identity of the calling thread (index within its owning pool).
thread_local int t_worker_index = -1;
thread_local void* t_owner_pool = nullptr;
}  // namespace

/// One worker's task deque. The owner pushes/pops at the back (LIFO);
/// thieves (and external helpers) take from the front (FIFO). A plain
/// mutex per deque is plenty at flow-task granularity — tasks here are
/// milliseconds to seconds, not nanoseconds.
struct Pool::Deque {
  std::mutex mu;
  std::deque<std::function<void()>> tasks;
};

Pool::Pool(int threads) {
  int n = threads > 0 ? threads : default_threads();
  if (n < 1) n = 1;
  queues_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Deque>());
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

Pool::~Pool() {
  stop_.store(true);
  idle_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int Pool::default_threads() {
  if (const auto n = util::env_int("M3D_THREADS"); n && *n > 0) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Pool& Pool::global() {
  static Pool pool(0);
  return pool;
}

int Pool::worker_index() { return t_worker_index; }

void Pool::push(std::function<void()> fn) {
  // A worker keeps its own spawn local (depth-first); external submitters
  // spread round-robin so stealing is rarely needed in the first place.
  const int self = t_owner_pool == this ? t_worker_index : -1;
  const std::size_t q =
      self >= 0 ? static_cast<std::size_t>(self)
                : next_queue_.fetch_add(1) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(fn));
  }
  pending_.fetch_add(1);
  posted_.fetch_add(1, std::memory_order_relaxed);
  idle_cv_.notify_one();
}

bool Pool::pop_or_steal(int self, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  // Own deque first, newest task (LIFO).
  if (self >= 0) {
    Deque& q = *queues_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      local_pops_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal the oldest task from the first non-empty victim.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t v =
        (static_cast<std::size_t>(self < 0 ? 0 : self) + 1 + i) % n;
    Deque& q = *queues_[v];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool Pool::run_one() {
  const int self = t_owner_pool == this ? t_worker_index : -1;
  std::function<void()> task;
  if (!pop_or_steal(self, task)) return false;
  pending_.fetch_sub(1);  // pending_ counts *queued* tasks
  task();
  idle_cv_.notify_all();  // a completion a waiter may be polling for
  return true;
}

void Pool::worker_main(int index) {
  t_worker_index = index;
  t_owner_pool = this;
  // Deterministic per-worker rng stream (main thread keeps stream 0).
  util::set_thread_stream_id(static_cast<std::uint64_t>(index) + 1);
  util::trace_register_thread("worker-" + std::to_string(index));
  while (!stop_.load()) {
    if (run_one()) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
      return stop_.load() || pending_.load() > 0;
    });
  }
}

void Pool::help_until(const std::function<bool()>& done) {
  while (!done()) {
    if (run_one()) continue;
    // Nothing runnable here: the remaining work is executing on other
    // threads. Sleep briefly; completions notify idle_cv_.
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (done()) return;
    idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void Pool::parallel_for(int begin, int end,
                        const std::function<void(int)>& fn, int grain) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const int n_chunks = (end - begin + grain - 1) / grain;
  if (n_chunks == 1 || size() == 1) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }
  // The caller and up to size() helper tasks claim chunks from one shared
  // index. The state outlives the call: a helper that starts after the
  // loop returned finds the index used up and leaves without touching
  // `fn`, which lives in the caller's frame.
  struct State {
    std::atomic<int> next{0};      ///< next unclaimed chunk
    std::atomic<int> finished{0};  ///< chunks ended, failed ones too
    std::mutex err_mu;
    std::exception_ptr error;
  };
  auto st = std::make_shared<State>();
  const auto run_chunks = [st, begin, end, grain, n_chunks, &fn] {
    int ran = 0;
    for (int c; (c = st->next.fetch_add(1)) < n_chunks; ++ran) {
      const int lo = begin + c * grain;
      const int hi = std::min(end, lo + grain);
      try {
        for (int i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st->err_mu);
        if (!st->error) st->error = std::current_exception();
      }
      if (st->finished.fetch_add(1) + 1 == n_chunks)
        st->finished.notify_one();
    }
    return ran;
  };
  const int helpers = std::min(size(), n_chunks - 1);
  for (int h = 0; h < helpers; ++h) post(run_chunks);
  const int caller_chunks = run_chunks();
  // The index is used up: wait only for chunks already started on other
  // threads, never running a task this loop did not post.
  for (int f; (f = st->finished.load()) < n_chunks;) st->finished.wait(f);
  if (util::trace_enabled()) {
    // Chunk-occupancy telemetry: how much of this parallel_for the pool
    // actually absorbed vs. the caller running chunks itself. caller
    // share ~1.0 on a saturated pool means the loop ran essentially
    // serial. Cumulative steal count rides along so trace viewers get all
    // contention tracks without a second hook point.
    pf_chunks_total_.fetch_add(n_chunks, std::memory_order_relaxed);
    pf_chunks_caller_.fetch_add(caller_chunks, std::memory_order_relaxed);
    util::trace_counter(
        "pool_pf_chunks",
        static_cast<double>(pf_chunks_total_.load(std::memory_order_relaxed)));
    util::trace_counter(
        "pool_pf_caller_chunks",
        static_cast<double>(
            pf_chunks_caller_.load(std::memory_order_relaxed)));
    util::trace_counter(
        "pool_steals",
        static_cast<double>(steals_.load(std::memory_order_relaxed)));
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace m3d::exec
