#pragma once
/// \file pool.hpp
/// \brief Work-stealing thread pool with a futures-based submit API, a
///        cooperative (helping) wait and an own-chunk parallel_for.
///
/// The pool is the execution substrate for every parallel sweep in the
/// repository: flow fan-outs (bench::run_sweep), the exec::TaskGraph
/// scheduler and the intra-kernel parallel_for loops all run on it.
/// Design points, in the spirit of shared-memory runtimes like Galois:
///
///  * **Per-worker deques + stealing.** Each worker owns a deque; it pushes
///    and pops its own work LIFO (cache-warm, depth-first) and steals FIFO
///    from victims when dry (breadth-first, takes the oldest/biggest
///    tasks). External threads submit round-robin across workers.
///  * **Helping waits, own-chunk loops.** `wait`, `get`, `help_until` and
///    `TaskGraph::run` execute pending tasks while they wait, so a task
///    may submit subtasks and wait on them without deadlock even on a
///    single-worker pool. `parallel_for` runs only its own chunks: its
///    caller never picks up a foreign task, so a kernel loop inside one
///    flow can never start a sibling flow in its frame, and nested loops
///    (a sweep task running a flow whose kernels fan out) still finish
///    with no worker free, because the caller can run every chunk itself.
///  * **One rule for kernel loops.** `parallel_for` alone decides whether
///    a loop is worth the pool: a range of one chunk, or a pool of one
///    worker, runs inline on the caller and posts nothing. Kernels pick a
///    chunk size and call it unconditionally, and `pool_or_global` is the
///    one place a null `Pool*` is resolved (to `Pool::global()`).
///  * **Determinism discipline.** The pool never provides randomness or
///    ordering guarantees to tasks; results must depend only on task
///    inputs (see rng.hpp's concurrency guarantee). Workers register the
///    rng stream id i+1 and a trace thread name, nothing more.
///
/// Sizing: Pool(0) (and the process-wide Pool::global()) uses M3D_THREADS
/// if set, else std::thread::hardware_concurrency().

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace m3d::exec {

class Pool {
 public:
  /// Create `threads` workers; 0 means default_threads().
  explicit Pool(int threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Number of queued tasks not yet picked up by any thread. A load
  /// signal for monitors (the m3dd `stats` verb reports it): lock-free,
  /// instantaneous, and racy by nature — the count may change before the
  /// caller acts on it.
  int pending() const { return pending_.load(std::memory_order_relaxed); }

  /// Contention telemetry: monotonic counters maintained with relaxed
  /// atomics (zero contention on the hot path, TSan-clean). `steals` is
  /// the classic load-imbalance signal — a task executed from another
  /// worker's deque; `local_pops` are cache-warm own-deque executions;
  /// `posted` counts every task pushed. Snapshot is racy by nature.
  struct Stats {
    long long posted = 0;
    long long local_pops = 0;
    long long steals = 0;
  };
  Stats stats() const {
    return {posted_.load(std::memory_order_relaxed),
            local_pops_.load(std::memory_order_relaxed),
            steals_.load(std::memory_order_relaxed)};
  }

  /// Schedule a callable; returns a future for its result. Exceptions
  /// thrown by the callable surface at future.get(). Prefer wait()/get()
  /// below over future.get() when the caller may itself be a pool task.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    push([task] { (*task)(); });
    return fut;
  }

  /// Fire-and-forget variant (no future allocation).
  void post(std::function<void()> fn) { push(std::move(fn)); }

  /// Block until `fut` is ready, executing pending pool tasks meanwhile.
  template <typename T>
  void wait(const std::future<T>& fut) {
    help_until([&] {
      return fut.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
  }

  /// wait() + get() in one call.
  template <typename T>
  T get(std::future<T>&& fut) {
    wait(fut);
    return fut.get();
  }

  /// Run fn(i) for i in [begin, end) in chunks of `grain`. A range of one
  /// chunk, or a pool of one worker, runs inline on the caller in index
  /// order and posts nothing (the first exception propagates at once).
  /// Otherwise the caller and at most size() helper tasks claim chunks
  /// from one shared index; once it is used up the caller waits only for
  /// chunks already started on other threads, and runs no other task
  /// meanwhile. Rethrows the first chunk exception after every claimed
  /// chunk ended (a failing chunk abandons the rest of its own
  /// iterations).
  void parallel_for(int begin, int end, const std::function<void(int)>& fn,
                    int grain = 1);

  /// Execute one pending task on the calling thread if any is available.
  bool run_one();

  /// Work the pool from the calling thread until `done()` returns true,
  /// sleeping briefly when no task is runnable locally.
  void help_until(const std::function<bool()>& done);

  /// Worker index of the calling thread in *any* pool, or -1 when called
  /// from a non-worker thread.
  static int worker_index();

  /// Process-wide shared pool (sized on first use).
  static Pool& global();

  /// M3D_THREADS if set and positive, else hardware_concurrency(). A
  /// malformed value throws util::Error (util::env_int).
  static int default_threads();

 private:
  struct Deque;

  void push(std::function<void()> fn);
  bool pop_or_steal(int self, std::function<void()>& out);
  void worker_main(int index);

  std::vector<std::unique_ptr<Deque>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> next_queue_{0};
  std::atomic<int> pending_{0};
  std::atomic<long long> posted_{0};
  std::atomic<long long> local_pops_{0};
  std::atomic<long long> steals_{0};
  std::atomic<long long> pf_chunks_total_{0};
  std::atomic<long long> pf_chunks_caller_{0};

  // Sleep/wake for idle workers and helping waiters.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

/// The pool a kernel runs on: `pool`, or Pool::global() when it is null.
/// Every `Pool*` option in the repository means this, and this is the
/// only place the null case is resolved.
inline Pool& pool_or_global(Pool* pool) {
  return pool != nullptr ? *pool : Pool::global();
}

/// fn(c, lo, hi) for every `chunk`-sized slice [lo, hi) of [0, n), slice c
/// starting at c * chunk: one parallel_for over the slice indices, so a
/// range of one slice runs inline. A sweep whose slice c writes only the
/// slots of [lo, hi) (and its own slot c of a per-slice array) gives the
/// same result at any pool size.
template <typename Fn>
void for_chunks(Pool& pool, int n, int chunk, Fn&& fn) {
  pool.parallel_for(
      0, (n + chunk - 1) / chunk,
      [&](int c) {
        const int lo = c * chunk;
        fn(c, lo, lo + chunk < n ? lo + chunk : n);
      },
      /*grain=*/1);
}

/// Deterministic parallel gather: runs `fn(i, out)` for i in [0, n) where
/// each chunk of `grain` items appends to its own vector, then
/// concatenates the chunk results in ascending chunk order —
/// byte-identical to the serial append loop at any pool size.
template <typename T, typename Fn>
std::vector<T> ordered_gather(Pool& pool, int n, int grain, Fn&& fn) {
  std::vector<T> out;
  if (n <= 0) return out;
  const int n_chunks = (n + grain - 1) / grain;
  std::vector<std::vector<T>> parts(static_cast<std::size_t>(n_chunks));
  pool.parallel_for(
      0, n_chunks,
      [&](int c) {
        auto& part = parts[static_cast<std::size_t>(c)];
        const int lo = c * grain;
        const int hi = lo + grain < n ? lo + grain : n;
        for (int i = lo; i < hi; ++i) fn(i, part);
      },
      /*grain=*/1);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (auto& part : parts)
    out.insert(out.end(), part.begin(), part.end());
  return out;
}

}  // namespace m3d::exec
