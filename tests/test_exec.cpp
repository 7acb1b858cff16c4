// Tests for the m3d::exec subsystem: work-stealing pool (stress, nested
// submission and loops, own-chunk parallel_for, exceptions), task-graph
// dependency order, flow-cache hit/join/eviction behaviour, sweep
// determinism across thread counts, per-worker rng streams, and the
// chrome-trace sink.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "common.hpp"  // bench helpers (run_sweep determinism test)
#include "core/checkpoint.hpp"
#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "exec/task_graph.hpp"
#include "gen/designs.hpp"
#include "io/flow_state.hpp"
#include "io/reports.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace me = m3d::exec;
namespace mc = m3d::core;
namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mu = m3d::util;

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace {

constexpr double kWideScale = M3D_TEST_WIDE_SCALE;

class Quiet : public ::testing::Test {
 protected:
  void SetUp() override { mu::set_log_level(mu::LogLevel::Silent); }
};

using ExecPool = Quiet;
using ExecTaskGraph = Quiet;
using ExecFlowCache = Quiet;
using ExecSweep = Quiet;
using ExecTrace = Quiet;

mn::Netlist tiny(const char* which = "aes", double scale = 0.04) {
  mg::GenOptions g;
  g.scale = scale;
  return mg::make_design(which, g);
}

mc::FlowOptions tiny_opts(double period = 1.2) {
  mc::FlowOptions o;
  o.clock_period_ns = period;
  o.opt.max_sizing_rounds = 2;
  o.repart.max_iters = 3;
  return o;
}

}  // namespace

// ---- Pool ----------------------------------------------------------------

TEST_F(ExecPool, StressManyTasksManyThreads) {
  for (int threads : {1, 2, 4, 8}) {
    me::Pool pool(threads);
    ASSERT_EQ(pool.size(), threads);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    const int n = 2000;
    futures.reserve(n);
    for (int i = 0; i < n; ++i)
      futures.push_back(pool.submit([&counter, i] {
        counter.fetch_add(1);
        return i;
      }));
    long long sum = 0;
    for (auto& f : futures) sum += pool.get(std::move(f));
    EXPECT_EQ(counter.load(), n);
    EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
  }
}

TEST_F(ExecPool, ParallelForCoversRangeExactlyOnce) {
  me::Pool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](int i) { hits[static_cast<size_t>(i)]++; },
                    7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ExecPool, NestedParallelForCoversRangeExactlyOnce) {
  // Loops started inside pool tasks, and loops inside their chunks (a
  // sweep task running a flow whose kernels fan out), finish even when
  // every worker is inside such a loop: each caller can run all of its
  // own chunks.
  constexpr int kTasks = 8, kRows = 10, kCols = 100;
  for (int threads : {1, 4}) {
    me::Pool pool(threads);
    std::vector<std::atomic<int>> hits(kTasks * kRows * kCols);
    std::vector<std::future<void>> tasks;
    for (int t = 0; t < kTasks; ++t)
      tasks.push_back(pool.submit([&, t] {
        pool.parallel_for(0, kRows, [&, t](int r) {
          pool.parallel_for(0, kCols, [&, t, r](int c) {
            hits[static_cast<size_t>((t * kRows + r) * kCols + c)]++;
          }, 3);
        });
      }));
    for (auto& f : tasks) pool.get(std::move(f));
    int wrong = 0;
    for (const auto& h : hits) wrong += h.load() != 1;
    EXPECT_EQ(wrong, 0) << "pool " << threads;
  }
}

TEST_F(ExecPool, OneWorkerPoolRunsLoopsInline) {
  // parallel_for alone decides whether a loop is worth the pool: on a
  // one-worker pool every chunk runs on the caller, in order, and nothing
  // is posted.
  me::Pool p(1);
  std::vector<int> worker(64, -2);
  p.parallel_for(
      0, 64,
      [&](int i) {
        worker[static_cast<std::size_t>(i)] = me::Pool::worker_index();
      },
      /*grain=*/1);
  EXPECT_EQ(worker, std::vector<int>(64, -1));
  EXPECT_EQ(p.stats().posted, 0);
}

TEST_F(ExecPool, ParallelForNeverRunsForeignTasks) {
  // A loop's caller runs only that loop's chunks. With both workers
  // parked and one foreign task queued, a top-level loop must finish on
  // the caller alone and leave the foreign task queued.
  me::Pool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> parked{0};
  std::vector<std::future<void>> blockers;
  for (int w = 0; w < pool.size(); ++w)
    blockers.push_back(pool.submit([&] {
      parked.fetch_add(1);
      opened.wait();
    }));
  while (parked.load() < pool.size()) std::this_thread::yield();

  std::atomic<bool> foreign_ran{false};
  auto foreign = pool.submit([&] { foreign_ran.store(true); });
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 64, [&](int i) { hits[static_cast<size_t>(i)]++; });
  EXPECT_FALSE(foreign_ran.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  gate.set_value();
  pool.get(std::move(foreign));
  for (auto& b : blockers) pool.get(std::move(b));
  EXPECT_TRUE(foreign_ran.load());
}

TEST_F(ExecPool, NestedSubmissionDoesNotDeadlock) {
  // A task that fans out subtasks and waits for them — even on a
  // single-worker pool the helping wait must make progress.
  for (int threads : {1, 4}) {
    me::Pool pool(threads);
    auto outer = pool.submit([&pool] {
      std::vector<std::future<int>> inner;
      for (int i = 0; i < 8; ++i)
        inner.push_back(pool.submit([i] { return i * i; }));
      int sum = 0;
      for (auto& f : inner) sum += pool.get(std::move(f));
      return sum;
    });
    EXPECT_EQ(pool.get(std::move(outer)), 140);
  }
}

TEST_F(ExecPool, ExceptionsPropagateThroughFutures) {
  me::Pool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.get(std::move(f)), std::runtime_error);

  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](int i) {
                          if (i == 31) throw std::runtime_error("pfor");
                        }),
      std::runtime_error);
}

TEST_F(ExecPool, WorkerIndexAndRngStreams) {
  me::Pool pool(3);
  EXPECT_EQ(me::Pool::worker_index(), -1);  // not a worker thread
  std::mutex mu;
  std::set<int> indices;
  std::set<std::uint64_t> streams;
  pool.parallel_for(0, 64, [&](int) {
    const int w = me::Pool::worker_index();
    std::lock_guard<std::mutex> lock(mu);
    if (w >= 0) {
      indices.insert(w);
      streams.insert(mu::thread_stream_id());
    }
  });
  for (int w : indices) EXPECT_LT(w, 3);
  // Worker w uses rng stream w+1 (0 is reserved for non-workers).
  for (auto s : streams) EXPECT_GE(s, 1u);
}

TEST_F(ExecPool, OrderedGatherMatchesSerialAppend) {
  auto fn = [](int i, std::vector<int>& out) {
    if (i % 3 != 1) out.push_back(i * 5);
  };
  std::vector<int> serial;
  for (int i = 0; i < 1000; ++i) fn(i, serial);
  for (int workers : {1, 4}) {
    me::Pool p(workers);
    const auto par = me::ordered_gather<int>(p, 1000, 7, fn);
    EXPECT_EQ(par, serial) << "pool " << workers;
  }
}

// ---- rng streams ---------------------------------------------------------

TEST(ExecRng, StreamsAreDeterministicAndIndependent) {
  mu::Rng a0 = mu::Rng::stream(42, 0);
  mu::Rng a0_again = mu::Rng::stream(42, 0);
  mu::Rng a1 = mu::Rng::stream(42, 1);
  mu::Rng b0 = mu::Rng::stream(43, 0);
  const std::uint64_t x = a0.next_u64();
  EXPECT_EQ(x, a0_again.next_u64());  // same (seed, id) → same stream
  EXPECT_NE(x, a1.next_u64());        // different id → different stream
  EXPECT_NE(x, b0.next_u64());        // different seed → different stream
}

// ---- TaskGraph -----------------------------------------------------------

TEST_F(ExecTaskGraph, RespectsDependencyOrder) {
  me::Pool pool(4);
  me::TaskGraph graph;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  // Diamond over a chain:  0 → {1, 2} → 3 → 4.
  const auto a = graph.add("a", [&] { record(0); });
  const auto b = graph.add("b", [&] { record(1); }, {a});
  const auto c = graph.add("c", [&] { record(2); }, {a});
  const auto d = graph.add("d", [&] { record(3); }, {b, c});
  graph.add("e", [&] { record(4); }, {d});
  graph.run(pool);

  ASSERT_EQ(order.size(), 5u);
  auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(3), pos(4));
}

TEST_F(ExecTaskGraph, WideGraphRunsEveryNode) {
  me::Pool pool(4);
  me::TaskGraph graph;
  std::atomic<int> ran{0};
  const auto root = graph.add("root", [&] { ran++; });
  std::vector<me::TaskGraph::NodeId> mids;
  for (int i = 0; i < 50; ++i)
    mids.push_back(graph.add("mid", [&] { ran++; }, {root}));
  graph.add("sink", [&] { ran++; }, mids);
  graph.run(pool);
  EXPECT_EQ(ran.load(), 52);
}

TEST_F(ExecTaskGraph, FailedNodeSkipsDownstreamAndRethrows) {
  me::Pool pool(2);
  me::TaskGraph graph;
  std::atomic<int> ran{0};
  const auto a = graph.add("a", [&] { ran++; });
  const auto bad =
      graph.add("bad", [&] { throw std::runtime_error("node"); }, {a});
  graph.add("after_bad", [&] { ran++; }, {bad});   // must not run
  graph.add("sibling", [&] { ran++; }, {a});       // unaffected branch
  EXPECT_THROW(graph.run(pool), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);  // a + sibling
}

TEST_F(ExecTaskGraph, RejectsForwardDeps) {
  me::TaskGraph graph;
  EXPECT_THROW(graph.add("x", [] {}, {0}), mu::Error);
}

// ---- FlowCache -----------------------------------------------------------

TEST_F(ExecFlowCache, HitOnIdenticalKeyMissOnDifferent) {
  const auto nl = tiny();
  me::FlowCache cache(8);
  const auto opt = tiny_opts();

  auto r1 = cache.get_or_run(nl, mc::Config::TwoD12T, opt);
  auto r2 = cache.get_or_run(nl, mc::Config::TwoD12T, opt);
  EXPECT_EQ(r1.get(), r2.get());  // same shared result object
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Any knob change is a different key.
  auto opt2 = opt;
  opt2.clock_period_ns *= 1.25;
  cache.get_or_run(nl, mc::Config::TwoD12T, opt2);
  EXPECT_EQ(cache.stats().misses, 2u);

  // A different config is a different key.
  cache.get_or_run(nl, mc::Config::TwoD9T, opt);
  EXPECT_EQ(cache.stats().misses, 3u);

  // A structurally different netlist is a different key.
  cache.get_or_run(tiny("ldpc", 0.04), mc::Config::TwoD12T, opt);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST_F(ExecFlowCache, CornerSpecsNeverShareAnEntry) {
  // Regression for the option-hash coverage of FlowOptions::sta_corners:
  // a multi-corner flow makes different ECO decisions and reports
  // different signoff metrics, so serving it a single-corner cached flow
  // (or vice versa) would be silently wrong.
  const auto base = tiny_opts();
  auto sweep = base;
  sweep.sta_corners.count = 16;
  sweep.sta_corners.sigma[0] = 0.03;
  sweep.sta_corners.sigma[1] = 0.08;
  sweep.sta_corners.derate[1] = 1.05;
  EXPECT_NE(me::FlowCache::options_hash(base),
            me::FlowCache::options_hash(sweep));

  // Every corner field is load-bearing for the key.
  for (auto tweak : std::vector<std::function<void(mc::FlowOptions&)>>{
           [](mc::FlowOptions& o) { o.sta_corners.count = 32; },
           [](mc::FlowOptions& o) { o.sta_corners.sigma[1] = 0.1; },
           [](mc::FlowOptions& o) { o.sta_corners.derate[0] = 1.02; },
           [](mc::FlowOptions& o) { o.sta_corners.seed += 1; }}) {
    auto varied = sweep;
    tweak(varied);
    EXPECT_NE(me::FlowCache::options_hash(sweep),
              me::FlowCache::options_hash(varied));
  }

  // And end to end: two different corner sets miss each other.
  const auto nl = tiny();
  me::FlowCache cache(8);
  cache.get_or_run(nl, mc::Config::Hetero3D, base);
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.get_or_run(nl, mc::Config::Hetero3D, sweep);
  EXPECT_EQ(cache.stats().misses, 2u);
  cache.get_or_run(nl, mc::Config::Hetero3D, sweep);
  EXPECT_EQ(cache.stats().hits, 1u);
  // The sweep's result actually carries the multi-corner view.
  const auto res = cache.lookup(nl, mc::Config::Hetero3D, sweep);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->metrics.sta_corners, 16);
  EXPECT_LE(res->metrics.wns_worst_corner_ns, res->metrics.wns_ns);
  const auto res1 = cache.lookup(nl, mc::Config::Hetero3D, base);
  ASSERT_NE(res1, nullptr);
  EXPECT_EQ(res1->metrics.sta_corners, 1);
  EXPECT_EQ(res1->metrics.wns_worst_corner_ns, res1->metrics.wns_ns);
}

TEST_F(ExecFlowCache, PartitionOptionsNeverShareAnEntry) {
  // Every FmOptions field the partition stage reads is load-bearing for
  // the key. Vector fields start populated so each tweak changes an
  // element, not just a length.
  auto base = tiny_opts();
  base.fm.tier_share = {0.5, 0.5};
  base.fm.tier_area_cap_um2 = {0.0, 0.0};
  base.fm.tier_process = {m3d::cost::TierProcess{}, m3d::cost::TierProcess{}};
  using Tweak = std::function<void(m3d::part::FmOptions&)>;
  const std::vector<std::pair<const char*, Tweak>> tweaks = {
      {"tier_share", [](auto& o) { o.tier_share[1] = 0.6; }},
      {"balance_tol", [](auto& o) { o.balance_tol += 0.05; }},
      {"bins", [](auto& o) { o.bins += 1; }},
      {"seed", [](auto& o) { o.seed += 1; }},
      {"tier_area_cap_um2", [](auto& o) { o.tier_area_cap_um2[1] = 500.0; }},
      {"tier_process", [](auto& o) { o.tier_process[1].feol_fraction = 0.2; }},
  };
  const auto h0 = me::FlowCache::options_hash(base);
  for (const auto& [field, tweak] : tweaks) {
    auto a = base;
    tweak(a.fm);
    EXPECT_NE(me::FlowCache::options_hash(a), h0) << "fm." << field;
  }
}

TEST_F(ExecFlowCache, FieldsRunFlowOverwritesShareOneEntry) {
  // run_flow overwrites these fields before it reads them, so they must
  // not split the key: flows that differ only here give the same bits.
  const auto base = tiny_opts();
  using Tweak = std::function<void(mc::FlowOptions&)>;
  const std::vector<std::pair<const char*, Tweak>> tweaks = {
      {"place.utilization", [](auto& o) { o.place.utilization = 0.5; }},
      {"opt.routed", [](auto& o) { o.opt.routed = false; }},
      {"fm.cost_weight", [](auto& o) { o.fm.cost_weight = 1e4; }},
      {"fm.utilization", [](auto& o) { o.fm.utilization = 0.5; }},
      {"timing_part.fm.balance_tol",
       [](auto& o) { o.timing_part.fm.balance_tol += 0.05; }},
      {"timing_part.fm.bins", [](auto& o) { o.timing_part.fm.bins += 1; }},
      {"timing_part.fm.seed", [](auto& o) { o.timing_part.fm.seed += 1; }},
      {"timing_part.fm.tier_share",
       [](auto& o) { o.timing_part.fm.tier_share = {0.4, 0.6}; }},
      {"timing_part.fm.tier_area_cap_um2",
       [](auto& o) { o.timing_part.fm.tier_area_cap_um2 = {0.0, 500.0}; }},
      {"timing_part.fm.tier_process",
       [](auto& o) {
         o.timing_part.fm.tier_process = {m3d::cost::TierProcess{},
                                          {0.2, 0.5}};
       }},
      {"timing_part.fm.cost_weight",
       [](auto& o) { o.timing_part.fm.cost_weight = 1e4; }},
      {"timing_part.fm.utilization",
       [](auto& o) { o.timing_part.fm.utilization = 0.5; }},
      {"cts.mode",
       [](auto& o) { o.cts.mode = m3d::cts::Mode3D::PerDie; }},
      {"cts.prefer_low_power_trunk",
       [](auto& o) { o.cts.prefer_low_power_trunk = false; }},
  };
  const auto h0 = me::FlowCache::options_hash(base);
  auto all = base;
  for (const auto& [field, tweak] : tweaks) {
    auto a = base;
    tweak(a);
    EXPECT_EQ(me::FlowCache::options_hash(a), h0) << field;
    tweak(all);
  }
  EXPECT_EQ(me::FlowCache::options_hash(all), h0);

  // One Hetero-3D flow (the configuration that runs the timing partition)
  // with every field changed reports the same metrics.
  const auto nl = tiny();
  const auto a = mc::run_flow(nl, mc::Config::Hetero3D, base);
  const auto b = mc::run_flow(nl, mc::Config::Hetero3D, all);
  EXPECT_EQ(m3d::io::metrics_csv({a.metrics}),
            m3d::io::metrics_csv({b.metrics}));
}

TEST_F(ExecFlowCache, EvictsLeastRecentlyUsed) {
  const auto nl = tiny();
  me::FlowCache cache(2);
  auto o1 = tiny_opts(1.0), o2 = tiny_opts(1.1), o3 = tiny_opts(1.2);
  cache.get_or_run(nl, mc::Config::TwoD12T, o1);
  cache.get_or_run(nl, mc::Config::TwoD12T, o2);
  cache.get_or_run(nl, mc::Config::TwoD12T, o1);  // o1 now most recent
  cache.get_or_run(nl, mc::Config::TwoD12T, o3);  // evicts o2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.lookup(nl, mc::Config::TwoD12T, o1), nullptr);
  EXPECT_EQ(cache.lookup(nl, mc::Config::TwoD12T, o2), nullptr);
  EXPECT_NE(cache.lookup(nl, mc::Config::TwoD12T, o3), nullptr);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ExecFlowCache, ConcurrentSameKeyComputesOnce) {
  const auto nl = tiny();
  me::FlowCache cache(8);
  me::Pool pool(4);
  const auto opt = tiny_opts();
  std::vector<std::future<me::FlowCache::ResultPtr>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(pool.submit(
        [&] { return cache.get_or_run(nl, mc::Config::TwoD12T, opt); }));
  std::set<const mc::FlowResult*> distinct;
  for (auto& f : futures) distinct.insert(pool.get(std::move(f)).get());
  EXPECT_EQ(distinct.size(), 1u);  // one computation, everyone shares it
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits + s.joins, 7u);
}

TEST_F(ExecFlowCache, SameKeyFanOutOnKernelPoolComputesEachKeyOnce) {
  // Four configs, each requested twice by pool tasks whose flows fan
  // their kernels out onto that same pool. A kernel loop never runs a
  // sibling request, so each key is computed once and its second request
  // hits or joins, at any pool size.
  unsetenv("M3D_FLOW_CACHE_DIR");  // keep the disk tier out of the counts
  const auto nl = tiny("netcard", kWideScale);
  for (int workers : {1, 2, 4}) {
    me::Pool pool(workers);
    me::FlowCache cache(16);
    auto opt = tiny_opts();
    opt.pool = &pool;
    std::vector<std::future<me::FlowCache::ResultPtr>> futures;
    for (mc::Config cfg : {mc::Config::TwoD12T, mc::Config::TwoD9T,
                           mc::Config::ThreeD12T, mc::Config::Hetero3D})
      for (int request = 0; request < 2; ++request)
        futures.push_back(pool.submit(
            [&, cfg] { return cache.get_or_run(nl, cfg, opt); }));
    for (auto& f : futures) EXPECT_NE(pool.get(std::move(f)), nullptr);
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 4u) << "pool " << workers;
    EXPECT_EQ(s.hits + s.joins, 4u) << "pool " << workers;
    EXPECT_EQ(s.bypasses, 0u) << "pool " << workers;
  }
}

TEST_F(ExecFlowCache, FingerprintSeparatesNetlists) {
  const auto a = tiny("aes", 0.04);
  const auto b = tiny("ldpc", 0.04);
  EXPECT_EQ(me::FlowCache::fingerprint(a), me::FlowCache::fingerprint(a));
  EXPECT_NE(me::FlowCache::fingerprint(a), me::FlowCache::fingerprint(b));

  auto c = a;
  c.set_activity(0, c.net(0).activity + 0.01);  // any electrical change shows up
  EXPECT_NE(me::FlowCache::fingerprint(a), me::FlowCache::fingerprint(c));
}

TEST_F(ExecFlowCache, DiskPersistsAcrossInstances) {
  const std::string dir = ::testing::TempDir() + "m3d_flow_cache_disk";
  std::filesystem::remove_all(dir);
  setenv("M3D_FLOW_CACHE_DIR", dir.c_str(), 1);

  const auto nl = tiny("cpu", 0.04);
  const auto opt = tiny_opts();
  me::FlowCache first(8);
  const auto computed = first.get_or_run(nl, mc::Config::Hetero3D, opt);
  EXPECT_EQ(first.stats().misses, 1u);
  EXPECT_EQ(first.stats().disk_writes, 1u);

  // A fresh cache instance stands in for a new process: its memory miss
  // must be served by deserializing the persisted file, and the loaded
  // result must be indistinguishable from the computed one.
  me::FlowCache second(8);
  const auto loaded = second.get_or_run(nl, mc::Config::Hetero3D, opt);
  EXPECT_EQ(second.stats().misses, 1u);
  EXPECT_EQ(second.stats().disk_hits, 1u);
  EXPECT_EQ(second.stats().disk_writes, 0u);
  EXPECT_EQ(m3d::io::metrics_csv({computed->metrics}),
            m3d::io::metrics_csv({loaded->metrics}));
  EXPECT_EQ(computed->repart.cells_moved, loaded->repart.cells_moved);
  EXPECT_EQ(computed->timing_part.pinned_cells,
            loaded->timing_part.pinned_cells);
  EXPECT_EQ(computed->opt.buffers_added, loaded->opt.buffers_added);
  ASSERT_EQ(computed->design.nl().cell_count(),
            loaded->design.nl().cell_count());
  for (mn::CellId c = 0; c < computed->design.nl().cell_count(); ++c) {
    ASSERT_EQ(computed->design.tier(c), loaded->design.tier(c));
    ASSERT_EQ(computed->design.pos(c).x, loaded->design.pos(c).x);
    ASSERT_EQ(computed->design.pos(c).y, loaded->design.pos(c).y);
  }

  // A corrupted file is a miss, not an error: truncate the single entry
  // and make sure a third instance silently recomputes.
  for (const auto& e : std::filesystem::directory_iterator(dir))
    std::filesystem::resize_file(e.path(),
                                 std::filesystem::file_size(e.path()) / 2);
  me::FlowCache third(8);
  const auto recomputed = third.get_or_run(nl, mc::Config::Hetero3D, opt);
  EXPECT_EQ(third.stats().disk_hits, 0u);
  EXPECT_EQ(third.stats().disk_writes, 1u);  // rewrote a good entry
  EXPECT_EQ(m3d::io::metrics_csv({computed->metrics}),
            m3d::io::metrics_csv({recomputed->metrics}));

  unsetenv("M3D_FLOW_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

namespace {

std::string read_bytes(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_bytes(const std::filesystem::path& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The single entry of a disk-cache directory.
std::filesystem::path only_entry(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    files.push_back(e.path());
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? std::filesystem::path() : files.front();
}

void expect_same_positions(const mc::FlowResult& a, const mc::FlowResult& b) {
  ASSERT_EQ(a.design.nl().cell_count(), b.design.nl().cell_count());
  for (mn::CellId c = 0; c < a.design.nl().cell_count(); ++c) {
    ASSERT_EQ(a.design.tier(c), b.design.tier(c)) << "cell " << c;
    ASSERT_EQ(a.design.pos(c).x, b.design.pos(c).x) << "cell " << c;
    ASSERT_EQ(a.design.pos(c).y, b.design.pos(c).y) << "cell " << c;
  }
}

}  // namespace

TEST_F(ExecFlowCache, DiskEntryWithFlippedDesignStateByteIsAMiss) {
  // The netlist fingerprint covers only the netlist; the design state
  // after it is the checksum's job. Flip the low-order byte of the last
  // cell's y: a fresh instance must recompute, never serve the moved cell.
  const std::string dir = ::testing::TempDir() + "m3d_flow_cache_flip";
  std::filesystem::remove_all(dir);
  setenv("M3D_FLOW_CACHE_DIR", dir.c_str(), 1);

  const auto nl = tiny("aes", 0.05);
  const auto opt = tiny_opts();
  me::FlowCache first(8);
  const auto computed = first.get_or_run(nl, mc::Config::Hetero3D, opt);
  ASSERT_EQ(first.stats().disk_writes, 1u);

  const auto path = only_entry(dir);
  std::string bytes = read_bytes(path);
  const mn::Design& d = computed->design;
  const double y = d.pos(d.nl().cell_count() - 1).y;
  const std::string bits(reinterpret_cast<const char*>(&y), sizeof y);
  const std::size_t at = bytes.rfind(bits);  // the last cell's record
  ASSERT_NE(at, std::string::npos);
  bytes[at] = static_cast<char>(bytes[at] ^ 1);  // host-endian low byte
  write_bytes(path, bytes);

  me::FlowCache second(8);
  const auto loaded = second.get_or_run(nl, mc::Config::Hetero3D, opt);
  EXPECT_EQ(second.stats().disk_hits, 0u);
  EXPECT_EQ(second.stats().disk_writes, 1u);
  expect_same_positions(*computed, *loaded);

  unsetenv("M3D_FLOW_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST_F(ExecFlowCache, DiskEntryWithOversizedPayloadFieldIsAMiss) {
  // A size field far beyond the bytes in the file must be rejected by
  // comparison, not by trying to allocate it.
  const std::string dir = ::testing::TempDir() + "m3d_flow_cache_size";
  std::filesystem::remove_all(dir);
  setenv("M3D_FLOW_CACHE_DIR", dir.c_str(), 1);

  const auto nl = tiny("aes", 0.05);
  const auto opt = tiny_opts();
  me::FlowCache first(8);
  const auto computed = first.get_or_run(nl, mc::Config::Hetero3D, opt);

  // Envelope bytes 40–47: after magic 8, version 4, netlist fingerprint 8,
  // config 4, options hash 8, stage 4 and iteration 4.
  const auto path = only_entry(dir);
  std::string bytes = read_bytes(path);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + 40, &huge, sizeof huge);
  write_bytes(path, bytes);
  const m3d::io::StateKey key{
      me::FlowCache::fingerprint(nl), static_cast<int>(mc::Config::Hetero3D),
      me::FlowCache::options_hash(opt), m3d::flow::kStageCount, 0};
  EXPECT_THROW(m3d::io::read_state_file(path.string(), key), mu::Error);

  me::FlowCache second(8);
  const auto loaded = second.get_or_run(nl, mc::Config::Hetero3D, opt);
  EXPECT_EQ(second.stats().disk_hits, 0u);
  EXPECT_EQ(second.stats().disk_writes, 1u);
  expect_same_positions(*computed, *loaded);

  unsetenv("M3D_FLOW_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST_F(ExecFlowCache, FrequencySearchRunsOneFlowPerStepAtAnyPoolSize) {
  // The binary search evaluates exactly one candidate per step, so a
  // fresh cache sees `iters` misses and nothing else — no flows off the
  // search path, no joins, no bypasses — whatever the pool size, and the
  // result is the same at every pool size.
  unsetenv("M3D_FLOW_CACHE_DIR");  // keep the disk tier out of the counts
  const auto nl = tiny();
  constexpr int kIters = 4;
  std::vector<double> ghz;
  for (int workers : {1, 4}) {
    me::Pool pool(workers);
    me::FlowCache cache(16);
    auto opt = tiny_opts();
    opt.pool = &pool;
    const me::Ctx ctx{&pool, &cache};
    ghz.push_back(mc::find_max_frequency(nl, mc::Config::TwoD12T, opt, 0.4,
                                         4.0, kIters, 0.05, &ctx));
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, std::uint64_t{kIters}) << "pool " << workers;
    EXPECT_EQ(s.hits, 0u) << "pool " << workers;
    EXPECT_EQ(s.joins, 0u) << "pool " << workers;
    EXPECT_EQ(s.bypasses, 0u) << "pool " << workers;
  }
  EXPECT_EQ(ghz[0], ghz[1]);
}

TEST_F(ExecSweep, RunFlowByteIdenticalAcrossPoolSizes) {
  // The largest generated netlist, scaled to clear the parallel-kernel
  // thresholds so the 4-thread run genuinely exercises the pooled paths
  // in placement, FM and STA.
  const auto nl = tiny("netcard", kWideScale);
  me::Pool serial(1), wide(4);
  auto o1 = tiny_opts();
  o1.pool = &serial;
  auto o4 = tiny_opts();
  o4.pool = &wide;
  const auto a = mc::run_flow(nl, mc::Config::Hetero3D, o1);
  const auto posted = wide.stats().posted;
  const auto b = mc::run_flow(nl, mc::Config::Hetero3D, o4);
  EXPECT_GT(wide.stats().posted, posted);  // the wide run fanned out
  EXPECT_EQ(m3d::io::metrics_csv({a.metrics}),
            m3d::io::metrics_csv({b.metrics}));
  ASSERT_EQ(a.design.nl().cell_count(), b.design.nl().cell_count());
  for (mn::CellId c = 0; c < a.design.nl().cell_count(); ++c) {
    ASSERT_EQ(a.design.tier(c), b.design.tier(c)) << "cell " << c;
    ASSERT_EQ(a.design.pos(c).x, b.design.pos(c).x) << "cell " << c;
    ASSERT_EQ(a.design.pos(c).y, b.design.pos(c).y) << "cell " << c;
  }
}

// ---- run_sweep determinism ----------------------------------------------

TEST_F(ExecSweep, ResultsIdenticalAtOneAndManyThreads) {
  // The acceptance property of the whole subsystem: a sweep fanned across
  // many workers is bit-identical to the serial sweep. Uses the real
  // bench path (build → frequency search → flows) at a tiny scale.
  setenv("M3D_BENCH_SCALE", "0.04", 1);

  m3d::bench::SweepOptions serial;
  serial.netlists = {"aes"};
  serial.configs = {mc::Config::TwoD12T, mc::Config::Hetero3D};
  serial.threads = 1;
  me::FlowCache cache_serial(16);
  serial.cache = &cache_serial;

  auto parallel = serial;
  const int hw = me::Pool::default_threads();
  parallel.threads = hw > 1 ? hw : 4;
  me::FlowCache cache_parallel(16);
  parallel.cache = &cache_parallel;

  const auto a = m3d::bench::run_sweep(serial);
  const auto b = m3d::bench::run_sweep(parallel);
  unsetenv("M3D_BENCH_SCALE");

  ASSERT_EQ(a.size(), b.size());
  std::vector<mc::DesignMetrics> ma, mb;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].netlist, b[i].netlist);
    EXPECT_EQ(a[i].cfg, b[i].cfg);
    EXPECT_EQ(a[i].period_ns, b[i].period_ns);  // exact, not approximate
    ma.push_back(a[i].metrics());
    mb.push_back(b[i].metrics());
  }
  // Byte-identical CSV renderings — the strongest equality we can state.
  EXPECT_EQ(m3d::io::metrics_csv(ma), m3d::io::metrics_csv(mb));
}

// ---- trace sink ----------------------------------------------------------

TEST_F(ExecTrace, EmitsParseableChromeTrace) {
  const std::string path = ::testing::TempDir() + "m3d_trace_test.json";
  mu::trace_begin(path);
  {
    mu::TraceSpan outer("outer", "detail \"quoted\"");
    mu::TraceSpan inner("inner");
    mu::trace_counter("counter", 3.5);
    mu::trace_instant("marker");
  }
  mu::trace_end();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaping
  // Balanced braces/brackets — cheap structural sanity of the JSON.
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : json) {
    if (escaped) { escaped = false; continue; }
    if (ch == '\\') { escaped = true; continue; }
    if (ch == '"') in_string = !in_string;
    if (in_string) continue;
    if (ch == '{' || ch == '[') depth++;
    if (ch == '}' || ch == ']') depth--;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());

  // Flow stages appear as spans when tracing wraps a flow.
  mu::trace_begin(path);
  { mc::run_flow(tiny(), mc::Config::Hetero3D, tiny_opts()); }
  mu::trace_end();
  std::ifstream in2(path);
  ASSERT_TRUE(in2.good());
  std::stringstream ss2;
  ss2 << in2.rdbuf();
  const std::string flow_json = ss2.str();
  for (const char* stage :
       {"\"flow\"", "\"synth\"", "\"place\"", "\"partition\"",
        "\"post_place_opt\"", "\"cts\"", "\"post_cts_opt\"",
        "\"repart_eco\"", "\"rebalance\"", "\"repart_fixup\"",
        "\"finalize\""})
    EXPECT_NE(flow_json.find(stage), std::string::npos) << stage;
  std::remove(path.c_str());
}

// ---- service-facing observability (PR-5 satellites) ----------------------

TEST_F(ExecPool, PendingCountsQueuedTasks) {
  // pending() is the m3dd stats verb's load signal: tasks submitted but
  // not yet picked up. Block the only worker, stack up tasks behind it,
  // and watch the count rise and drain.
  me::Pool pool(1);
  EXPECT_EQ(pool.pending(), 0);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> entered{false};
  auto blocker = pool.submit([&] {
    entered.store(true);
    opened.wait();
  });
  while (!entered.load()) std::this_thread::yield();
  EXPECT_EQ(pool.pending(), 0);  // the blocker was picked up, not queued

  constexpr int kQueued = 5;
  std::vector<std::future<void>> fs;
  fs.reserve(kQueued);
  for (int i = 0; i < kQueued; ++i)
    fs.push_back(pool.submit([&] { opened.wait(); }));
  EXPECT_EQ(pool.pending(), kQueued);

  gate.set_value();
  for (auto& f : fs) pool.get(std::move(f));
  pool.get(std::move(blocker));
  EXPECT_EQ(pool.pending(), 0);
}

TEST_F(ExecFlowCache, StatsSnapshotAccountsUnderServiceContention) {
  // The daemon shape: many client threads hammering lookup / get_or_run
  // on a small hot key set while another thread polls stats_snapshot()
  // (which must never take the cache lock — a stats verb can't stall
  // behind a running flow). Accounting identity at the end: every
  // get_or_run lands in exactly one of hits/joins/misses/bypasses, and
  // each hot key is computed exactly once.
  unsetenv("M3D_FLOW_CACHE_DIR");  // keep the disk tier out of the counts
  const auto a = tiny("aes", 0.04);
  const auto b = tiny("ldpc", 0.04);
  me::FlowCache cache(16);
  const auto opt = tiny_opts();

  std::atomic<int> gets{0};
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const auto s = cache.stats_snapshot();
      // Monotone counters: a snapshot can never see more claims resolved
      // than requests issued (relaxed loads, but each counter is atomic).
      EXPECT_LE(s.evictions, s.misses);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const auto& nl = ((i + t) % 2) ? a : b;
        auto r = cache.get_or_run(nl, mc::Config::Hetero3D, opt);
        EXPECT_NE(r, nullptr);
        gets.fetch_add(1);
        cache.lookup(nl, mc::Config::Hetero3D, opt);  // stats-neutral
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  poller.join();

  const auto s = cache.stats_snapshot();
  EXPECT_EQ(s.hits + s.joins + s.misses + s.bypasses,
            static_cast<std::uint64_t>(gets.load()));
  EXPECT_EQ(s.bypasses, 0u);  // no nested requests in this shape
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(s.misses, 2u);  // two hot keys, each computed once

  // stats() remains an alias of the snapshot.
  const auto alias = cache.stats();
  EXPECT_EQ(alias.hits, s.hits);
  EXPECT_EQ(alias.misses, s.misses);
}

TEST_F(ExecPool, ContentionStatsAccountForEveryTask) {
  me::Pool p(3);
  std::atomic<int> ran{0};
  p.parallel_for(0, 500, [&](int) { ran.fetch_add(1); }, /*grain=*/1);
  EXPECT_EQ(ran.load(), 500);
  // The loop posts at most one helper per worker; a helper that starts
  // after the chunks ran out leaves at once. Once none is queued, each
  // posted task was popped exactly once (locally or via a steal).
  EXPECT_LE(p.stats().posted, p.size());
  while (p.pending() != 0) std::this_thread::yield();
  const auto s = p.stats();
  EXPECT_EQ(s.posted, s.local_pops + s.steals);
}

TEST_F(ExecTrace, PoolTelemetryCountersAppearInTrace) {
  const std::string path = ::testing::TempDir() + "m3d_pool_trace.json";
  mu::trace_begin(path);
  {
    me::Pool p(2);
    p.parallel_for(0, 64, [](int) {}, /*grain=*/1);
  }
  mu::trace_end();
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("pool_pf_chunks"), std::string::npos);
  EXPECT_NE(json.find("pool_pf_caller_chunks"), std::string::npos);
  EXPECT_NE(json.find("pool_steals"), std::string::npos);
  std::remove(path.c_str());
}
