// Tests for the m3dd flow-service layer: JSON codec round-trips, wire
// protocol (job specs, digests, error shapes), job-queue admission /
// backpressure / drain semantics, and end-to-end daemon runs over real
// Unix-domain + TCP sockets — including the acceptance property that a
// daemon answer is byte-identical to a direct run_flow, and the
// drain → journal → restart → resume handoff.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "service/client.hpp"
#include "service/job_queue.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#include "mutate.hpp"

namespace fs = std::filesystem;
namespace mc = m3d::core;
namespace me = m3d::exec;
namespace mf = m3d::flow;
namespace ms = m3d::service;
namespace mu = m3d::util;

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mu::set_log_level(mu::LogLevel::Silent);
    // sun_path is 108 bytes; TempDir can be long, so sockets live in a
    // short /tmp name keyed by pid + test for parallel ctest safety.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = "/tmp/m3dsvc_" + std::to_string(::getpid()) + "_" + info->name();
    fs::remove_all(base_);
    fs::create_directories(base_);
    sock_ = base_ + "/d.sock";
  }
  void TearDown() override {
    mf::clear_interrupt();
    fs::remove_all(base_);
  }

  /// A fast spec (sub-100ms flow) all the end-to-end tests share.
  static ms::JobSpec fast_spec(int seed = 7) {
    ms::JobSpec s;
    s.design = "aes";
    s.scale = 0.03;
    s.seed = seed;
    return s;
  }

  /// What the daemon must agree with, computed locally.
  static std::string direct_digest(const ms::JobSpec& spec, me::Pool* pool) {
    mc::FlowOptions opt = spec.flow_options();
    opt.pool = pool;
    const mc::FlowResult res =
        mc::run_flow(spec.make_netlist(), spec.config, opt);
    return ms::result_digest(res);
  }

  std::string base_;
  std::string sock_;
};

using ServiceJson = ServiceTest;
using ServiceProtocol = ServiceTest;
using ServiceQueue = ServiceTest;
using ServiceDaemon = ServiceTest;

}  // namespace

// ---- JSON codec ----------------------------------------------------------

TEST_F(ServiceJson, DumpIsCanonicalAndParseRoundTrips) {
  ms::Json j = ms::Json::object();
  j["zeta"] = ms::Json(1.5);
  j["alpha"] = ms::Json(std::string("line\n\"quote\"\\tab\t"));
  j["count"] = ms::Json(42);
  j["big"] = ms::Json(static_cast<std::uint64_t>(1) << 40);
  j["flag"] = ms::Json(true);
  ms::Json arr = ms::Json::array();
  arr.push(ms::Json(1));
  arr.push(ms::Json(std::string("two")));
  arr.push(ms::Json());
  j["list"] = std::move(arr);

  const std::string text = j.dump();
  // Keys serialize sorted → deterministic wire bytes for equal content.
  EXPECT_LT(text.find("\"alpha\""), text.find("\"zeta\""));
  // Integers print without a decimal point (ids, counters).
  EXPECT_NE(text.find("\"count\":42"), std::string::npos);
  EXPECT_NE(text.find("1099511627776"), std::string::npos);
  // One line: the framing invariant of the protocol.
  EXPECT_EQ(text.find('\n'), std::string::npos);

  ms::Json back;
  std::string err;
  ASSERT_TRUE(ms::Json::parse(text, &back, &err)) << err;
  EXPECT_EQ(back.dump(), text);  // canonical fixed point
  EXPECT_EQ(back.num_or("zeta", 0), 1.5);
  EXPECT_EQ(back.num_or("count", 0), 42);
  EXPECT_TRUE(back.bool_or("flag", false));
  EXPECT_EQ(back.str_or("alpha", ""), "line\n\"quote\"\\tab\t");

  // Pretty output parses back to the same value.
  ASSERT_TRUE(ms::Json::parse(j.dump(2), &back, &err)) << err;
  EXPECT_EQ(back.dump(), text);
}

TEST_F(ServiceJson, ParseRejectsGarbageWithOffsets) {
  ms::Json out;
  std::string err;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"unterminated",
        "{\"a\" 1}", "nul", "--3"}) {
    EXPECT_FALSE(ms::Json::parse(bad, &out, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
  // \u escapes decode to UTF-8.
  ASSERT_TRUE(ms::Json::parse("\"\\u00e9\\u20ac\"", &out, &err)) << err;
  EXPECT_EQ(out.dump(), std::string("\"\xc3\xa9\xe2\x82\xac\""));
}

TEST_F(ServiceJson, IntFieldStoresOnlyWholeNumbersInRange) {
  // timeout_ms as the result verb reads it: 4294967296 used to wrap to 0
  // (an unbounded wait), 1.5 rounded to 2 and -1 waited forever.
  const auto read = [](const std::string& text, int* v, std::string* err) {
    ms::Json j;
    EXPECT_TRUE(ms::Json::parse(text, &j, err)) << text;
    return j.int_field("timeout_ms", 0, std::numeric_limits<int>::max(), v,
                       err);
  };
  int v = 600000;
  std::string err;
  EXPECT_TRUE(read("{}", &v, &err));
  EXPECT_EQ(v, 600000);  // missing: the caller's default stays
  EXPECT_TRUE(read(R"({"timeout_ms":2147483647})", &v, &err));
  EXPECT_EQ(v, std::numeric_limits<int>::max());
  for (const char* bad :
       {R"({"timeout_ms":4294967296})", R"({"timeout_ms":1.5})",
        R"({"timeout_ms":-1})", R"({"timeout_ms":2147483648})",
        R"({"timeout_ms":1e400})", R"({"timeout_ms":"60000"})"}) {
    v = 7;
    err.clear();
    EXPECT_FALSE(read(bad, &v, &err)) << bad;
    EXPECT_EQ(v, 7) << bad;  // nothing stored
    EXPECT_EQ(err.rfind("timeout_ms: ", 0), 0u) << err;
  }

  // Journal ids: whole numbers in [1, 2^53].
  ms::Json j;
  std::uint64_t id = 0;
  ASSERT_TRUE(ms::Json::parse(R"({"id":9007199254740992})", &j, &err));
  EXPECT_TRUE(j.int_field<std::uint64_t>("id", 1, std::uint64_t{1} << 53, &id,
                                         nullptr));
  EXPECT_EQ(id, std::uint64_t{1} << 53);
  for (const char* bad : {R"({"id":9007199254740994})", R"({"id":0})",
                          R"({"id":-1})"}) {
    ASSERT_TRUE(ms::Json::parse(bad, &j, &err));
    EXPECT_FALSE(j.int_field<std::uint64_t>("id", 1, std::uint64_t{1} << 53,
                                            &id, nullptr))
        << bad;
  }
}

// ---- protocol ------------------------------------------------------------

TEST_F(ServiceProtocol, JobSpecRoundTripsAndValidates) {
  ms::JobSpec s;
  s.design = "ldpc";
  s.scale = 0.08;
  s.seed = 13;
  s.config = mc::Config::ThreeD12T;
  s.period_ns = 1.4;
  s.max_sizing_rounds = 1;
  s.eco_iters = 2;

  ms::JobSpec back;
  std::string err;
  ASSERT_TRUE(ms::JobSpec::from_json(s.to_json(), &back, &err)) << err;
  EXPECT_EQ(back.label(), s.label());
  EXPECT_EQ(back.design, "ldpc");
  EXPECT_EQ(back.config, mc::Config::ThreeD12T);
  EXPECT_EQ(back.seed, 13);

  // Missing fields take defaults; the empty object is a valid spec.
  ASSERT_TRUE(ms::JobSpec::from_json(ms::Json::object(), &back, &err));
  EXPECT_EQ(back.design, "aes");

  auto reject = [&](const char* field, ms::Json v) {
    ms::Json j = ms::Json::object();
    j[field] = std::move(v);
    ms::JobSpec ignored;
    err.clear();
    EXPECT_FALSE(ms::JobSpec::from_json(j, &ignored, &err)) << field;
    EXPECT_NE(err.find(field), std::string::npos) << err;
  };
  reject("design", ms::Json(std::string("rocket")));
  reject("config", ms::Json(std::string("4d")));
  reject("scale", ms::Json(-1.0));
  reject("scale", ms::Json(99.0));
  reject("period_ns", ms::Json(0.0));
  reject("eco_iters", ms::Json(1000));
  // Integers are checked before they narrow: these used to pass as seed 7,
  // 3 ECO iterations, seed 0 and seed 8.
  reject("seed", ms::Json(4294967303.0));
  reject("eco_iters", ms::Json(4294967299.0));
  reject("seed", ms::Json(1e19));
  reject("seed", ms::Json(7.6));
}

TEST_F(ServiceProtocol, MutatedRequestsParseOrFailWithAMessage) {
  // The daemon's request path: Json::parse, then JobSpec::from_json, on
  // mutants of a valid submit line and of valid jobs.jsonl records (a
  // submit record nests its spec under "spec"). Each mutant must come
  // through as a spec or be refused with a message; nothing may throw.
  ms::JobSpec spec;
  spec.design = "ldpc";
  spec.seed = 13;
  spec.config = mc::Config::ThreeD12T;
  ms::Json submit = spec.to_json();
  submit["cmd"] = ms::Json("submit");
  ms::Json record = ms::Json::object();
  record["ev"] = ms::Json("submit");
  record["id"] = ms::Json(7);
  record["client"] = ms::Json("c-2");
  record["spec"] = spec.to_json();
  ms::Json done = ms::Json::object();
  done["ev"] = ms::Json("done");
  done["id"] = ms::Json(7);
  done["state"] = ms::Json("done");
  done["digest"] = ms::Json("6edacd20e73feef4-027a91fa1180e74b");
  const std::string corpus[] = {submit.dump(), record.dump(), done.dump()};

  mu::Rng rng(27);
  int specs = 0, bad_json = 0, bad_spec = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = m3d::test::mutate(corpus[i % 3], rng);
    try {
      ms::Json req;
      std::string err;
      if (!ms::Json::parse(line, &req, &err)) {
        EXPECT_FALSE(err.empty()) << line;
        ++bad_json;
        continue;
      }
      const ms::Json* nested = req.find("spec");
      ms::JobSpec out;
      err.clear();
      if (ms::JobSpec::from_json(nested ? *nested : req, &out, &err)) {
        ++specs;
      } else {
        EXPECT_FALSE(err.empty()) << line;
        ++bad_spec;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << ": "
                    << line;
    }
  }
  EXPECT_GT(specs, 0);
  EXPECT_GT(bad_json, 0);
  EXPECT_GT(bad_spec, 0);
}

TEST_F(ServiceProtocol, ConfigTokensCoverAllConfigsBothSpellings) {
  for (const mc::Config c :
       {mc::Config::TwoD9T, mc::Config::TwoD12T, mc::Config::ThreeD9T,
        mc::Config::ThreeD12T, mc::Config::Hetero3D}) {
    mc::Config parsed;
    ASSERT_TRUE(ms::parse_config(ms::config_token(c), &parsed));
    EXPECT_EQ(parsed, c);
    // The paper label the reports print is accepted too.
    ASSERT_TRUE(ms::parse_config(mc::config_name(c), &parsed));
    EXPECT_EQ(parsed, c);
  }
  mc::Config ignored;
  EXPECT_FALSE(ms::parse_config("hetero4d", &ignored));
}

TEST_F(ServiceProtocol, ResultDigestIsDeterministicAndDiscriminating) {
  me::Pool pool(1);
  const ms::JobSpec spec = fast_spec();
  const std::string d1 = direct_digest(spec, &pool);
  const std::string d2 = direct_digest(spec, &pool);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1.size(), 33u);  // %016x-%016x

  ms::JobSpec other = spec;
  other.config = mc::Config::TwoD12T;
  EXPECT_NE(direct_digest(other, &pool), d1);
}

// ---- job queue -----------------------------------------------------------

TEST_F(ServiceQueue, BackpressureRejectsWithRetryHint) {
  ms::QueueLimits lim;
  lim.max_queue = 2;
  lim.max_inflight_per_client = 8;
  ms::JobQueue q(lim);

  EXPECT_EQ(q.submit("c1", fast_spec(1)).kind, ms::SubmitOutcome::Accepted);
  EXPECT_EQ(q.submit("c1", fast_spec(2)).kind, ms::SubmitOutcome::Accepted);
  const ms::SubmitOutcome full = q.submit("c1", fast_spec(3));
  EXPECT_EQ(full.kind, ms::SubmitOutcome::QueueFull);
  EXPECT_GT(full.retry_after_ms, 0);
  EXPECT_EQ(q.stats().rejected_queue_full, 1u);

  // Popping frees queue depth (running jobs hold an executor, not a
  // queue slot) — the next submit lands.
  ms::Job job;
  ASSERT_TRUE(q.pop(&job));
  EXPECT_EQ(job.state, ms::JobState::Running);
  EXPECT_EQ(q.submit("c1", fast_spec(3)).kind, ms::SubmitOutcome::Accepted);
}

TEST_F(ServiceQueue, PerClientCapIsolatesClients) {
  ms::QueueLimits lim;
  lim.max_queue = 16;
  lim.max_inflight_per_client = 2;
  ms::JobQueue q(lim);

  const auto a1 = q.submit("greedy", fast_spec(1));
  const auto a2 = q.submit("greedy", fast_spec(2));
  ASSERT_EQ(a1.kind, ms::SubmitOutcome::Accepted);
  ASSERT_EQ(a2.kind, ms::SubmitOutcome::Accepted);
  EXPECT_EQ(q.submit("greedy", fast_spec(3)).kind,
            ms::SubmitOutcome::ClientLimit);
  // Another client is unaffected — the cap is per connection.
  EXPECT_EQ(q.submit("polite", fast_spec(4)).kind,
            ms::SubmitOutcome::Accepted);

  // A terminal job frees the greedy client's slot (even while Running).
  ms::Job job;
  ASSERT_TRUE(q.pop(&job));
  EXPECT_EQ(job.id, a1.id);  // FIFO
  q.complete(job.id, ms::JobState::Done, "d", "", "", false);
  EXPECT_EQ(q.submit("greedy", fast_spec(5)).kind,
            ms::SubmitOutcome::Accepted);
}

TEST_F(ServiceQueue, CancelWaitAndDrainSemantics) {
  ms::JobQueue q(ms::QueueLimits{});
  const auto s1 = q.submit("c", fast_spec(1));
  const auto s2 = q.submit("c", fast_spec(2));

  // Cancel hits Queued jobs only.
  EXPECT_TRUE(q.cancel(s2.id));
  EXPECT_FALSE(q.cancel(s2.id));
  EXPECT_EQ(q.get(s2.id)->state, ms::JobState::Cancelled);

  ms::Job job;
  ASSERT_TRUE(q.pop(&job));
  EXPECT_EQ(job.id, s1.id);
  EXPECT_FALSE(q.cancel(s1.id));  // Running is not cancellable

  // wait_terminal blocks until complete() lands.
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.complete(s1.id, ms::JobState::Done, "digest", "csv", "", true);
  });
  const auto waited = q.wait_terminal(s1.id, 5000);
  finisher.join();
  ASSERT_TRUE(waited.has_value());
  EXPECT_EQ(waited->state, ms::JobState::Done);
  EXPECT_EQ(waited->digest, "digest");
  EXPECT_TRUE(waited->cache_hit);
  EXPECT_GE(waited->run_ms, 0.0);

  // Drain: pop returns false, queued work is reported as unfinished.
  q.submit("c", fast_spec(3));
  q.begin_drain();
  EXPECT_FALSE(q.pop(&job));
  EXPECT_EQ(q.submit("c", fast_spec(4)).kind, ms::SubmitOutcome::QueueFull);
  const auto left = q.unfinished();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].spec.seed, fast_spec(3).seed);
}

TEST_F(ServiceQueue, RestoreKeepsOriginalIdsAndBumpsCounter) {
  ms::JobQueue q(ms::QueueLimits{});
  q.reserve_ids(41);
  q.restore(17, "recovered", fast_spec(9));
  q.restore(17, "recovered", fast_spec(9));  // double replay is a no-op
  EXPECT_EQ(q.get(17)->spec.seed, 9);
  // Fresh ids never collide with replayed or reserved ones.
  const auto fresh = q.submit("c", fast_spec(1));
  EXPECT_GE(fresh.id, 41u);
}

// ---- daemon end-to-end ---------------------------------------------------

TEST_F(ServiceDaemon, FourClientsGetDirectRunFlowAnswers) {
  // The tentpole acceptance test: 4 concurrent clients over a real Unix
  // socket, 2 distinct specs, every daemon digest byte-identical to a
  // local run_flow, and repeated specs served by the shared cache.
  me::Pool pool(2);
  me::FlowCache cache(32);
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.executors = 2;
  so.pool = &pool;
  so.cache = &cache;
  ms::Server server(so);
  server.start();

  const std::string want0 = direct_digest(fast_spec(100), &pool);
  const std::string want1 = direct_digest(fast_spec(101), &pool);

  std::atomic<int> mismatches{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> clients;
  for (int ci = 0; ci < 4; ++ci) {
    clients.emplace_back([&, ci] {
      ms::Client c = ms::Client::connect_unix(sock_);
      for (int ri = 0; ri < 3; ++ri) {
        const int which = (ci + ri) % 2;
        const ms::Json resp = c.submit_and_wait(fast_spec(100 + which));
        if (resp.str_or("state", "") != "done" ||
            resp.str_or("digest", "") != (which ? want1 : want0))
          mismatches.fetch_add(1);
        if (resp.bool_or("cache_hit", false)) hits.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(hits.load(), 0);  // 12 requests, 2 keys: the cache answered

  const auto cs = cache.stats();
  EXPECT_GE(cs.hits + cs.joins, 1u);

  // stats verb reflects the work.
  ms::Client c = ms::Client::connect_unix(sock_);
  const ms::Json stats = c.stats();
  EXPECT_TRUE(stats.bool_or("ok", false));
  const ms::Json* queue = stats.find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->num_or("done", 0), 12);
  EXPECT_EQ(queue->num_or("failed", 1), 0);

  // shutdown verb acks, then the daemon drains; the socket disappears.
  EXPECT_TRUE(c.shutdown().bool_or("ok", false));
  server.wait_drained();
  EXPECT_FALSE(fs::exists(sock_));
}

TEST_F(ServiceDaemon, ConfigReloadIgnoresBadValuesAndAppliesGoodOnes) {
  const std::string cfg = base_ + "/m3dd.conf";
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.config_file = cfg;
  so.limits.max_queue = 64;
  so.limits.max_inflight_per_client = 8;
  ms::Server server(so);
  auto limits = [&] {
    const ms::Json stats = server.stats_json();
    const ms::Json* q = stats.find("queue");
    EXPECT_NE(q, nullptr);
    return std::pair(q ? q->num_or("max_queue", -1) : -1.0,
                     q ? q->num_or("max_inflight_per_client", -1) : -1.0);
  };

  // A trailing letter, an int overflow and an unknown level: each line is
  // ignored, and the daemon keeps what it had.
  std::ofstream(cfg) << "max_queue=8x\n"
                     << "max_inflight_per_client=99999999999\n"
                     << "log_level=verbose\n";
  server.reload_config();
  EXPECT_EQ(limits(), std::pair(64.0, 8.0));
  EXPECT_EQ(mu::log_level(), mu::LogLevel::Silent);

  // A valid file applies.
  std::ofstream(cfg) << "max_queue = 48  # deeper queue\n"
                     << "max_inflight_per_client=3\n"
                     << "log_level=silent\n";
  server.reload_config();
  EXPECT_EQ(limits(), std::pair(48.0, 3.0));
}

TEST_F(ServiceDaemon, StatusCancelAndProtocolErrors) {
  me::Pool pool(1);
  me::FlowCache cache(8);
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.executors = 1;
  so.pool = &pool;
  so.cache = &cache;
  ms::Server server(so);
  server.start();

  ms::Client c = ms::Client::connect_unix(sock_);
  EXPECT_TRUE(c.ping().bool_or("ok", false));

  // Unknown verb / malformed ids come back as structured errors.
  ms::Json req = ms::Json::object();
  req["cmd"] = ms::Json(std::string("frobnicate"));
  EXPECT_EQ(c.request(req).str_or("error", ""), "bad_request");
  req["cmd"] = ms::Json(std::string("status"));
  req["id"] = ms::Json(std::string("j-zzz"));
  EXPECT_EQ(c.request(req).str_or("error", ""), "bad_id");
  req["id"] = ms::Json(std::string("j-424242"));
  EXPECT_EQ(c.request(req).str_or("error", ""), "unknown_id");

  // Submit + status + result: the normal polling conversation.
  const std::string id = c.submit(fast_spec(55));
  EXPECT_EQ(id.rfind("j-", 0), 0u);
  req = ms::Json::object();
  req["cmd"] = ms::Json(std::string("status"));
  req["id"] = ms::Json(id);
  const ms::Json st = c.request(req);
  EXPECT_TRUE(st.bool_or("ok", false));
  const ms::Json done = c.wait_result(id);
  EXPECT_EQ(done.str_or("state", ""), "done");
  EXPECT_FALSE(done.str_or("digest", "").empty());

  // A timeout that does not fit an int is refused, not wrapped.
  req["cmd"] = ms::Json(std::string("result"));
  req["timeout_ms"] = ms::Json(4294967296.0);
  const ms::Json bad = c.request(req);
  EXPECT_EQ(bad.str_or("error", ""), "bad_request");
  EXPECT_EQ(bad.str_or("detail", "").rfind("timeout_ms: ", 0), 0u);

  // A terminal job is not cancellable; the response names its state.
  req["cmd"] = ms::Json(std::string("cancel"));
  const ms::Json cr = c.request(req);
  EXPECT_EQ(cr.str_or("error", ""), "not_cancellable");
  EXPECT_EQ(cr.str_or("state", ""), "done");

  server.begin_drain();
  server.wait_drained();
}

TEST_F(ServiceDaemon, TcpListenerAnswersToo) {
  me::Pool pool(1);
  me::FlowCache cache(8);
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.tcp_port = -1;  // any free port
  so.pool = &pool;
  so.cache = &cache;
  ms::Server server(so);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  ms::Client c = ms::Client::connect_tcp(server.tcp_port());
  EXPECT_TRUE(c.ping().bool_or("ok", false));
  const ms::Json resp = c.submit_and_wait(fast_spec(77));
  EXPECT_EQ(resp.str_or("state", ""), "done");
  EXPECT_EQ(resp.str_or("digest", ""), direct_digest(fast_spec(77), &pool));

  server.begin_drain();
  server.wait_drained();
}

TEST_F(ServiceDaemon, SecondDaemonOnLiveSocketIsRejected) {
  me::Pool pool(1);
  me::FlowCache cache(8);
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.pool = &pool;
  so.cache = &cache;
  ms::Server first(so);
  first.start();

  ms::Server second(so);
  EXPECT_THROW(second.start(), std::runtime_error);

  first.begin_drain();
  first.wait_drained();

  // A stale socket file (daemon gone, file left) is reclaimed. Fake one
  // by binding + abandoning is what wait_drained already prevented, so
  // just touch a plain file — connect fails → unlink → fresh bind.
  { std::ofstream(sock_) << ""; }
  ms::Server third(so);
  third.start();
  ms::Client c = ms::Client::connect_unix(sock_);
  EXPECT_TRUE(c.ping().bool_or("ok", false));
  third.begin_drain();
  third.wait_drained();
}

TEST_F(ServiceDaemon, DrainJournalsInterruptedJobAndRestartResumesIt) {
  // The drain-handoff acceptance: a flow interrupted mid-run checkpoints,
  // the daemon journals it, and a *new* daemon over the same state_dir
  // resumes it under its original id to the byte-identical answer.
  const ms::JobSpec spec = fast_spec(200);
  me::Pool pool(1);
  const std::string want = direct_digest(spec, &pool);
  const std::string state = base_ + "/state";

  std::string id;
  {
    me::FlowCache cache(8);
    ms::ServerOptions so;
    so.socket_path = sock_;
    so.state_dir = state;
    so.executors = 1;
    so.pool = &pool;
    so.cache = &cache;
    ms::Server server(so);
    server.start();

    // Raise the interrupt flag *before* submitting: the executor's flow
    // deterministically stops at its first checkpoint boundary.
    mf::request_interrupt();
    ms::Client c = ms::Client::connect_unix(sock_);
    id = c.submit(spec);
    // result during drain returns the non-terminal state.
    const ms::Json r = c.wait_result(id, 10000);
    EXPECT_NE(r.str_or("state", ""), "done");
    server.begin_drain();
    server.wait_drained();
  }
  // The journal survived the daemon; checkpoints are on disk.
  EXPECT_TRUE(fs::exists(state + "/jobs.jsonl"));
  mf::clear_interrupt();

  {
    me::FlowCache cache(8);
    ms::ServerOptions so;
    so.socket_path = sock_;
    so.state_dir = state;
    so.executors = 1;
    so.pool = &pool;
    so.cache = &cache;
    ms::Server server(so);
    server.start();  // replays the journal → the job re-enters the queue

    ms::Client c = ms::Client::connect_unix(sock_);
    const ms::Json done = c.wait_result(id, 60000);
    EXPECT_EQ(done.str_or("state", ""), "done");
    EXPECT_EQ(done.str_or("digest", ""), want);
    server.begin_drain();
    server.wait_drained();
  }
  // Nothing unfinished → the compacted journal is removed.
  EXPECT_FALSE(fs::exists(state + "/jobs.jsonl"));
}

TEST_F(ServiceDaemon, JournalReplaySkipsRecordsWithUntrustedIds) {
  // A record whose id is not a whole number in [1, 2^53] is skipped like
  // a torn line. Read unchecked, "id":1.5 closed job 1, and "id":-5 came
  // back as job 18446744073709551611, pushing every later id past it.
  const std::string state = base_ + "/state";
  fs::create_directories(state);
  {
    ms::Json submit = ms::Json::object();
    submit["ev"] = ms::Json("submit");
    submit["client"] = ms::Json("c-1");
    submit["spec"] = fast_spec(400).to_json();
    std::ofstream os(state + "/jobs.jsonl");
    submit["id"] = ms::Json(1);
    os << submit.dump() << "\n";
    os << R"({"ev":"done","id":1.5})" << "\n";
    os << R"({"ev":"done","id":-1})" << "\n";
    submit["id"] = ms::Json(-5);
    os << submit.dump() << "\n";
  }
  me::Pool pool(1);
  me::FlowCache cache(8);
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.state_dir = state;
  so.executors = 1;
  so.pool = &pool;
  so.cache = &cache;
  ms::Server server(so);
  server.start();

  ms::Client c = ms::Client::connect_unix(sock_);
  EXPECT_EQ(c.wait_result("j-1", 60000).str_or("state", ""), "done");
  ms::Json req = ms::Json::object();
  req["cmd"] = ms::Json("status");
  req["id"] = ms::Json("j-18446744073709551611");
  EXPECT_EQ(c.request(req).str_or("error", ""), "unknown_id");
  EXPECT_EQ(c.submit(fast_spec(401)), "j-2");
  const ms::Json stats = c.stats();
  const ms::Json* queue = stats.find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->num_or("submitted", 0), 2);  // job 1 and the new one

  server.begin_drain();
  server.wait_drained();
}

TEST_F(ServiceDaemon, BackpressureSurfacesOverTheWire) {
  // One executor, a queue of 1, per-client cap 1: the second concurrent
  // submit from the same connection must be rejected with a retry hint,
  // and the honoring-retry client loop still lands everything.
  me::Pool pool(1);
  me::FlowCache cache(8);
  ms::ServerOptions so;
  so.socket_path = sock_;
  so.executors = 1;
  so.pool = &pool;
  so.cache = &cache;
  so.limits.max_queue = 1;
  so.limits.max_inflight_per_client = 1;
  ms::Server server(so);
  server.start();

  ms::Client c = ms::Client::connect_unix(sock_);
  // First submit is admitted.
  const std::string id1 = c.submit(fast_spec(300));
  // An immediate second submit violates the in-flight cap unless job 1
  // already finished; either way the raw request's answer is structured.
  ms::Json req = fast_spec(301).to_json();
  req["cmd"] = ms::Json(std::string("submit"));
  const ms::Json second = c.request(req);
  if (!second.bool_or("ok", false)) {
    // queue_full when job 1 is still queued (executor hasn't popped yet),
    // client_limit once it's running — both are honest backpressure.
    const std::string code = second.str_or("error", "");
    EXPECT_TRUE(code == "client_limit" || code == "queue_full") << code;
    EXPECT_GT(second.num_or("retry_after_ms", 0), 0);
  }
  // The retry loop shakes out: every spec completes with the right bytes.
  int rejections = 0;
  const ms::Json done = c.wait_result(id1, 60000);
  EXPECT_EQ(done.str_or("state", ""), "done");
  const ms::Json r2 = c.submit_and_wait(fast_spec(302), &rejections);
  EXPECT_EQ(r2.str_or("state", ""), "done");
  EXPECT_EQ(r2.str_or("digest", ""), direct_digest(fast_spec(302), &pool));

  server.begin_drain();
  server.wait_drained();
}
