// Tests for the flow::Checkpoint stage-restart layer: fault-spec parsing,
// crash/resume at every stage and ECO-iteration boundary (byte-identical
// to an uninterrupted run), corruption/version-mismatch degradation,
// cross-pool-size resume, cleanup-on-finish and trace instrumentation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "io/flow_state.hpp"
#include "io/reports.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace fs = std::filesystem;
namespace mc = m3d::core;
namespace me = m3d::exec;
namespace mf = m3d::flow;
namespace mg = m3d::gen;
namespace mio = m3d::io;
namespace mn = m3d::netlist;
namespace mu = m3d::util;

#include "sanitize.hpp"  // self-shrink under TSan/ASan

namespace {

constexpr double kWideScale = M3D_TEST_WIDE_SCALE;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mu::set_log_level(mu::LogLevel::Silent);
    dir_ = ::testing::TempDir() + "m3d_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    mf::fault_disarm();
    mf::clear_interrupt();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

mn::Netlist tiny(const char* which = "aes", double scale = 0.05) {
  mg::GenOptions g;
  g.scale = scale;
  return mg::make_design(which, g);
}

mc::FlowOptions tiny_opts(double period = 1.2) {
  mc::FlowOptions o;
  o.clock_period_ns = period;
  o.max_sizing_rounds = 2;
  o.eco_iters = 3;
  return o;
}

// The strongest equality we can state between two flow results: identical
// metrics CSV rendering, identical result netlist (fingerprint covers
// every cell, net, pin and activity), identical per-cell tier / exact
// position bits, and identical per-stage stats.
void expect_flow_equal(const mc::FlowResult& a, const mc::FlowResult& b) {
  EXPECT_EQ(m3d::io::metrics_csv({a.metrics}),
            m3d::io::metrics_csv({b.metrics}));
  EXPECT_EQ(me::FlowCache::fingerprint(a.design.nl()),
            me::FlowCache::fingerprint(b.design.nl()));
  EXPECT_EQ(a.repart.iterations, b.repart.iterations);
  EXPECT_EQ(a.repart.cells_moved, b.repart.cells_moved);
  EXPECT_EQ(a.repart.moves_undone, b.repart.moves_undone);
  EXPECT_EQ(a.timing_part.pinned_cells, b.timing_part.pinned_cells);
  EXPECT_EQ(a.opt.cells_upsized, b.opt.cells_upsized);
  EXPECT_EQ(a.opt.cells_downsized, b.opt.cells_downsized);
  EXPECT_EQ(a.opt.buffers_added, b.opt.buffers_added);
  ASSERT_EQ(a.design.nl().cell_count(), b.design.nl().cell_count());
  for (mn::CellId c = 0; c < a.design.nl().cell_count(); ++c) {
    ASSERT_EQ(a.design.tier(c), b.design.tier(c)) << "cell " << c;
    ASSERT_EQ(a.design.pos(c).x, b.design.pos(c).x) << "cell " << c;
    ASSERT_EQ(a.design.pos(c).y, b.design.pos(c).y) << "cell " << c;
    ASSERT_EQ(a.design.clock_latency(c), b.design.clock_latency(c))
        << "cell " << c;
  }
}

std::size_t checkpoint_files(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec))
    if (it->path().extension() == ".m3dckpt") ++n;
  return n;
}

}  // namespace

// ---- names & specs -------------------------------------------------------

TEST_F(CheckpointTest, StageNamesRoundTrip) {
  for (int i = 0; i < mf::kStageCount; ++i) {
    const auto s = static_cast<mf::Stage>(i);
    mf::Stage parsed;
    ASSERT_TRUE(mf::parse_stage(mf::stage_name(s), &parsed))
        << mf::stage_name(s);
    EXPECT_EQ(parsed, s);
  }
  mf::Stage ignored;
  EXPECT_FALSE(mf::parse_stage("", &ignored));
  EXPECT_FALSE(mf::parse_stage("gds_out", &ignored));
}

TEST_F(CheckpointTest, ParseFaultSpec) {
  mf::Stage s;
  int iter = -1;
  ASSERT_TRUE(mf::parse_fault_spec("cts", &s, &iter));
  EXPECT_EQ(s, mf::Stage::Cts);
  EXPECT_EQ(iter, 0);
  ASSERT_TRUE(mf::parse_fault_spec("repart_eco:2", &s, &iter));
  EXPECT_EQ(s, mf::Stage::RepartEco);
  EXPECT_EQ(iter, 2);
  ASSERT_TRUE(mf::parse_fault_spec("repart_fixup:998", &s, &iter));
  EXPECT_EQ(iter, 998);

  for (const char* bad : {"", "bogus", "cts:", "cts:0", "cts:-1", "cts:x",
                          "cts:999", ":1", "repart_eco:1:2"})
    EXPECT_FALSE(mf::parse_fault_spec(bad, &s, &iter)) << bad;
}

TEST_F(CheckpointTest, MalformedEnvFaultSpecIsTypedError) {
  // A kill point the run cannot parse fails the run, in the wording of
  // the numeric M3D_* knobs, instead of leaving it silently unarmed.
  setenv("M3D_FAULT_AT", "ctss", 1);
  std::string what;
  try {
    mc::run_flow(tiny(), mc::Config::Hetero3D, tiny_opts());
  } catch (const mu::Error& e) {
    what = e.what();
  }
  unsetenv("M3D_FAULT_AT");
  EXPECT_NE(what.find("M3D_FAULT_AT: malformed value 'ctss'"),
            std::string::npos)
      << "error: '" << what << "'";
}

// ---- crash/resume at every boundary --------------------------------------

TEST_F(CheckpointTest, ResumeAtEveryStageBoundaryIsByteIdentical) {
  // The acceptance property of the whole layer: kill the Hetero3D flow at
  // each of its nine stage-completion boundaries, resume, and demand the
  // final result byte-identical to a never-interrupted run.
  const auto nl = tiny();
  auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);

  opt.checkpoint_dir = dir_;
  for (int i = 0; i < mf::kStageCount; ++i) {
    const auto stage = static_cast<mf::Stage>(i);
    SCOPED_TRACE(mf::stage_name(stage));
    fs::remove_all(dir_);

    mf::fault_arm(stage);
    EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
                 mf::FaultInjected);
    ASSERT_GE(checkpoint_files(dir_), static_cast<std::size_t>(i + 1));

    const auto resumed = mc::run_flow(nl, mc::Config::Hetero3D, opt);
    expect_flow_equal(ref, resumed);
    // The completed resume run cleans its checkpoints back up.
    EXPECT_EQ(checkpoint_files(dir_), 0u);
  }
}

TEST_F(CheckpointTest, SixStageFlowsResumeAtEveryBoundaryByteIdentically) {
  // 2-D and homogeneous 3-D flows skip the three ECO stages: kill each at
  // its six boundaries, resume, and demand the uninterrupted result.
  const auto nl = tiny();
  for (const auto cfg : {mc::Config::TwoD12T, mc::Config::ThreeD9T}) {
    SCOPED_TRACE(mc::config_name(cfg));
    auto opt = tiny_opts();
    const auto ref = mc::run_flow(nl, cfg, opt);

    opt.checkpoint_dir = dir_;
    for (int i = 0; i <= static_cast<int>(mf::Stage::PostCtsOpt); ++i) {
      const auto stage = static_cast<mf::Stage>(i);
      SCOPED_TRACE(mf::stage_name(stage));
      fs::remove_all(dir_);
      mf::fault_arm(stage);
      EXPECT_THROW(mc::run_flow(nl, cfg, opt), mf::FaultInjected);
      ASSERT_EQ(checkpoint_files(dir_), static_cast<std::size_t>(i + 1));
      expect_flow_equal(ref, mc::run_flow(nl, cfg, opt));
      EXPECT_EQ(checkpoint_files(dir_), 0u);
    }
  }

  // A kill point at an ECO stage never fires on a 2-D flow, which leaves
  // no checkpoint behind.
  auto opt = tiny_opts();
  opt.checkpoint_dir = dir_;
  fs::remove_all(dir_);
  mf::fault_arm(mf::Stage::RepartEco);
  EXPECT_NO_THROW(mc::run_flow(nl, mc::Config::TwoD12T, opt));
  EXPECT_EQ(checkpoint_files(dir_), 0u);
}

TEST_F(CheckpointTest, ResumeMidEcoIterationIsByteIdentical) {
  // Iteration boundaries inside the two ECO loops: the resumed run
  // rebuilds routes + full STA and picks the loop up where it died — the
  // incremental-vs-full STA fingerprint check inside repartition_eco
  // guards that rebuild.
  const auto nl = tiny();
  auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  ASSERT_GE(ref.repart.iterations, 2) << "need a multi-iteration ECO";

  opt.checkpoint_dir = dir_;
  struct Boundary { mf::Stage stage; int iter; };
  for (const Boundary b : {Boundary{mf::Stage::RepartEco, 1},
                           Boundary{mf::Stage::RepartEco, 2},
                           Boundary{mf::Stage::RepartFixup, 1}}) {
    SCOPED_TRACE(std::string(mf::stage_name(b.stage)) + ":" +
                 std::to_string(b.iter));
    fs::remove_all(dir_);
    mf::fault_arm(b.stage, b.iter);
    EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
                 mf::FaultInjected);
    const auto resumed = mc::run_flow(nl, mc::Config::Hetero3D, opt);
    expect_flow_equal(ref, resumed);
  }
}

TEST_F(CheckpointTest, ResumeRebuildsExplicitTierStack) {
  // An explicit FlowOptions::tiers stack must survive the resume: the
  // loader rebuilds the Design via design_for_flow, not the config's
  // default two-library mapping — with the wrong stack the restored
  // per-cell tiers would be out of range or mis-libbed.
  const auto nl = tiny();
  auto opt = tiny_opts();
  opt.tiers.resize(3);
  opt.tiers[0].tech = "12T";
  opt.tiers[1].tech = "9T";
  opt.tiers[2].tech = "9T";
  const auto ref = mc::run_flow(nl, mc::Config::ThreeD12T, opt);
  EXPECT_EQ(ref.design.num_tiers(), 3);

  opt.checkpoint_dir = dir_;
  for (const auto stage : {mf::Stage::Partition, mf::Stage::Cts}) {
    SCOPED_TRACE(mf::stage_name(stage));
    fs::remove_all(dir_);
    mf::fault_arm(stage);
    EXPECT_THROW(mc::run_flow(nl, mc::Config::ThreeD12T, opt),
                 mf::FaultInjected);
    const auto resumed = mc::run_flow(nl, mc::Config::ThreeD12T, opt);
    EXPECT_EQ(resumed.design.num_tiers(), 3);
    expect_flow_equal(ref, resumed);
  }
}

TEST_F(CheckpointTest, FaultFiresWithoutCheckpointDirectory) {
  // Kill points are independent of checkpointing: "the flow dies here"
  // must be testable on its own.
  const auto nl = tiny();
  const auto opt = tiny_opts();  // no checkpoint_dir
  mf::fault_arm(mf::Stage::Place);
  EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
               mf::FaultInjected);
  // Disarmed after firing: the next run completes.
  const auto res = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  EXPECT_GT(res.design.nl().cell_count(), 0);
}

// ---- corruption & version policy -----------------------------------------

TEST_F(CheckpointTest, CorruptedCheckpointDegradesToOlderThenCold) {
  const auto nl = tiny();
  auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);

  opt.checkpoint_dir = dir_;
  mf::fault_arm(mf::Stage::PostCtsOpt);
  EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
               mf::FaultInjected);

  // Newest boundary is post_cts_opt (s05). Flip payload bytes: the
  // checksum rejects it and resume degrades to the cts boundary.
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir_))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 2u);
  {
    std::fstream f(files.back(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    const char junk[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    f.write(junk, sizeof junk);
  }
  const auto degraded = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  expect_flow_equal(ref, degraded);

  // Corrupt every file (truncation this time): a full cold start, still
  // byte-identical, and never an error.
  mf::fault_arm(mf::Stage::PostCtsOpt);
  EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
               mf::FaultInjected);
  for (const auto& e : fs::directory_iterator(dir_))
    fs::resize_file(e.path(), fs::file_size(e.path()) / 3);
  const auto cold = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  expect_flow_equal(ref, cold);
}

TEST_F(CheckpointTest, VersionMismatchRecomputes) {
  const auto nl = tiny();
  auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);

  opt.checkpoint_dir = dir_;
  mf::fault_arm(mf::Stage::Cts);
  EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
               mf::FaultInjected);

  // Bump the version field (bytes 8..11, after the magic) in every file:
  // a future-format checkpoint must read as "not mine", not crash.
  for (const auto& e : fs::directory_iterator(dir_)) {
    std::fstream f(e.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const char v[4] = {'\x7f', '\x7f', '\x7f', '\x7f'};
    f.write(v, sizeof v);
  }
  const auto recomputed = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  expect_flow_equal(ref, recomputed);
}

TEST_F(CheckpointTest, OversizedPayloadFieldIsRejectedWithoutAllocating) {
  // A size field far beyond the bytes in the file must be rejected by
  // comparison, not by trying to allocate it; resume then starts cold.
  const auto nl = tiny();
  auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);

  opt.checkpoint_dir = dir_;
  mf::fault_arm(mf::Stage::Cts);
  EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
               mf::FaultInjected);

  // Envelope bytes 40–47: after magic 8, version 4, netlist fingerprint 8,
  // config 4, options hash 8, stage 4 and iteration 4.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::size_t patched = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    const std::string name = e.path().filename().string();
    int stage = -1, iter = -1;
    ASSERT_EQ(std::sscanf(name.c_str() + name.rfind("-s"),
                          "-s%d-i%d.m3dckpt", &stage, &iter),
              2);
    {
      std::fstream f(e.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(40);
      f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
    }
    const mio::StateKey key{me::FlowCache::fingerprint(nl),
                            static_cast<int>(mc::Config::Hetero3D),
                            mc::options_hash(opt), stage, iter};
    EXPECT_THROW(mio::read_state_file(e.path().string(), key), mu::Error);
    ++patched;
  }
  EXPECT_GE(patched, 5u);
  const auto cold = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  expect_flow_equal(ref, cold);
}

TEST(FlowState, SnapshotRoundTripsAndMutationsFailTyped) {
  // The one snapshot decoder, below the envelope checksum: a clean payload
  // decodes to the same state, and every byte-level mutation or
  // truncation either decodes or throws util::Error — no other exception,
  // no unbounded allocation, no sanitizer report. (Mutations of bytes the
  // netlist fingerprint does not cover may decode; in a file, the
  // envelope checksum rejects those.)
  mu::set_log_level(mu::LogLevel::Silent);
  const auto nl = tiny("cpu", 0.02);
  const auto opt = tiny_opts();
  const auto res = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  std::string payload;
  mio::BinWriter w{payload};
  mio::write_snapshot(w, res);
  {
    mio::BinReader r{payload};
    const auto back = mio::read_snapshot(r, mc::Config::Hetero3D, opt);
    r.expect_end();
    EXPECT_EQ(me::FlowCache::fingerprint(back.design.nl()),
              me::FlowCache::fingerprint(res.design.nl()));
    EXPECT_EQ(mn::state_digest(back.design), mn::state_digest(res.design));
    EXPECT_EQ(back.repart.cells_moved, res.repart.cells_moved);
    EXPECT_EQ(back.clock.buffer_count, res.clock.buffer_count);
    EXPECT_EQ(back.clock.max_skew_ns, res.clock.max_skew_ns);
  }

#ifdef M3D_TEST_SANITIZED
  constexpr int kMutations = 300;
#else
  constexpr int kMutations = 1500;
#endif
  mu::Rng rng(18);
  const int last = static_cast<int>(payload.size()) - 1;
  int decoded = 0, rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string m = payload;
    if (i % 10 == 0) {
      m.resize(static_cast<std::size_t>(rng.uniform_int(0, last)));
    } else {
      const int at = rng.uniform_int(0, last);
      const int n = std::min(rng.uniform_int(1, 4), last + 1 - at);
      for (int k = 0; k < n; ++k)
        m[static_cast<std::size_t>(at + k)] ^=
            static_cast<char>(rng.uniform_int(1, 255));
    }
    try {
      mio::BinReader r{m};
      mio::read_snapshot(r, mc::Config::Hetero3D, opt);
      ++decoded;
    } catch (const mu::Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " escaped as " << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kMutations);
  EXPECT_GT(rejected, kMutations / 2);
}

// ---- pool-size cross-resume (satellite: run under TSan too) ---------------

TEST_F(CheckpointTest, CheckpointCrossesPoolSizesByteIdentically) {
  // A checkpoint written at pool size 1 resumes at pool size 4 (and vice
  // versa) with byte-identical results: checkpoint state, like flow
  // results, is a pure function of (netlist, config, options) with every
  // pool field excluded from the key. Wide netlist so the 4-thread half
  // genuinely exercises the pooled kernels.
  const auto nl = tiny("netcard", kWideScale);
  me::Pool serial(1), wide(4);
  auto base = tiny_opts();

  auto ref_opt = base;
  ref_opt.pool = &wide;
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, ref_opt);

  struct Cross { me::Pool* write; me::Pool* resume; };
  for (const Cross x : {Cross{&serial, &wide}, Cross{&wide, &serial}}) {
    SCOPED_TRACE(x.write == &serial ? "write@1 resume@4" : "write@4 resume@1");
    fs::remove_all(dir_);
    auto opt = base;
    opt.checkpoint_dir = dir_;
    opt.pool = x.write;
    mf::fault_arm(mf::Stage::Cts);
    EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
                 mf::FaultInjected);
    opt.pool = x.resume;
    const auto resumed = mc::run_flow(nl, mc::Config::Hetero3D, opt);
    expect_flow_equal(ref, resumed);
  }
}

// ---- lifecycle & tracing --------------------------------------------------

TEST_F(CheckpointTest, KeepRetainsFilesAndCompletedRunResumesFromThem) {
  const auto nl = tiny();
  auto opt = tiny_opts();
  opt.checkpoint_dir = dir_;

  setenv("M3D_CHECKPOINT_KEEP", "1", 1);
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  unsetenv("M3D_CHECKPOINT_KEEP");
  EXPECT_GT(checkpoint_files(dir_), 0u);

  // Rerunning over the kept files resumes from the last boundary and
  // reproduces the run; without KEEP it then cleans the directory.
  const auto again = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  expect_flow_equal(ref, again);
  EXPECT_EQ(checkpoint_files(dir_), 0u);
}

TEST_F(CheckpointTest, EmitsCheckpointTraceSpans) {
  const auto nl = tiny();
  auto opt = tiny_opts();
  opt.checkpoint_dir = dir_;

  const std::string path = ::testing::TempDir() + "m3d_ckpt_trace.json";
  mu::trace_begin(path);
  mf::fault_arm(mf::Stage::Partition);
  try {
    mc::run_flow(nl, mc::Config::Hetero3D, opt);
    FAIL() << "fault did not fire";
  } catch (const mf::FaultInjected&) {
  }
  { mc::run_flow(nl, mc::Config::Hetero3D, opt); }
  mu::trace_end();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"checkpoint_write\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint_resume\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint_resume_wns_ns\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, EnvCheckpointDirIsPickedUpByDefault) {
  // FlowOptions::checkpoint_dir empty + M3D_CHECKPOINT_DIR set is the
  // operational path CI uses.
  const auto nl = tiny();
  const auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);

  setenv("M3D_CHECKPOINT_DIR", dir_.c_str(), 1);
  mf::fault_arm(mf::Stage::PostPlaceOpt);
  EXPECT_THROW(mc::run_flow(nl, mc::Config::Hetero3D, opt),
               mf::FaultInjected);
  EXPECT_GT(checkpoint_files(dir_), 0u);
  const auto resumed = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  unsetenv("M3D_CHECKPOINT_DIR");
  expect_flow_equal(ref, resumed);
}

// ---- cooperative interruption (SIGINT/SIGTERM, m3dd drain) ---------------

TEST_F(CheckpointTest, InterruptFlagMechanics) {
  EXPECT_FALSE(mf::interrupt_requested());
  mf::request_interrupt();
  EXPECT_TRUE(mf::interrupt_requested());
  mf::clear_interrupt();
  EXPECT_FALSE(mf::interrupt_requested());
}

TEST_F(CheckpointTest, InterruptStopsAtBoundaryAndResumeIsByteIdentical) {
  // The drain story: a signal (or m3dd's begin_drain) raises the
  // interrupt flag; a checkpointing flow stops at its next stage boundary
  // *after* the checkpoint is flushed, throwing flow::Interrupted. A
  // later run resumes from that flushed state and must be byte-identical
  // to a never-interrupted run.
  const auto nl = tiny();
  auto opt = tiny_opts();
  const auto ref = mc::run_flow(nl, mc::Config::Hetero3D, opt);

  opt.checkpoint_dir = dir_;
  mf::request_interrupt();
  try {
    mc::run_flow(nl, mc::Config::Hetero3D, opt);
    FAIL() << "expected flow::Interrupted";
  } catch (const mf::Interrupted& e) {
    // The very first boundary fires — deterministically Synth.
    EXPECT_EQ(e.stage, mf::Stage::Synth);
    EXPECT_NE(std::string(e.what()).find("interrupted"), std::string::npos);
  }
  // The promise of "flushed before thrown": at least one checkpoint file.
  EXPECT_GE(checkpoint_files(dir_), 1u);

  mf::clear_interrupt();
  const auto resumed = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  expect_flow_equal(ref, resumed);
  EXPECT_EQ(checkpoint_files(dir_), 0u);  // completed run cleaned up
}

TEST_F(CheckpointTest, InterruptWithoutCheckpointDirRunsToCompletion) {
  // No checkpoint directory means nothing to resume from, so aborting
  // would just throw work away — the flag only stops resumable flows.
  const auto nl = tiny();
  const auto opt = tiny_opts();
  mf::request_interrupt();
  const auto res = mc::run_flow(nl, mc::Config::Hetero3D, opt);
  EXPECT_GT(res.design.nl().cell_count(), 0);
  EXPECT_TRUE(mf::interrupt_requested());  // flag persists until cleared
}
