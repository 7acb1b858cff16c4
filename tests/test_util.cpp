// Unit tests for the util module: RNG determinism and distribution sanity,
// geometry primitives, stats helpers, table formatting, check macros, the
// file publisher, the numeric M3D_* knob reader.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/geom.hpp"
#include "util/log.hpp"
#include "util/publish.hpp"
#include "util/quantile.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mu = m3d::util;

TEST(Rng, DeterministicForSameSeed) {
  mu::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  mu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  mu::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  mu::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  mu::Rng r(3);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform_int(2, 6));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 2);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, UniformIntSingleValue) {
  mu::Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  mu::Rng r(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = r.normal();
  EXPECT_NEAR(mu::mean(xs), 0.0, 0.03);
  EXPECT_NEAR(mu::stddev(xs), 1.0, 0.03);
}

TEST(Rng, ChanceProbability) {
  mu::Rng r(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  mu::Rng r(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto back = v;
  std::sort(back.begin(), back.end());
  EXPECT_EQ(back, sorted);
}

TEST(Rng, ForkIsIndependentStream) {
  mu::Rng a(42);
  mu::Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, StreamRoundTripDeterminism) {
  // Same (seed, id) pair always replays the same sequence — the property
  // that makes corner k of a CornerSet a pure function of the spec.
  mu::Rng a = mu::Rng::stream(0x3dc0, 7);
  mu::Rng b = mu::Rng::stream(0x3dc0, 7);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different stream ids and different seeds diverge.
  mu::Rng c = mu::Rng::stream(0x3dc0, 8);
  mu::Rng d = mu::Rng::stream(0x3dc1, 7);
  mu::Rng e = mu::Rng::stream(0x3dc0, 7);
  int same_id = 0, same_seed = 0;
  for (int i = 0; i < 100; ++i) {
    const auto ref = e.next_u64();
    if (c.next_u64() == ref) ++same_id;
    if (d.next_u64() == ref) ++same_seed;
  }
  EXPECT_LT(same_id, 2);
  EXPECT_LT(same_seed, 2);
}

TEST(Quantile, GoldenValuesAgainstReference) {
  // Reference quantiles of the standard normal (scipy.stats.norm.ppf /
  // statistics.NormalDist().inv_cdf). Spec tolerance for the corner
  // model is 1e-4; the implementation is far tighter.
  const struct {
    double p, z;
  } golden[] = {
      {0.001, -3.090232306167813},  {0.010, -2.3263478740408408},
      {0.025, -1.959963984540054},  {0.050, -1.6448536269514722},
      {0.100, -1.2815515655446004}, {0.250, -0.6744897501960817},
      {0.500, 0.0},                 {0.750, 0.6744897501960817},
      {0.900, 1.2815515655446004},  {0.975, 1.959963984540054},
      {0.990, 2.3263478740408408},  {0.999, 3.090232306167813},
  };
  for (const auto& g : golden)
    EXPECT_NEAR(mu::inv_normal_cdf(g.p), g.z, 1e-4) << "p = " << g.p;
}

TEST(Quantile, ExactAntisymmetryAndMidpoint) {
  EXPECT_EQ(mu::inv_normal_cdf(0.5), 0.0);
  // Bitwise mirror wherever 1 - p is exactly representable (dyadic p);
  // 1/256 exercises the tail branch below the first table knot.
  for (double p : {0.00390625, 0.0625, 0.125, 0.25, 0.375}) {
    EXPECT_EQ(mu::inv_normal_cdf(1.0 - p), -mu::inv_normal_cdf(p)) << p;
  }
  // For general p the identity holds up to the rounding of 1 - p itself.
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.499}) {
    EXPECT_NEAR(mu::inv_normal_cdf(1.0 - p), -mu::inv_normal_cdf(p), 1e-12)
        << p;
  }
}

TEST(Quantile, MonotoneAndRoundTripsThroughCdf) {
  double prev = mu::inv_normal_cdf(0.001);
  for (int i = 2; i <= 998; ++i) {
    const double p = i / 1000.0;
    const double z = mu::inv_normal_cdf(p);
    EXPECT_GT(z, prev);
    prev = z;
    EXPECT_NEAR(mu::normal_cdf(z), p, 1e-10) << "p = " << p;
  }
}

TEST(Quantile, TotalOutsideOpenUnitInterval) {
  // p outside (0, 1) clamps instead of returning NaN/inf.
  EXPECT_TRUE(std::isfinite(mu::inv_normal_cdf(0.0)));
  EXPECT_TRUE(std::isfinite(mu::inv_normal_cdf(1.0)));
  EXPECT_TRUE(std::isfinite(mu::inv_normal_cdf(-3.0)));
  EXPECT_TRUE(std::isfinite(mu::inv_normal_cdf(7.0)));
  EXPECT_LT(mu::inv_normal_cdf(0.0), -6.0);
  EXPECT_GT(mu::inv_normal_cdf(1.0), 6.0);
}

TEST(Geom, ManhattanAndEuclidean) {
  mu::Point a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(mu::manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(mu::euclidean(a, b), 5.0);
}

TEST(Geom, RectBasics) {
  mu::Rect r{0, 0, 10, 5};
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
  EXPECT_DOUBLE_EQ(r.height(), 5.0);
  EXPECT_DOUBLE_EQ(r.area(), 50.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 15.0);
  EXPECT_EQ(r.center(), (mu::Point{5.0, 2.5}));
  EXPECT_TRUE(r.contains({1, 1}));
  EXPECT_FALSE(r.contains({10, 1}));  // hi edge exclusive
}

TEST(Geom, RectClamp) {
  mu::Rect r{0, 0, 10, 5};
  const auto p = r.clamp({-3, 7});
  EXPECT_EQ(p, (mu::Point{0.0, 5.0}));
}

TEST(Geom, BBoxAccumulates) {
  mu::BBox bb;
  EXPECT_TRUE(bb.empty());
  EXPECT_DOUBLE_EQ(bb.hpwl(), 0.0);
  bb.add({2, 3});
  EXPECT_FALSE(bb.empty());
  EXPECT_DOUBLE_EQ(bb.hpwl(), 0.0);
  bb.add({5, 1});
  EXPECT_DOUBLE_EQ(bb.hpwl(), 3.0 + 2.0);
}

TEST(Stats, MeanRmsStddev) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mu::mean(v), 2.5);
  EXPECT_NEAR(mu::rms(v), std::sqrt(30.0 / 4.0), 1e-12);
  EXPECT_NEAR(mu::stddev(v), std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptySpansAreZero) {
  std::vector<double> v;
  EXPECT_DOUBLE_EQ(mu::mean(v), 0.0);
  EXPECT_DOUBLE_EQ(mu::rms(v), 0.0);
  EXPECT_DOUBLE_EQ(mu::stddev(v), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(mu::percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(mu::percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(mu::percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(mu::percentile(v, 25), 20.0);
}

TEST(Stats, MinMax) {
  std::vector<double> v{3, -1, 7};
  EXPECT_DOUBLE_EQ(mu::min_of(v), -1.0);
  EXPECT_DOUBLE_EQ(mu::max_of(v), 7.0);
}

TEST(Check, ThrowsWithMessage) {
  try {
    M3D_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(M3D_CHECK(1 + 1 == 2));
}

TEST(Table, AlignsColumnsAndFormats) {
  mu::TextTable t("Title");
  t.header({"a", "long_header", "c"});
  t.row({"x", "1", mu::TextTable::num(3.14159, 2)});
  t.separator();
  t.row({"yy", "2", mu::TextTable::pct(-12.34, 1)});
  const std::string s = t.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("-12.3"), std::string::npos);
  // pct uses showpos for positives
  EXPECT_EQ(mu::TextTable::pct(5.0, 1), "+5.0");
}

TEST(Table, IntegerFormat) {
  EXPECT_EQ(mu::TextTable::integer(12345), "12345");
  EXPECT_EQ(mu::TextTable::integer(-7), "-7");
}

namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::size_t entries(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++n;
  }
  return n;
}

}  // namespace

TEST(Publish, ReplacesFileAndLeavesNoTemporary) {
  const std::filesystem::path dir =
      ::testing::TempDir() + "m3d_publish_replace";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "sub" / "state.bin").string();
  ASSERT_TRUE(mu::publish_file(path, "first"));  // creates the directory
  ASSERT_TRUE(mu::publish_file(path, "second"));
  EXPECT_EQ(slurp(path), "second");
  EXPECT_EQ(entries(dir / "sub"), 1u);
  std::filesystem::remove_all(dir);
}

TEST(Publish, ShortWriteKeepsThePreviousFile) {
  // A file-size limit stands in for a full disk: the temporary's write
  // comes up short, and the previous content must survive untouched.
  mu::set_log_level(mu::LogLevel::Silent);
  const std::filesystem::path dir = ::testing::TempDir() + "m3d_publish_short";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "jobs.jsonl").string();
  ASSERT_TRUE(mu::publish_file(path, "old journal\n"));

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit small = saved;
  small.rlim_cur = 4096;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  const bool published = mu::publish_file(path, std::string(1 << 20, 'x'));
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(published);
  EXPECT_EQ(slurp(path), "old journal\n");
  EXPECT_EQ(entries(dir), 1u);  // the temporary was removed
  std::filesystem::remove_all(dir);
}

// ---- numeric M3D_* knobs -------------------------------------------------

namespace {

/// Sets (or, for nullptr, unsets) one variable for the scope of a test
/// and restores its previous state afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    set(value);
  }
  ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
  void set(const char* value) {
    if (value != nullptr)
      ::setenv(name_, value, 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The util::Error text of `fn()`, or "" when it does not throw one.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const mu::Error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(Env, IntKnobsAcceptOnlyAWholeToken) {
  // Every integer knob reads through util::env_int. The values are only
  // parsed here; nothing is sized from them.
  for (const char* name :
       {"M3D_THREADS", "M3D_FLOW_CACHE_CAP", "M3D_STA_CORNERS",
        "M3D_SERVICE_MAX_QUEUE", "M3D_SERVICE_MAX_INFLIGHT_PER_CLIENT"}) {
    ScopedEnv env(name, nullptr);
    EXPECT_EQ(mu::env_int(name), std::nullopt) << name;  // unset
    env.set("");
    EXPECT_EQ(mu::env_int(name), std::nullopt) << name;  // empty
    // Values the call sites accept keep their meaning, 0 and negatives
    // included (each site maps those to its default).
    for (const auto& [text, value] :
         {std::pair<const char*, int>{"4", 4}, {"0", 0}, {"1", 1},
          {"-2", -2}, {"64", 64}}) {
      env.set(text);
      EXPECT_EQ(mu::env_int(name), value) << name << "=" << text;
    }
    for (const char* bad : {"4x", "x", " 4", "4 ", "4.0", "0x10", "+4",
                            "99999999999999999999", "2147483648"}) {
      env.set(bad);
      const std::string what = error_of([&] { mu::env_int(name); });
      EXPECT_NE(what.find(name), std::string::npos) << name << "=" << bad;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(Env, RealKnobsAcceptOnlyAWholeToken) {
  // M3D_BENCH_SCALE (bench::bench_scale and bench_mcsta) reads through
  // util::env_double; "abc" must not read as scale 0.
  const char* name = "M3D_BENCH_SCALE";
  ScopedEnv env(name, nullptr);
  EXPECT_EQ(mu::env_double(name), std::nullopt);
  env.set("");
  EXPECT_EQ(mu::env_double(name), std::nullopt);
  for (const auto& [text, value] :
       {std::pair<const char*, double>{"0.5", 0.5}, {"2", 2.0},
        {"1e-1", 0.1}, {"0", 0.0}}) {
    env.set(text);
    EXPECT_EQ(mu::env_double(name), value) << text;
  }
  for (const char* bad : {"abc", "0.5x", " 0.5", "0.5 ", "0.5,1", "inf",
                          "nan", "1e999"}) {
    env.set(bad);
    const std::string what = error_of([&] { mu::env_double(name); });
    EXPECT_NE(what.find(name), std::string::npos) << bad;
    EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
        << what;
  }
}

TEST(Env, ListKnobsAcceptOnlyWholeTokens) {
  // M3D_SCALE_POINTS (bench_scale) reads through util::env_list; "16,1oo"
  // must not run the points 16 and 1.
  const char* name = "M3D_SCALE_POINTS";
  ScopedEnv env(name, nullptr);
  EXPECT_EQ(mu::env_list(name), std::nullopt);
  env.set("");
  EXPECT_EQ(mu::env_list(name), std::nullopt);
  env.set("16");
  EXPECT_EQ(mu::env_list(name), (std::vector<double>{16.0}));
  env.set("1,4,16");
  EXPECT_EQ(mu::env_list(name), (std::vector<double>{1.0, 4.0, 16.0}));
  env.set("0.5,-1");
  EXPECT_EQ(mu::env_list(name), (std::vector<double>{0.5, -1.0}));
  for (const char* bad : {"16,1oo", "x", "16,", ",16", "16,,100", "16;100",
                          " 16", "16 ,100", "1e999"}) {
    env.set(bad);
    const std::string what = error_of([&] { mu::env_list(name); });
    EXPECT_NE(what.find(name), std::string::npos) << bad;
    EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
        << what;
  }
}

TEST(Env, TierPairKnobsAcceptOnlyWholeTokens) {
  for (const char* name : {"M3D_TIER_SIGMA", "M3D_TIER_DERATE"}) {
    ScopedEnv env(name, nullptr);
    EXPECT_EQ(mu::env_tier_pair(name), std::nullopt) << name;
    env.set("");
    EXPECT_EQ(mu::env_tier_pair(name), std::nullopt) << name;
    env.set("1.1");
    EXPECT_EQ(mu::env_tier_pair(name), (std::array<double, 2>{1.1, 1.1}));
    env.set("0.02,0.05");
    EXPECT_EQ(mu::env_tier_pair(name), (std::array<double, 2>{0.02, 0.05}));
    env.set("1e-2,3");
    EXPECT_EQ(mu::env_tier_pair(name), (std::array<double, 2>{0.01, 3.0}));
    for (const char* bad : {"0.05abc", "x", "0.02,", ",0.05", "0.02,0.05,1",
                            "0.02;0.05", " 0.1", "inf", "nan", "1e999"}) {
      env.set(bad);
      const std::string what = error_of([&] { mu::env_tier_pair(name); });
      EXPECT_NE(what.find(name), std::string::npos) << name << "=" << bad;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
}
