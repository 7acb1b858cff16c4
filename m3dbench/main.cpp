/// \file main.cpp
/// \brief The benchmark binary. run.py builds it and calls it; see
///        README.md for the workloads and every metric.
///
///   m3dbench run --workload W --scale X [--seed N] [--input FILE]
///                [--spawn-ns NS]
///   m3dbench setup --workload W --scale X [--seed N] [--input FILE]
///                  [--spawn-ns NS]
///   m3dbench write-mesh --seed N --scale X --out FILE
///   m3dbench drc-selftest
///
/// `run` sets the workload up once and prints one JSON line: provenance
/// and the set-up time. It then reads commands from stdin, one a line,
/// and answers each with one JSON line:
///
///   pass      one cold-cache pass: its wall and CPU seconds, every op's
///             digest and error
///   trace S   set the workload up again and run one pass with the probe
///             on: the pass as above plus the per-layer metrics; S is the
///             untraced pass wall time the tracing overhead is taken
///             against
///   finish    the peak resident set and the QoR of the last pass; then
///             the process exits
///
/// The caller decides which passes are timed and when to stop, so it can
/// time set-up-only processes between passes. `setup` only sets the
/// workload up and prints the time that took.
///
/// Set-up time runs from process start until the pool is started and the
/// inputs are in memory. Process start is NS, a CLOCK_MONOTONIC stamp the
/// caller takes just before it spawns the process; without --spawn-ns it
/// is the start of main().
/// The pool is exec::Pool::global(), sized by M3D_THREADS.

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "probe.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace pb = m3db::probe;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds on CLOCK_MONOTONIC, the clock of the --spawn-ns stamp.
double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<m3db::Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    s += (i ? "," : "") + json_str(ms[i].name) + ":{\"value\":" +
         json_num(ms[i].value) + ",\"unit\":" + json_str(ms[i].unit) + "}";
  return s + "}";
}

/// One cold-cache pass over the workload.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<m3db::Op> ops;
  m3d::exec::FlowCacheStats cache;  ///< this pass only
  long long steals = 0;             ///< this pass only
};

/// Run one pass. It ends when every flow it started has ended: a
/// speculative frequency-search flow still running when the task graph
/// drains is work of this pass, and must not bleed into the next one.
Pass run_pass(m3db::Workload& w, m3d::exec::Pool& pool,
              m3d::exec::FlowCache& cache) {
  cache.clear();
  const auto c0 = cache.stats();
  const auto s0 = pool.stats();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  Pass p;
  p.ops = w.run(pool, cache);
  pool.help_until(
      [&] { return pb::flows_in_flight() == 0 && pool.pending() == 0; });
  p.wall_s = since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  const auto c1 = cache.stats();
  p.cache.hits = c1.hits - c0.hits;
  p.cache.joins = c1.joins - c0.joins;
  p.cache.misses = c1.misses - c0.misses;
  p.cache.bypasses = c1.bypasses - c0.bypasses;
  p.steals = pool.stats().steals - s0.steals;
  return p;
}

/// Per-layer metrics of one traced setup + pass (see README.md).
std::vector<m3db::Metric> layer_metrics(const pb::Snapshot& s, const Pass& p,
                                        int flows_needed, int width,
                                        double traced_wall_s,
                                        double untraced_pass_s) {
  using pb::Entry;
  auto calls = [&](Entry e) { return double(s.entry[e].calls); };
  auto incl = [&](Entry e) { return s.entry[e].incl_s; };
  const double flows_run = calls(pb::kRunFlow);
  std::vector<m3db::Metric> m = {
      {"core.flows_run", flows_run, "count"},
      {"core.flows_needed", double(flows_needed), "count"},
      {"core.flow_waste_frac",
       flows_run > 0 ? 1.0 - flows_needed / flows_run : 0.0, "ratio"},
      {"core.freq_search_s", incl(pb::kFindMaxFrequency), "s"},
      {"exec.cache_hits", double(p.cache.hits), "count"},
      {"exec.cache_joins", double(p.cache.joins), "count"},
      {"exec.cache_misses", double(p.cache.misses), "count"},
      {"exec.cache_bypasses", double(p.cache.bypasses), "count"},
      {"exec.pool_steals", double(p.steals), "count"},
      {"exec.flow_concurrency",
       p.wall_s > 0 ? incl(pb::kRunFlow) / p.wall_s : 0.0, "ratio"},
      {"opt.calls", calls(pb::kOptimizeTiming), "count"},
      {"opt.s", s.layer_incl_s[pb::kOpt], "s"},
      {"opt.cells_resized", double(s.cells_resized), "count"},
      {"opt.buffers_added", double(s.buffers_added), "count"},
      {"sta.full_runs", calls(pb::kRunSta) + calls(pb::kStaRun), "count"},
      {"sta.retimes", calls(pb::kStaRetime), "count"},
      {"sta.s", s.layer_incl_s[pb::kSta], "s"},
      {"route.full_routes", calls(pb::kRouteDesign), "count"},
      {"route.incremental_updates", calls(pb::kUpdateRoutes), "count"},
      {"route.s", s.layer_incl_s[pb::kRoute], "s"},
      {"place.global_place_s", incl(pb::kGlobalPlace), "s"},
      {"place.legalize_calls", calls(pb::kLegalize), "count"},
      {"place.legalize_s", incl(pb::kLegalize), "s"},
      {"part.fm_s", incl(pb::kBinFm) + incl(pb::kFmMincut), "s"},
      {"part.fm_moves", double(s.fm_moves), "count"},
      {"part.timing_partition_s", incl(pb::kTimingPartition), "s"},
      {"part.eco_s", incl(pb::kRepartitionEco) + incl(pb::kRebalanceToTop), "s"},
      {"part.eco_moves_undone", double(s.eco_moves_undone), "count"},
      {"cts.build_s", incl(pb::kBuildClockTree), "s"},
      {"cts.annotate_calls", calls(pb::kAnnotateClock), "count"},
      {"cts.annotate_s", incl(pb::kAnnotateClock), "s"},
      {"power.s", s.layer_incl_s[pb::kPower], "s"},
      {"netlist.parse_s", incl(pb::kParseVerilog), "s"},
      {"netlist.parse_mb_per_s",
       incl(pb::kParseVerilog) > 0 ? s.parse_bytes / 1e6 / incl(pb::kParseVerilog)
                                   : 0.0,
       "MB/s"},
      {"gen.s", s.layer_incl_s[pb::kGen], "s"},
      {"tech.make_library_calls",
       calls(pb::kMakeLibrary) + calls(pb::kMake12Track) + calls(pb::kMake9Track),
       "count"},
      {"tech.make_library_s", s.layer_incl_s[pb::kTech], "s"},
  };
  // Self time per layer; with unattributed_s they add up to the thread
  // time of the traced interval (every pool worker plus the caller).
  double self_total = 0.0;
  for (int l = 0; l < pb::kLayerCount; ++l) {
    const double self = s.layer_self_s(static_cast<pb::Layer>(l));
    self_total += self;
    m.push_back({std::string(pb::layer_name(static_cast<pb::Layer>(l))) +
                     ".self_s",
                 self, "s"});
  }
  const double thread_s = width * traced_wall_s;
  m.push_back({"trace.wall_s", traced_wall_s, "s"});
  m.push_back({"trace.thread_s", thread_s, "s"});
  m.push_back({"unattributed_s", thread_s - self_total, "s"});
  m.push_back({"trace.overhead_s", p.wall_s - untraced_pass_s, "s"});
  return m;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& f,
                 const std::string& key, const std::string& fallback) {
  const auto it = f.find(key);
  return it == f.end() ? fallback : it->second;
}

using Flags = std::map<std::string, std::string>;

unsigned seed_flag(const Flags& f) {
  return static_cast<unsigned>(std::stoul(flag(f, "seed", "7")));
}

/// The workload the flags name, with the pool started and its inputs in
/// memory, and the seconds that took since process start.
std::pair<std::unique_ptr<m3db::Workload>, double> set_up(const Flags& f,
                                                         double main_start) {
  const double scale = std::stod(flag(f, "scale", "0"));
  auto w = m3db::make_workload(flag(f, "workload", ""), scale, seed_flag(f),
                               flag(f, "input", ""));
  if (!w || !(scale > 0.0))
    throw std::invalid_argument("need a known --workload and --scale > 0");
  const auto stamp = f.find("spawn-ns");
  const double start =
      stamp == f.end() ? main_start : std::stoll(stamp->second) * 1e-9;
  m3d::exec::Pool::global();
  w->setup();
  return {std::move(w), monotonic_s() - start};
}

int cmd_setup(const Flags& f, double main_start) {
  const double setup_s = set_up(f, main_start).second;
  std::printf("{\"setup_s\":%s}\n", json_num(setup_s).c_str());
  return 0;
}

/// A pass as JSON fields (no braces): wall and CPU seconds and its ops.
std::string pass_fields(const Pass& p) {
  std::string out = "\"wall_s\":" + json_num(p.wall_s) +
                    ",\"cpu_s\":" + json_num(p.cpu_s) + ",\"ops\":[";
  for (std::size_t j = 0; j < p.ops.size(); ++j) {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, p.ops[j].digest);
    out += std::string(j ? "," : "") + "{\"name\":" + json_str(p.ops[j].name) +
           ",\"digest\":\"" + digest + "\",\"error\":" +
           json_str(p.ops[j].error) + "}";
  }
  return out + "]";
}

void reply(const std::string& json) {
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int cmd_run(const Flags& f, double main_start) {
  // A dead wrapper reads zero for its entry point, and without run_flow's
  // the pass drain stops waiting for speculative flows; see README.md.
  const std::vector<const char*> unwrapped = pb::unwrapped_entries();
  auto [w, setup_s] = set_up(f, main_start);
  m3d::exec::Pool& pool = m3d::exec::Pool::global();

  std::string head = "{\"workload\":" + json_str(flag(f, "workload", "")) +
                     ",\"seed\":" + std::to_string(seed_flag(f)) +
                     ",\"scale\":" + json_num(std::stod(flag(f, "scale", "0"))) +
                     ",\"pool_workers\":" + std::to_string(pool.size()) +
                     ",\"build_type\":" + json_str(M3DB_BUILD_TYPE) +
                     ",\"compiler\":" + json_str(kCompiler) +
                     ",\"unwrapped\":[";
  for (std::size_t i = 0; i < unwrapped.size(); ++i)
    head += (i ? "," : "") + json_str(unwrapped[i]);
  reply(head + "],\"setup_s\":" + json_num(setup_s) + "}");

  m3d::exec::FlowCache cache;
  char line[128];
  while (std::fgets(line, sizeof line, stdin)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "pass") {
      reply("{" + pass_fields(run_pass(*w, pool, cache)) + "}");
    } else if (cmd == "trace") {
      double untraced_pass_s = 0.0;
      in >> untraced_pass_s;
      if (!unwrapped.empty())
        throw std::runtime_error(
            "cannot trace: entry points not wrapped (update probe.cpp)");
      pb::reset();
      pb::set_enabled(true);
      const auto t0 = Clock::now();
      w->setup();
      const Pass p = run_pass(*w, pool, cache);
      const double traced_wall = since(t0);
      pb::set_enabled(false);
      reply("{" + pass_fields(p) + ",\"layers\":" +
            json_metrics(layer_metrics(pb::snapshot(), p, w->flows_needed(),
                                       pool.size() + 1, traced_wall,
                                       untraced_pass_s)) +
            "}");
    } else if (cmd == "finish") {
      const double rss_mb = peak_rss_mb();
      reply("{\"peak_rss_mb\":" + json_num(rss_mb) +
            ",\"qor\":" + json_metrics(w->qor(pool)) + "}");
      return 0;
    } else {
      throw std::invalid_argument("unknown command: " + cmd);
    }
  }
  std::fprintf(stderr, "m3dbench: stdin closed before finish\n");
  return 1;
}

/// Two cells stacked on one spot must raise the Error count of
/// netlist::run_checks over a flow's output.
int cmd_drc_selftest() {
  m3d::gen::GenOptions g;
  g.scale = 0.05;
  const m3d::netlist::Netlist nl = m3d::gen::make_design("aes", g);
  m3d::core::FlowOptions o;
  o.clock_period_ns = 1.0;
  m3d::core::FlowResult r = m3d::core::run_flow(nl, m3d::core::Config::TwoD12T, o);
  m3d::netlist::Design& d = r.design;
  const int before = m3db::drc_errors(d);
  int a = -1, b = -1;
  for (int c = 0; c < d.nl().cell_count() && b < 0; ++c) {
    if (!d.nl().cell(c).is_comb()) continue;
    if (a < 0) a = c;
    else if (d.tier(c) == d.tier(a)) b = c;
  }
  if (b < 0) {
    std::fprintf(stderr, "drc-selftest: no two same-tier cells\n");
    return 1;
  }
  d.set_pos(b, d.pos(a));
  const int after = m3db::drc_errors(d);
  std::printf("{\"drc_errors_before\":%d,\"drc_errors_after\":%d}\n", before,
              after);
  return after > before ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double main_start = monotonic_s();
  m3d::util::set_log_level(m3d::util::LogLevel::Error);
  const std::string cmd = argc > 1 ? argv[1] : "";
  const auto f = parse_flags(argc, argv);
  try {
    if (cmd == "run") return cmd_run(f, main_start);
    if (cmd == "setup") return cmd_setup(f, main_start);
    if (cmd == "write-mesh") {
      const int cells = m3db::write_mesh_verilog(
          std::stod(flag(f, "scale", "32")),
          static_cast<unsigned>(std::stoul(flag(f, "seed", "7"))),
          flag(f, "out", "mesh.v"));
      std::printf("{\"cells\":%d}\n", cells);
      return 0;
    }
    if (cmd == "drc-selftest") return cmd_drc_selftest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m3dbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: m3dbench run|setup|write-mesh|drc-selftest [--flag value]...\n");
  return 2;
}
