// Design-space explorer: fan a (tech stack, voltage, tier count, area cap,
// period) grid through the flow and emit the PPC / PDP / cost-per-cm²
// Pareto frontier of the results.
//
//   $ ./build/examples/design_space_explorer [design] [scale] [out_dir]
//
// Defaults: aes 0.05 bench_artifacts. Every grid point is one full
// run_flow, fanned across the worker pool as an exec::TaskGraph and
// memoized in the process-wide exec::FlowCache — with M3D_FLOW_CACHE_DIR
// set, a repeated sweep is served from disk. Results land in indexed
// slots, so pareto.csv and BENCH_explorer.json are byte-identical at any
// pool size (M3D_THREADS) and across cold/warm cache runs; neither file
// contains wall-clock times, so both can be drift-gated as goldens.
//
// stdout: the frontier table. stderr: flow-cache stats (one line, parsed
// by the explorer-smoke CI job) and any per-point failure. Exit code is
// non-zero when any sweep point's flow failed.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "exec/task_graph.hpp"
#include "gen/designs.hpp"
#include "part/fm.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/main.hpp"

namespace {

using m3d::core::Config;
using m3d::core::FlowOptions;
using m3d::core::TierSpec;

/// One grid point: an explicit tier stack plus the sweep knobs.
struct Point {
  int id = 0;
  std::string stack;           ///< e.g. "12T+9T+9T", bottom first
  std::vector<TierSpec> tiers;
  double vdd_scale = 1.0;
  double period_ns = 0.0;
  double area_cap_um2 = 0.0;   ///< per-tier std-cell cap (0 = uncapped)
  double mu = 0.0;             ///< part_cost_weight
  m3d::exec::FlowCache::ResultPtr result;
  std::string error;
};

std::vector<TierSpec> make_stack(const std::vector<const char*>& techs,
                                 double vdd_scale) {
  std::vector<TierSpec> tiers(techs.size());
  for (std::size_t i = 0; i < techs.size(); ++i) {
    tiers[i].tech = techs[i];
    tiers[i].vdd_scale = vdd_scale;
  }
  return tiers;
}

std::string stack_name(const std::vector<const char*>& techs) {
  std::string s;
  for (std::size_t i = 0; i < techs.size(); ++i) {
    if (i) s += '+';
    s += techs[i];
  }
  return s;
}

FlowOptions options_for(const Point& p) {
  FlowOptions opt;
  opt.clock_period_ns = p.period_ns;
  opt.tiers = p.tiers;
  opt.part_cost_weight = p.mu;
  if (p.area_cap_um2 > 0.0)
    for (TierSpec& t : opt.tiers) t.area_cap_um2 = p.area_cap_um2;
  return opt;
}

Config config_for(const Point& p) {
  return p.tiers.size() >= 2 ? Config::ThreeD12T : Config::TwoD12T;
}

/// 3-objective dominance: maximize PPC, minimize PDP and cost/cm².
bool dominates(const m3d::core::DesignMetrics& a,
               const m3d::core::DesignMetrics& b) {
  if (a.ppc < b.ppc || a.pdp_pj > b.pdp_pj || a.cost_per_cm2 > b.cost_per_cm2)
    return false;
  return a.ppc > b.ppc || a.pdp_pj < b.pdp_pj ||
         a.cost_per_cm2 < b.cost_per_cm2;
}

int run(int argc, char** argv) {
  using namespace m3d;
  const std::string design = argc > 1 ? argv[1] : "aes";
  const double scale =
      argc > 2 ? util::parse_token<double>("scale", argv[2], argv[2]) : 0.05;
  const std::string out_dir = argc > 3 ? argv[3] : "bench_artifacts";
  util::set_log_level(util::LogLevel::Error);
  // Early, so a trace sink pointed into out_dir (M3D_TRACE) can open its
  // file before the first flow emits an event.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  gen::GenOptions gopt;
  gopt.scale = scale;
  const netlist::Netlist nl = gen::make_design(design, gopt);

  // The grid: six stacks (tier counts 1/2/3, homogeneous 12-track and
  // 12-track-bottom heterogeneous) × two supplies × two periods, plus an
  // area-capped and a cost-aware (µ > 0) variant of every multi-tier
  // point. The cap is per tier at 1.30× a perfectly even split of the
  // synthesized cell area; µ is scaled so the die-cost term competes with
  // cut gains on designs this size.
  const std::vector<std::vector<const char*>> stacks = {
      {"12T"},        {"9T"},
      {"12T", "12T"}, {"12T", "9T"},
      {"12T", "12T", "12T"}, {"12T", "9T", "9T"}};
  const double vdds[] = {1.00, 0.90};
  const double periods[] = {1.6, 1.2};
  const double kMu = 2e9;

  std::vector<Point> points;
  for (const auto& techs : stacks) {
    // Probe design for this stack: the per-tier cap derives from the
    // stack's own synthesized cell area (9-track cells are smaller).
    FlowOptions popt;
    popt.tiers = make_stack(techs, 1.0);
    const netlist::Design probe = core::design_for_flow(nl, Config::TwoD12T, popt);
    const double cap =
        probe.total_std_cell_area() / static_cast<double>(techs.size()) * 1.30;
    for (double vdd : vdds)
      for (double period : periods) {
        Point base;
        base.stack = stack_name(techs);
        base.tiers = make_stack(techs, vdd);
        base.vdd_scale = vdd;
        base.period_ns = period;
        points.push_back(base);
        if (techs.size() >= 2) {
          Point capped = base;
          capped.area_cap_um2 = cap;
          points.push_back(capped);
          Point costly = base;
          costly.mu = kMu;
          points.push_back(costly);
        }
      }
  }
  for (std::size_t i = 0; i < points.size(); ++i)
    points[i].id = static_cast<int>(i);

  // Fan the grid across the pool; indexed slots keep the output order
  // fixed regardless of scheduling.
  exec::FlowCache& cache = exec::FlowCache::global();
  exec::TaskGraph graph;
  for (Point& p : points)
    graph.add("point:" + std::to_string(p.id), [&p, &nl, &cache] {
      try {
        p.result = cache.get_or_run(nl, config_for(p), options_for(p));
      } catch (const std::exception& e) {
        p.error = e.what();
      }
    });
  graph.run();

  int failed = 0;
  for (const Point& p : points)
    if (!p.error.empty() || !p.result) {
      std::fprintf(stderr, "point %d (%s vdd=%.2f T=%.2f) FAILED: %s\n",
                   p.id, p.stack.c_str(), p.vdd_scale, p.period_ns,
                   p.error.empty() ? "no result" : p.error.c_str());
      ++failed;
    }

  // Pareto frontier over the successful points.
  std::vector<char> on_frontier(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].result) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j)
      if (j != i && points[j].result &&
          dominates(points[j].result->metrics, points[i].result->metrics))
        dominated = true;
    on_frontier[i] = dominated ? 0 : 1;
  }

  const std::string csv_path = out_dir + "/pareto.csv";
  bool wrote_ok = true;
  {
    std::ofstream os(csv_path);
    os << "id,stack,tiers,vdd_scale,period_ns,area_cap_um2,mu,freq_ghz,"
          "wns_ns,power_mw,footprint_mm2,silicon_mm2,die_cost_e6,"
          "cost_per_cm2,pdp_pj,ppc,cut,on_frontier\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      if (!p.result) continue;
      const auto& m = p.result->metrics;
      const int cut = p.tiers.size() >= 2
                          ? part::cut_size(p.result->design)
                          : 0;
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%d,%s,%d,%.2f,%.2f,%.1f,%.3g,%.6g,%.6g,%.6g,%.6g,"
                    "%.6g,%.6g,%.6g,%.6g,%.6g,%d,%d\n",
                    p.id, p.stack.c_str(), static_cast<int>(p.tiers.size()),
                    p.vdd_scale, p.period_ns, p.area_cap_um2, p.mu,
                    m.frequency_ghz, m.wns_ns, m.total_power_mw,
                    m.footprint_mm2, m.silicon_area_mm2, m.die_cost_e6,
                    m.cost_per_cm2, m.pdp_pj, m.ppc, cut,
                    static_cast<int>(on_frontier[i]));
      os << buf;
    }
    os.flush();
    wrote_ok = wrote_ok && os.good();
  }

  {
    std::ofstream os(out_dir + "/BENCH_explorer.json");
    os << "{\n  \"design\": \"" << design << "\",\n  \"scale\": " << scale
       << ",\n  \"cells\": " << nl.stats().cells
       << ",\n  \"points\": " << points.size()
       << ",\n  \"failed\": " << failed << ",\n  \"frontier\": [";
    bool first = true;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (on_frontier[i]) {
        os << (first ? "" : ", ") << points[i].id;
        first = false;
      }
    os << "],\n  \"sweep\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      if (!p.result) continue;
      const auto& m = p.result->metrics;
      char buf[512];
      std::snprintf(
          buf, sizeof buf,
          "    {\"id\": %d, \"stack\": \"%s\", \"vdd\": %.2f, "
          "\"period_ns\": %.2f, \"cap_um2\": %.1f, \"mu\": %.3g, "
          "\"ppc\": %.6g, \"pdp_pj\": %.6g, \"cost_per_cm2\": %.6g, "
          "\"die_cost_e6\": %.6g, \"frontier\": %s}%s\n",
          p.id, p.stack.c_str(), p.vdd_scale, p.period_ns, p.area_cap_um2,
          p.mu, m.ppc, m.pdp_pj, m.cost_per_cm2, m.die_cost_e6,
          on_frontier[i] ? "true" : "false",
          i + 1 < points.size() ? "," : "");
      os << buf;
    }
    os << "  ]\n}\n";
    os.flush();
    wrote_ok = wrote_ok && os.good();
  }
  if (!wrote_ok) {
    std::fprintf(stderr, "failed to write artifacts under %s\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf("design %s scale %.3g: %zu points, %d failed\n",
              design.c_str(), scale, points.size(), failed);
  std::printf("%4s %-12s %5s %5s %8s %9s %9s %9s\n", "id", "stack", "vdd",
              "T_ns", "ppc", "pdp_pj", "cost/cm2", "die_e6");
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!on_frontier[i] || !points[i].result) continue;
    const Point& p = points[i];
    const auto& m = p.result->metrics;
    std::printf("%4d %-12s %5.2f %5.2f %8.3f %9.3f %9.3f %9.3f\n", p.id,
                p.stack.c_str(), p.vdd_scale, p.period_ns, m.ppc, m.pdp_pj,
                m.cost_per_cm2, m.die_cost_e6);
  }
  std::printf("wrote %s\n", csv_path.c_str());

  const auto st = cache.stats();
  std::fprintf(stderr,
               "flow cache: hits=%llu joins=%llu misses=%llu "
               "disk_hits=%llu disk_writes=%llu\n",
               static_cast<unsigned long long>(st.hits),
               static_cast<unsigned long long>(st.joins),
               static_cast<unsigned long long>(st.misses),
               static_cast<unsigned long long>(st.disk_hits),
               static_cast<unsigned long long>(st.disk_writes));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
