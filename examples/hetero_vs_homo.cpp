// Hetero vs homo: the paper's headline experiment on one netlist.
// Runs the same design through 2D-12T, 3D-12T and Hetero-3D at the same
// frequency target, prints a side-by-side comparison, and writes the
// layout SVGs (side-by-side tier panels for the 3-D implementations).
//
// The three flows fan out across the exec::Pool (sized by M3D_THREADS /
// hardware concurrency), memoized in the flow cache: the 2D-12T flow was
// already run by the frequency search, so it is a cache hit, and with
// M3D_TRACE=out.json the whole run emits a chrome://tracing timeline.
//
//   $ ./build/examples/hetero_vs_homo [netlist] [scale]
//     netlist ∈ {netcard, aes, ldpc, cpu}, default cpu

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "gen/designs.hpp"
#include "io/svg.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace m3d;
  util::set_log_level(util::LogLevel::Warn);

  const std::string which = argc > 1 ? argv[1] : "cpu";
  gen::GenOptions gen_opts;
  gen_opts.scale =
      argc > 2 ? util::parse_token<double>("scale", argv[2], argv[2]) : 0.3;
  const auto nl = gen::make_design(which, gen_opts);

  // Use the paper's methodology: the 12-track 2-D maximum achievable
  // frequency is the iso-performance target for everyone.
  core::FlowOptions opts;
  const double fmax = core::find_max_frequency(nl, core::Config::TwoD12T,
                                               opts, 0.4, 4.0, 5);
  opts.clock_period_ns = 1.0 / fmax;
  std::printf("%s: %d cells, iso-performance target %.3f GHz\n\n",
              which.c_str(), nl.stats().cells, fmax);

  // Fan the three configurations across the pool; results arrive in
  // submission order regardless of which finishes first.
  exec::Pool& pool = exec::Pool::global();
  exec::FlowCache& cache = exec::FlowCache::global();
  const std::vector<core::Config> configs = {
      core::Config::TwoD12T, core::Config::ThreeD12T, core::Config::Hetero3D};
  std::vector<std::future<exec::FlowCache::ResultPtr>> futures;
  for (auto cfg : configs)
    futures.push_back(pool.submit(
        [&nl, &cache, cfg, opts] { return cache.get_or_run(nl, cfg, opts); }));
  std::vector<exec::FlowCache::ResultPtr> results;
  for (auto& f : futures) results.push_back(pool.get(std::move(f)));
  const auto hit_stats = cache.stats();
  std::printf("flow cache: %llu hits, %llu misses\n\n",
              static_cast<unsigned long long>(hit_stats.hits),
              static_cast<unsigned long long>(hit_stats.misses));

  util::TextTable t("Same netlist, same frequency target, three "
                    "implementations");
  t.header({"Metric", "2D-12T", "3D-12T", "Hetero-3D"});
  auto row = [&](const char* name, auto get, int prec) {
    std::vector<std::string> cells{name};
    for (const auto& r : results)
      cells.push_back(util::TextTable::num(get(r->metrics), prec));
    t.row(cells);
  };
  row("WNS (ns)", [](const core::DesignMetrics& m) { return m.wns_ns; }, 3);
  row("Si area (mm2)",
      [](const core::DesignMetrics& m) { return m.silicon_area_mm2; }, 4);
  row("Wirelength (m)",
      [](const core::DesignMetrics& m) { return m.wirelength_m; }, 3);
  row("Power (mW)",
      [](const core::DesignMetrics& m) { return m.total_power_mw; }, 1);
  row("PDP (pJ)", [](const core::DesignMetrics& m) { return m.pdp_pj; }, 1);
  row("Die cost (1e-6 C')",
      [](const core::DesignMetrics& m) { return m.die_cost_e6; }, 3);
  row("PPC", [](const core::DesignMetrics& m) { return m.ppc; }, 2);
  t.print();

  for (const auto& r : results) {
    const std::string path = "layout_" + which + "_" +
                             r->metrics.config_name + ".svg";
    io::SvgOptions svg;
    svg.draw_nets = true;
    io::write_layout_svg(r->design, path, svg);
    std::printf("layout written: %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
