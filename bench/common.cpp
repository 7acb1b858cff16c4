#include "common.hpp"

#include <cstdlib>
#include <filesystem>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "exec/task_graph.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace m3d::bench {

double bench_scale() {
  return util::env_double("M3D_BENCH_SCALE").value_or(0.5);
}

std::string artifact_dir() {
  std::string dir = "bench_artifacts";
  if (const char* s = std::getenv("M3D_BENCH_OUT")) dir = s;
  std::filesystem::create_directories(dir);
  return dir;
}

const std::vector<std::string>& netlist_names() {
  static const std::vector<std::string> kNames = {"netcard", "aes", "ldpc",
                                                  "cpu"};
  return kNames;
}

netlist::Netlist build(const std::string& name) {
  gen::GenOptions g;
  g.scale = bench_scale();
  return gen::make_design(name, g);
}

core::FlowOptions flow_options(double period_ns) {
  core::FlowOptions o;
  o.clock_period_ns = period_ns;
  // Multi-corner signoff from M3D_STA_CORNERS / M3D_TIER_SIGMA /
  // M3D_TIER_DERATE; unset leaves the default single-corner spec and
  // byte-identical artifacts.
  o.sta_corners = tech::corner_spec_from_env();
  return o;
}

core::FlowOptions flow_options_for(const std::string& netlist_name,
                                   double period_ns) {
  core::FlowOptions o = flow_options(period_ns);
  // Wire-dominant LDPC needs routing headroom: the paper reports 64 %
  // placement density for it vs ~82–88 % for the other netlists.
  if (netlist_name == "ldpc") o.utilization = 0.50;
  return o;
}

double target_period_ns(const netlist::Netlist& nl, const exec::Ctx* ctx) {
  core::FlowOptions o = flow_options_for(nl.name(), 1.0);
  if (ctx) o.pool = ctx->pool;  // the search's kernels run on ctx's pool
  const double f = core::find_max_frequency(
      nl, core::Config::TwoD12T, o, 0.4, 4.0,
      /*iters=*/6, /*wns_budget_frac=*/0.05, ctx);
  return 1.0 / f;
}

exec::FlowCache::ResultPtr run_config_cached(const netlist::Netlist& nl,
                                             core::Config cfg,
                                             double period_ns,
                                             const exec::Ctx* ctx) {
  const exec::Ctx defaults;
  if (!ctx) ctx = &defaults;
  core::FlowOptions o = flow_options_for(nl.name(), period_ns);
  o.pool = ctx->pool;  // the flow's kernels run on ctx's pool
  return ctx->cache_or_global().get_or_run(nl, cfg, o);
}

core::FlowResult run_config(const netlist::Netlist& nl, core::Config cfg,
                            double period_ns) {
  return *run_config_cached(nl, cfg, period_ns);
}

std::vector<SweepItem> run_sweep(const SweepOptions& sweep) {
  const std::vector<std::string>& names =
      sweep.netlists.empty() ? netlist_names() : sweep.netlists;
  const std::vector<core::Config> configs =
      sweep.configs.empty()
          ? std::vector<core::Config>{core::Config::TwoD9T,
                                      core::Config::TwoD12T,
                                      core::Config::ThreeD9T,
                                      core::Config::ThreeD12T,
                                      core::Config::Hetero3D}
          : sweep.configs;

  std::unique_ptr<exec::Pool> local_pool;
  if (sweep.threads > 0)
    local_pool = std::make_unique<exec::Pool>(sweep.threads);
  exec::Ctx ctx{local_pool ? local_pool.get() : nullptr, sweep.cache};
  exec::Pool& pool = ctx.pool_or_global();

  const std::size_t n = names.size();
  const std::size_t c = configs.size();
  std::vector<netlist::Netlist> nls(n);
  std::vector<double> periods(n, 0.0);
  std::vector<SweepItem> items(n * c);

  // Dependencies, not barriers: build_i → period_i → flow_ij. The graph
  // interleaves netlists freely; result slots are indexed, so the output
  // order (netlist-major, config-minor) never depends on scheduling.
  exec::TaskGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = graph.add("build:" + names[i],
                             [&, i] { nls[i] = build(names[i]); });
    const auto p = graph.add(
        "period:" + names[i],
        [&, i] {
          periods[i] = sweep.fixed_period_ns > 0.0
                           ? sweep.fixed_period_ns
                           : target_period_ns(nls[i], &ctx);
        },
        {b});
    for (std::size_t j = 0; j < c; ++j) {
      graph.add(
          std::string("flow:") + names[i] + ":" +
              core::config_name(configs[j]),
          [&, i, j] {
            SweepItem& item = items[i * c + j];
            item.netlist = names[i];
            item.cfg = configs[j];
            item.period_ns = periods[i];
            item.cells = nls[i].stats().cells;
            item.result =
                run_config_cached(nls[i], configs[j], periods[i], &ctx);
          },
          {p});
    }
  }
  graph.run(pool);
  return items;
}

void quiet_logs() { util::set_log_level(util::LogLevel::Error); }

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<long>(ru.ru_maxrss);  // kB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace m3d::bench
