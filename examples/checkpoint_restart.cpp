// Checkpoint/restart driver: run one heterogeneous flow end to end and
// print a deterministic digest of everything it produced. The CI
// round-trip job uses this binary three ways:
//
//   1. uninterrupted reference:
//        ./checkpoint_restart > ref.txt
//   2. crash mid-flow (exits 86):
//        M3D_CHECKPOINT_DIR=ckpt M3D_FAULT_AT=cts ./checkpoint_restart
//   3. resume + byte-compare:
//        M3D_CHECKPOINT_DIR=ckpt ./checkpoint_restart > resumed.txt
//        cmp ref.txt resumed.txt
//
//   $ ./build/examples/checkpoint_restart [netlist] [scale] [period_ns]
//
// Everything the flow computed lands on stdout in a stable format (the
// metrics CSV row, the result-netlist fingerprint, a hash over every
// cell's tier and exact position bits, and the per-stage stats); logs and
// cache statistics go to stderr so `cmp` on stdout is meaningful. When
// M3D_FLOW_CACHE_DIR is set the run goes through a FlowCache instance and
// the stderr stats line lets CI assert warm-run disk hits.

#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "core/checkpoint.hpp"
#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "gen/designs.hpp"
#include "io/reports.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/main.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace m3d;
  util::set_log_level(util::LogLevel::Info);
  // SIGINT/SIGTERM land at the next checkpoint boundary: the boundary
  // file is written and flushed first, then the flow unwinds and we exit
  // cleanly — rerunning with the same M3D_CHECKPOINT_DIR resumes there.
  flow::install_interrupt_handlers();

  gen::GenOptions gen_opts;
  const char* which = argc > 1 ? argv[1] : "aes";
  gen_opts.scale =
      argc > 2 ? util::parse_token<double>("scale", argv[2], argv[2]) : 0.05;
  const netlist::Netlist nl = gen::make_design(which, gen_opts);

  core::FlowOptions opt;
  opt.clock_period_ns =
      argc > 3 ? util::parse_token<double>("period_ns", argv[3], argv[3])
               : 1.2;
  opt.opt.max_sizing_rounds = 2;
  opt.repart.max_iters = 3;

  // Through the cache when a disk tier is configured (so CI can assert
  // warm hits), straight run_flow otherwise — the result is identical.
  exec::FlowCache cache(8);
  const bool cached = !exec::FlowCache::disk_dir().empty();
  try {
    core::FlowResult direct = cached
                                  ? core::FlowResult(core::design_for_config(
                                        nl, core::Config::Hetero3D))
                                  : core::run_flow(nl, core::Config::Hetero3D,
                                                   opt);
    const core::FlowResult& res =
        cached ? *cache.get_or_run(nl, core::Config::Hetero3D, opt) : direct;

    std::fputs(io::metrics_csv({res.metrics}).c_str(), stdout);
    std::printf("netlist_fp %016" PRIx64 "\n",
                exec::FlowCache::fingerprint(res.design.nl()));
    std::printf("state_hash %016" PRIx64 "\n", netlist::state_digest(res.design));
    std::printf("repart iters=%d moved=%d undone=%d\n", res.repart.iterations,
                res.repart.cells_moved, res.repart.moves_undone);
    std::printf("opt upsized=%d downsized=%d buffers=%d\n",
                res.opt.cells_upsized, res.opt.cells_downsized,
                res.opt.buffers_added);
  } catch (const flow::Interrupted& e) {
    // A SIGINT/SIGTERM arrived and the flow stopped at a checkpoint
    // boundary with its file flushed. Clean exit, no digest on stdout —
    // the rerun that resumes prints it.
    std::fprintf(stderr, "checkpoint_restart: %s, exiting cleanly\n",
                 e.what());
    return 0;
  }

  if (cached) {
    const auto s = cache.stats();
    std::fprintf(stderr,
                 "cache hits=%llu misses=%llu disk_hits=%llu "
                 "disk_writes=%llu\n",
                 (unsigned long long)s.hits, (unsigned long long)s.misses,
                 (unsigned long long)s.disk_hits,
                 (unsigned long long)s.disk_writes);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
