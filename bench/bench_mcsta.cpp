/// \file bench_mcsta.cpp
/// \brief BENCH_mcsta: the corner-vectorized STA sweep vs the sequential
///        scalar baseline it replaces.
///
/// Builds the netcard netlist at paper scale (M3D_BENCH_SCALE overrides;
/// default 1.0 here, unlike the flow benches' 0.5 — the claim under test
/// is a paper-scale one), runs the structural half of the hetero flow to
/// get a placed, partitioned, clocked and routed two-tier design, then for
/// each K in {4, 16, 64}:
///
///   * baseline — K *sequential* Sta constructions + run()s, corner k's
///     exact factors as a single-corner spec (CornerSet::single(k)): what
///     a multi-corner signoff costs without lane vectorization. Engine
///     construction is inside the timed region on both sides — the
///     sequential flow pays it K times, the sweep once; that asymmetry is
///     real work, not bench framing.
///   * sweep — ONE Sta with corners.count = K: every corner as a stride-K
///     SoA lane in a single level-synchronous pass.
///
/// Identity gate: lane 0 of the sweep must reproduce the k = 0 sequential
/// run bit for bit (WNS, TNS, violation count). Factors derate device
/// delays only (slews and NLDM lookups are corner-shared), so the
/// non-nominal lanes are a guard-band model, not K independent scalar
/// runs — the gate pins down exactly the equivalence the engine promises.
/// Any divergence fails the bench with a nonzero exit.
///
/// Everything runs on a single-thread pool: the speedup reported is pure
/// lane amortization, not parallelism. Emits BENCH_mcsta.json.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "cts/cts.hpp"
#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "part/fm.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/corners.hpp"
#include "util/env.hpp"
#include "util/main.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Point {
  int corners = 0;
  double seq_s = 0.0;    ///< K sequential single-corner engines
  double sweep_s = 0.0;  ///< one K-lane engine
  double speedup = 0.0;
  bool identity_ok = false;
};

int run(int, char**) {
  m3d::bench::quiet_logs();

  const double scale =
      m3d::util::env_double("M3D_BENCH_SCALE").value_or(1.0);
  m3d::gen::GenOptions g;
  g.scale = scale;
  m3d::netlist::Netlist nl = m3d::gen::make_design("netcard", g);
  const int cells = nl.stats().cells;

  // Structural flow half (same recipe as bench_scale) on the hetero
  // stack, so the two tiers really carry different libraries and the
  // per-tier corner factors act on distinct delay populations.
  m3d::netlist::Design d =
      m3d::core::design_for_config(nl, m3d::core::Config::Hetero3D);
  m3d::place::PlaceOptions popt;
  m3d::place::init_floorplan(d, popt);
  m3d::place::global_place(d, popt);
  m3d::part::FmOptions fopt;
  m3d::part::bin_fm_partition(d, fopt);
  m3d::place::legalize(d);
  m3d::cts::build_clock_tree(d);
  m3d::place::legalize(d);
  m3d::cts::annotate_clock_latencies(d);
  const auto routes = m3d::route::route_design(d);

  m3d::exec::Pool pool(1);  // pure lane amortization, no parallelism
  m3d::sta::StaOptions base;
  base.pool = &pool;

  m3d::tech::CornerSpec spec;  // default derates/sigmas of the env spec
  spec.derate[0] = 1.0;
  spec.derate[1] = 1.05;
  spec.sigma[0] = 0.03;
  spec.sigma[1] = 0.08;

  std::vector<Point> points;
  bool all_ok = true;
  std::printf("%8s %10s %10s %9s %9s  (netcard, %d cells, 1 thread)\n", "K",
              "seq_s", "sweep_s", "speedup", "identity", cells);
  for (const int K : {4, 16, 64}) {
    Point p;
    p.corners = K;
    m3d::tech::CornerSpec sk = spec;
    sk.count = K;
    const auto cs = m3d::tech::CornerSet::generate(sk);

    // Sequential baseline: construction + full run per corner.
    double wns0 = 0.0, tns0 = 0.0;
    int violated0 = 0;
    auto t = Clock::now();
    for (int k = 0; k < K; ++k) {
      m3d::sta::StaOptions o = base;
      o.corners = cs.single(k);
      m3d::sta::Sta sta(d, &routes, o);
      const auto& r = sta.run();
      if (k == 0) {
        wns0 = r.wns();
        tns0 = r.tns();
        violated0 = r.violated_endpoints();
      }
    }
    p.seq_s = seconds_since(t);

    // One K-lane sweep.
    t = Clock::now();
    m3d::sta::StaOptions o = base;
    o.corners = sk;
    m3d::sta::Sta sta(d, &routes, o);
    const auto& r = sta.run();
    p.sweep_s = seconds_since(t);

    p.speedup = p.seq_s / p.sweep_s;
    p.identity_ok = r.corner_count() == K && r.wns() == wns0 &&
                    r.tns() == tns0 &&
                    r.violated_endpoints() == violated0 &&
                    r.corner_wns(0) == wns0 && r.corner_tns(0) == tns0;
    all_ok = all_ok && p.identity_ok;
    points.push_back(p);
    std::printf("%8d %10.3f %10.3f %8.2fx %9s\n", K, p.seq_s, p.sweep_s,
                p.speedup, p.identity_ok ? "ok" : "FAIL");
    std::fflush(stdout);
  }

  const std::string path = m3d::bench::artifact_dir() + "/BENCH_mcsta.json";
  std::ofstream os(path);
  os << "{\n  \"design\": \"netcard\",\n  \"cells\": " << cells
     << ",\n  \"scale\": " << scale
     << ",\n  \"threads\": 1,\n  \"baseline\": "
        "\"K sequential single-corner Sta construct+run\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"corners\": %d, \"seq_s\": %.3f, \"sweep_s\": %.3f, "
                  "\"speedup\": %.2f, \"lane0_identity\": %s}%s\n",
                  p.corners, p.seq_s, p.sweep_s, p.speedup,
                  p.identity_ok ? "true" : "false",
                  i + 1 < points.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
