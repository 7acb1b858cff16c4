/// \file bench_scale.cpp
/// \brief BENCH_scale: flow wall-clock and peak RSS vs cell count on the
///        mesh fabric, proving the million-cell hot paths stay near-linear.
///
/// Sweeps the parameterized mesh/NoC design across generator scales
/// (default 1, 4, 16, 100 → roughly 10k, 41k, 164k and 1M cells) and runs
/// the structural half of the flow at each point — generate, global
/// place, bin-FM tier partition + legalize, CTS + re-legalize, route —
/// timing every stage and sampling the process peak RSS after each point.
/// The stage order mirrors run_flow; in particular CTS replaces the raw
/// clock net before routing, exactly as the full flow does.
///
/// Emits <artifact_dir>/BENCH_scale.json with, per point: cell/net
/// counts, per-stage and total seconds, peak RSS, `linear_ratio` —
/// (total_s / cells) normalized to the first (smallest) point — and
/// `digest`, a hex digest of the final design (netlist::state_digest) and
/// of a single-corner signoff STA at 1.0 ns (sta::timing_fingerprint),
/// both taken after the timed stages. A curve whose ratios stay near 1.0
/// is linear in the cell count; the CI scale-smoke job asserts a budgeted
/// single point and reruns it at one worker, whose digest must match, and
/// the full sweep is for the artifact. The host's core count is recorded
/// as `nproc`.
///
/// Knobs: M3D_SCALE_POINTS — comma-separated generator scales (e.g.
/// "1,4,16"; an element that is not one whole number throws, and
/// non-positive ones are dropped); sizes always run ascending so the
/// monotone peak-RSS readings stay attributable. With M3D_STA_CORNERS > 1
/// each point also runs a post-route multi-corner STA sweep
/// (tech::corner_spec_from_env) and records its wall-clock as `sta_s` —
/// the K-lane sweep must ride the same near-linear curve as the structural
/// stages.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/flow.hpp"
#include "cts/cts.hpp"
#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "part/fm.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/corners.hpp"
#include "util/env.hpp"
#include "util/hash.hpp"
#include "util/main.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<double> scale_points() {
  std::vector<double> pts;
  for (double v : m3d::util::env_list("M3D_SCALE_POINTS").value_or(
           std::vector<double>{}))
    if (v > 0.0) pts.push_back(v);
  if (pts.empty()) pts = {1.0, 4.0, 16.0, 100.0};
  std::sort(pts.begin(), pts.end());
  return pts;
}

struct Point {
  double scale = 0.0;
  int cells = 0;
  int nets = 0;
  double gen_s = 0.0;
  double place_s = 0.0;
  double part_s = 0.0;
  double cts_s = 0.0;
  double route_s = 0.0;
  double sta_s = 0.0;   ///< multi-corner sweep; 0 when M3D_STA_CORNERS off
  int sta_corners = 1;
  double total_s = 0.0;
  long rss_kb = 0;
  double wirelength_um = 0.0;
  int cut = 0;
  std::uint64_t digest = 0;  ///< final state + signoff timing
};

int run(int, char**) {
  m3d::bench::quiet_logs();

  std::vector<Point> points;
  std::printf("%10s %9s %9s %8s %8s %8s %8s %8s %8s %10s %7s\n", "scale",
              "cells", "nets", "gen_s", "place_s", "part_s", "cts_s",
              "route_s", "total_s", "rss_kb", "ratio");
  for (const double scale : scale_points()) {
    Point p;
    p.scale = scale;
    const auto t_total = Clock::now();

    auto t = Clock::now();
    m3d::gen::GenOptions g;
    g.scale = scale;
    m3d::netlist::Netlist nl = m3d::gen::make_mesh(g);
    p.gen_s = seconds_since(t);
    const auto st = nl.stats();
    p.cells = st.cells;
    p.nets = st.nets;

    m3d::netlist::Design d =
        m3d::core::design_for_config(nl, m3d::core::Config::ThreeD12T);

    // Stage order follows run_flow's pseudo-3-D recipe: global-place at
    // the folded footprint, tier-partition, then per-tier legalization
    // (legalizing pre-partition would overfill the folded tier).
    t = Clock::now();
    m3d::place::PlaceOptions popt;
    m3d::place::init_floorplan(d, popt);
    m3d::place::global_place(d, popt);
    p.place_s = seconds_since(t);

    t = Clock::now();
    m3d::part::FmOptions fopt;
    p.cut = m3d::part::bin_fm_partition(d, fopt);
    m3d::place::legalize(d);
    p.part_s = seconds_since(t);

    // CTS before routing, as in run_flow: the raw clock net (2·lw per
    // router tile — 400k sinks at scale 100) is replaced by a buffered
    // tree of small subnets, and the latencies are annotated again at the
    // legal positions. Routing the raw net instead would walk Θ(k^1.5)
    // tree-path hops for the per-sink delays, which no real flow stage
    // does.
    t = Clock::now();
    m3d::cts::build_clock_tree(d);
    m3d::place::legalize(d);
    m3d::cts::annotate_clock_latencies(d);
    p.cts_s = seconds_since(t);

    // Route on the shared pool, as run_flow does; per-net results and
    // totals are byte-identical to a serial route at any pool size.
    t = Clock::now();
    const auto est =
        m3d::route::route_design(d, {&m3d::exec::Pool::global()});
    p.route_s = seconds_since(t);
    p.wirelength_um = est.total_wirelength_um;

    // Optional multi-corner sweep on the routed point: one K-lane STA
    // pass over the same graph the flow's signoff would walk.
    const auto cspec = m3d::tech::corner_spec_from_env();
    if (cspec.count > 1) {
      t = Clock::now();
      m3d::sta::StaOptions sopt;
      sopt.pool = &m3d::exec::Pool::global();
      sopt.corners = cspec;
      m3d::sta::run_sta(d, &est, sopt);
      p.sta_s = seconds_since(t);
      p.sta_corners = cspec.count;
    }

    p.total_s = seconds_since(t_total);
    p.rss_kb = m3d::bench::peak_rss_kb();

    // Untimed, and after the RSS sample: the digest every pool size must
    // reproduce.
    d.set_clock_period_ns(1.0);
    m3d::sta::StaOptions signoff;
    signoff.pool = &m3d::exec::Pool::global();
    m3d::util::Hasher h;
    h.mix(m3d::netlist::state_digest(d));
    h.mix(m3d::sta::timing_fingerprint(m3d::sta::run_sta(d, &est, signoff)));
    p.digest = h.h;
    points.push_back(p);

    const double base =
        points.front().total_s / std::max(1, points.front().cells);
    const double ratio = (p.total_s / std::max(1, p.cells)) / base;
    std::printf("%10.1f %9d %9d %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %10ld "
                "%7.2f\n",
                p.scale, p.cells, p.nets, p.gen_s, p.place_s, p.part_s,
                p.cts_s, p.route_s, p.total_s, p.rss_kb, ratio);
    std::fflush(stdout);
  }

  const std::string path = m3d::bench::artifact_dir() + "/BENCH_scale.json";
  std::ofstream os(path);
  const double base =
      points.front().total_s / std::max(1, points.front().cells);
  os << "{\n  \"design\": \"mesh\",\n  \"stages\": "
        "\"generate+place+partition+cts+route\",\n  \"nproc\": "
     << std::thread::hardware_concurrency()
     << ",\n  \"pool_workers\": " << m3d::exec::Pool::global().size()
     << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const double ratio = (p.total_s / std::max(1, p.cells)) / base;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"scale\": %g, \"cells\": %d, \"nets\": %d, \"gen_s\": %.3f, "
        "\"place_s\": %.3f, \"part_s\": %.3f, \"cts_s\": %.3f, "
        "\"route_s\": %.3f, \"sta_s\": %.3f, \"sta_corners\": %d, "
        "\"total_s\": %.3f, \"peak_rss_kb\": %ld, \"wirelength_um\": %.0f, "
        "\"cut\": %d, \"linear_ratio\": %.3f, \"digest\": \"%016" PRIx64
        "\"}%s\n",
        p.scale, p.cells, p.nets, p.gen_s, p.place_s, p.part_s, p.cts_s,
        p.route_s, p.sta_s, p.sta_corners, p.total_s, p.rss_kb,
        p.wirelength_um, p.cut, ratio, p.digest,
        i + 1 < points.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
