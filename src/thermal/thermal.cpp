#include "thermal/thermal.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "exec/pool.hpp"
#include "util/log.hpp"

namespace m3d::thermal {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;

namespace {

/// Fixed id-range chunk for the power-map scatter: each chunk accumulates
/// its own partial map and the partials combine serially in chunk order,
/// so the map is independent of the pool size (including 1).
constexpr int kMapChunk = 4096;

using Maps = std::vector<std::vector<double>>;

/// Scatter items [0, n) into per-chunk partial maps via scatter(i, partial)
/// and fold the partials into `maps` in chunk order.
void chunked_scatter(exec::Pool* pool, int n, int tiers, int bins, Maps& maps,
                     const std::function<void(int, Maps&)>& scatter) {
  const int chunks = (n + kMapChunk - 1) / kMapChunk;
  if (chunks <= 0) return;
  std::vector<Maps> partial(
      static_cast<std::size_t>(chunks),
      Maps(static_cast<std::size_t>(tiers),
           std::vector<double>(static_cast<std::size_t>(bins), 0.0)));
  auto run_chunk = [&](int c) {
    Maps& p = partial[static_cast<std::size_t>(c)];
    const int hi = std::min(n, (c + 1) * kMapChunk);
    for (int i = c * kMapChunk; i < hi; ++i) scatter(i, p);
  };
  exec::pool_or_global(pool).parallel_for(0, chunks, run_chunk,
                                          /*grain=*/1);
  for (int c = 0; c < chunks; ++c)
    for (int t = 0; t < tiers; ++t)
      for (int b = 0; b < bins; ++b)
        maps[static_cast<std::size_t>(t)][static_cast<std::size_t>(b)] +=
            partial[static_cast<std::size_t>(c)][static_cast<std::size_t>(t)]
                   [static_cast<std::size_t>(b)];
}

}  // namespace

std::vector<std::vector<double>> power_map_w(const Design& d,
                                             const power::PowerReport& pw,
                                             int grid, exec::Pool* pool) {
  M3D_CHECK(grid >= 2);
  const auto& nl = d.nl();
  const auto fp = d.floorplan();
  const int tiers = d.num_tiers();
  const int bins = grid * grid;
  std::vector<std::vector<double>> maps(
      static_cast<std::size_t>(tiers),
      std::vector<double>(static_cast<std::size_t>(bins), 0.0));

  auto node_of = [&](util::Point p) {
    int x = static_cast<int>((p.x - fp.xlo) / std::max(fp.width(), 1e-9) *
                             grid);
    int y = static_cast<int>((p.y - fp.ylo) / std::max(fp.height(), 1e-9) *
                             grid);
    x = std::clamp(x, 0, grid - 1);
    y = std::clamp(y, 0, grid - 1);
    return y * grid + x;
  };

  // Net switching power lands where the driver burns it.
  chunked_scatter(pool, nl.net_count(), tiers, bins, maps,
                  [&](int n, Maps& out) {
                    const auto& net = nl.net(n);
                    if (net.driver == kInvalidId) return;
                    const CellId drv = nl.pin(net.driver).cell;
                    out[static_cast<std::size_t>(d.tier(drv))]
                       [static_cast<std::size_t>(node_of(d.pos(drv)))] +=
                        pw.net_switching_uw[static_cast<std::size_t>(n)] *
                        1e-6;
                  });

  // Internal + leakage totals distributed in proportion to cell area —
  // a per-cell re-derivation would duplicate the power engine; the map's
  // purpose is spatial shape, and area tracks both drive strength and
  // activity-independent leakage well.
  const double rest_w = (pw.internal_mw + pw.leakage_mw) * 1e-3;
  const double total_area =
      d.total_std_cell_area() + d.total_macro_area();
  if (rest_w > 0.0 && total_area > 0.0) {
    chunked_scatter(pool, nl.cell_count(), tiers, bins, maps,
                    [&](int c, Maps& out) {
                      const auto& cc = nl.cell(c);
                      if (cc.is_port()) return;
                      out[static_cast<std::size_t>(d.tier(c))]
                         [static_cast<std::size_t>(node_of(d.pos(c)))] +=
                          rest_w * d.cell_area(c) / total_area;
                    });
  }
  return maps;
}

ThermalReport analyze_thermal(const Design& d, const power::PowerReport& pw,
                              const ThermalOptions& opt) {
  const int g = opt.grid;
  const int tiers = d.num_tiers();
  const auto power_w = power_map_w(d, pw, g, opt.pool);
  const double node_area_um2 = d.floorplan().area() / (g * g);

  const double g_lat = opt.lateral_conductance_w_per_k;
  const double g_ver = opt.inter_tier_conductance_w_per_k_um2 * node_area_um2;
  const double g_sink = opt.sink_conductance_w_per_k_um2 * node_area_um2;

  // Temperature state, initialized at ambient.
  std::vector<std::vector<double>> temp(
      static_cast<std::size_t>(tiers),
      std::vector<double>(static_cast<std::size_t>(g * g), opt.ambient_c));

  ThermalReport rep;
  for (rep.iterations = 0; rep.iterations < opt.max_iters;
       ++rep.iterations) {
    double worst_delta = 0.0;
    for (int t = 0; t < tiers; ++t) {
      for (int y = 0; y < g; ++y) {
        for (int x = 0; x < g; ++x) {
          const std::size_t n = static_cast<std::size_t>(y * g + x);
          double num = power_w[static_cast<std::size_t>(t)][n];
          double den = 0.0;
          auto couple = [&](double cond, double other_t) {
            num += cond * other_t;
            den += cond;
          };
          if (x > 0)
            couple(g_lat, temp[static_cast<std::size_t>(t)][n - 1]);
          if (x + 1 < g)
            couple(g_lat, temp[static_cast<std::size_t>(t)][n + 1]);
          if (y > 0)
            couple(g_lat, temp[static_cast<std::size_t>(t)]
                              [n - static_cast<std::size_t>(g)]);
          if (y + 1 < g)
            couple(g_lat, temp[static_cast<std::size_t>(t)]
                              [n + static_cast<std::size_t>(g)]);
          // Vertical coupling through the ILD.
          if (t > 0) couple(g_ver, temp[static_cast<std::size_t>(t) - 1][n]);
          if (t + 1 < tiers)
            couple(g_ver, temp[static_cast<std::size_t>(t) + 1][n]);
          // Heat sink under the bottom tier.
          if (t == 0) couple(g_sink, opt.ambient_c);

          const double updated = num / std::max(den, 1e-18);
          worst_delta = std::max(
              worst_delta,
              std::abs(updated - temp[static_cast<std::size_t>(t)][n]));
          temp[static_cast<std::size_t>(t)][n] = updated;
        }
      }
    }
    if (worst_delta < opt.tolerance_c) break;
  }

  // Aggregate.
  rep.max_temp_c = opt.ambient_c;
  double sum = 0.0;
  for (int t = 0; t < tiers; ++t) {
    double tier_sum = 0.0;
    double tier_max = opt.ambient_c;
    for (int y = 0; y < g; ++y)
      for (int x = 0; x < g; ++x) {
        const double v =
            temp[static_cast<std::size_t>(t)][static_cast<std::size_t>(
                y * g + x)];
        tier_sum += v;
        if (v > tier_max) tier_max = v;
        if (v > rep.max_temp_c) {
          rep.max_temp_c = v;
          rep.hotspot_x = x;
          rep.hotspot_y = y;
          rep.hotspot_tier = t;
        }
      }
    rep.avg_temp_tier_c[t] = tier_sum / (g * g);
    rep.max_temp_tier_c[t] = tier_max;
    sum += tier_sum;
  }
  rep.avg_temp_c = sum / (tiers * g * g);
  rep.tier_maps = std::move(temp);
  util::log_info("thermal: max ", rep.max_temp_c, " C (tier ",
                 rep.hotspot_tier, "), avg ", rep.avg_temp_c, " C, ",
                 rep.iterations, " iterations");
  return rep;
}

}  // namespace m3d::thermal
