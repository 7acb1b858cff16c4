#pragma once
/// \file route.hpp
/// \brief Routing estimation: Steiner-style wirelength, per-sink RC paths,
///        MIV insertion for inter-tier nets, and congestion metrics.
///
/// We estimate each net as a rectilinear spanning tree (Prim MST on
/// Manhattan distance), which is a standard 1.0–1.5× envelope of the true
/// RSMT and behaves correctly under placement changes. Nets whose pins sit
/// on both tiers receive one MIV per tier-crossing tree edge — matching the
/// paper's observation that ~15 % of nets cross tiers and each crossing is
/// a single ~50 nm via, not a bump.
///
/// The whole-design entry points (route_design, total_hpwl,
/// update_routes_for_cells) are embarrassingly parallel per net and run in
/// fixed 1,024-net chunks on RouteOptions::pool (exec::Pool::global() when
/// null). Per-net results are written into per-net slots and every
/// floating-point aggregate is accumulated serially in net order
/// afterwards, so results are byte-identical at any pool size.

#include <vector>

#include "netlist/design.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::route {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;

/// Knobs for the whole-design routing entry points.
struct RouteOptions {
  /// Worker pool for the per-net loops; nullptr means
  /// exec::Pool::global(). Results are byte-identical at any pool size,
  /// so this field must stay out of exec::FlowCache::options_hash.
  exec::Pool* pool = nullptr;
};

/// Routed view of one net.
struct NetRoute {
  double length_um = 0.0;      ///< total tree wirelength
  int miv_count = 0;           ///< tier-crossing edges
  double wire_cap_ff = 0.0;    ///< total wire capacitance
  /// Per sink (aligned with Netlist::sinks(net)): distance from the driver
  /// to that sink along the tree, and whether the path crosses tiers.
  std::vector<double> sink_path_um;
  std::vector<bool> sink_crosses_tier;
};

/// Reusable per-worker buffers for route_net: one scratch per routing
/// chunk instead of four-plus heap allocations per net.
struct RouteScratch {
  std::vector<PinId> sink_pins;
  std::vector<util::Point> pt;
  std::vector<int> tier;
  std::vector<char> in_tree;
  std::vector<double> best;
  std::vector<std::size_t> parent;
  // Spatial-Prim working set (high-fanout nets only, see route_net).
  std::vector<std::pair<double, int>> minheap;   ///< candidate edges
  std::vector<std::pair<double, int>> scanheap;  ///< deferred ring scans
  std::vector<int> grid_off;
  std::vector<int> grid_live;
  std::vector<int> grid_nodes;
  std::vector<int> node_pos;
  std::vector<int> node_bucket;
  std::vector<int> ord;        ///< tree-insertion order (parent tie-break)
  std::vector<int> ring_next;  ///< next unscanned ring per tree node
  std::vector<int> super_live;  ///< live counts per 8×8 coarse grid cell
  std::vector<int> pyr;      ///< live-count pyramid over the coarse grid
  std::vector<int> pyr_off;  ///< per-level offsets into pyr
  std::vector<int> pyr_w;    ///< per-level widths
  std::vector<int> pyr_h;    ///< per-level heights
};

/// Whole-design routing estimate.
struct RoutingEstimate {
  double total_wirelength_um = 0.0;
  long long total_mivs = 0;
  double congestion = 0.0;  ///< demanded track-length / available capacity
  std::vector<NetRoute> nets;  ///< indexed by NetId
};

/// Half-perimeter wirelength of one net (0 for degenerate nets).
double hpwl(const Design& d, NetId n);

/// Sum of HPWL over all nets.
double total_hpwl(const Design& d, const RouteOptions& opt = {});

/// Route one net: build the spanning tree, measure per-sink paths and
/// tier crossings. Clock nets are routed like signal nets here; the CTS
/// stage replaces the raw clock net with a buffered tree first.
NetRoute route_net(const Design& d, NetId n);

/// route_net with caller-owned scratch buffers (hot loops reuse one
/// RouteScratch across many nets). Results are identical to route_net.
NetRoute route_net(const Design& d, NetId n, RouteScratch& scratch);

/// Route every net and compute aggregate metrics.
RoutingEstimate route_design(const Design& d, const RouteOptions& opt = {});

/// Re-route only the nets incident to `cells` — the full impact set of a
/// tier move, since positions (and thus every other net's tree) are
/// untouched — and patch `est` in place. Per-net entries are bitwise
/// identical to a fresh route_design(); the aggregate wirelength is
/// adjusted incrementally (MIV count stays integer-exact) and congestion
/// is recomputed. The ECO loop pairs this with Sta::retime().
void update_routes_for_cells(const Design& d, const std::vector<CellId>& cells,
                             RoutingEstimate* est,
                             const RouteOptions& opt = {});

/// Routing capacity model: total available track length across the
/// signal layers of all tiers (µm), given the floorplan and wire pitch.
double routing_capacity_um(const Design& d, double track_pitch_um = 0.1);

}  // namespace m3d::route
