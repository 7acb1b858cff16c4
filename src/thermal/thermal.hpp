#pragma once
/// \file thermal.hpp
/// \brief Steady-state grid thermal analysis for 2-D and monolithic-3-D
///        designs — the classic M3D concern the paper defers to future
///        work ("a thorough study ... is required for a complete
///        understanding of heterogeneous 3-D ICs").
///
/// Model: each tier's footprint is discretized into an N×N grid of thermal
/// nodes. Nodes couple laterally through silicon spreading resistance,
/// vertically between tiers through the thin inter-layer dielectric (the
/// monolithic stack's bottleneck — ILD conducts ~100× worse than silicon),
/// and the bottom tier couples to the package/heat-sink at ambient. Cell
/// and macro power (from power::PowerReport-style analysis) injects heat
/// at the node under each instance. Gauss–Seidel relaxation solves the
/// resulting linear system.
///
/// The heterogeneous story this surfaces: the 9-track top tier burns less
/// power than a 12-track top tier would, so the hetero stack runs cooler
/// than homogeneous 12-track 3-D at the same frequency — an unpublished
/// but direct corollary of the paper's power results.

#include <vector>

#include "netlist/design.hpp"
#include "power/power.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::thermal {

using netlist::Design;

/// Physical knobs (units chosen so resistances come out in K/W).
struct ThermalOptions {
  int grid = 16;  ///< nodes per axis per tier
  /// Lateral thermal conductance between adjacent nodes, scaled by the
  /// node geometry internally (W/K per square of silicon + BEOL stack).
  double lateral_conductance_w_per_k = 2.5e-3;
  /// Vertical conductance through the inter-tier ILD per µm² of overlap.
  double inter_tier_conductance_w_per_k_um2 = 1.2e-7;
  /// Conductance from each bottom-tier node to the heat sink per µm².
  double sink_conductance_w_per_k_um2 = 6.0e-7;
  double ambient_c = 45.0;  ///< package ambient (°C)
  int max_iters = 4000;
  double tolerance_c = 1e-4;  ///< max node update at convergence
  /// Worker pool for the power-map gather (the Gauss–Seidel sweep itself
  /// is inherently serial); nullptr means exec::Pool::global(). The map is
  /// identical at any pool size: contributions accumulate into per-chunk
  /// partial maps over fixed id ranges, combined serially in chunk order.
  exec::Pool* pool = nullptr;
};

/// Result of one solve.
struct ThermalReport {
  double max_temp_c = 0.0;           ///< hottest node
  double avg_temp_c = 0.0;           ///< power-map average
  double max_temp_tier_c[2] = {0, 0};
  double avg_temp_tier_c[2] = {0, 0};
  int hotspot_x = 0, hotspot_y = 0, hotspot_tier = 0;
  int iterations = 0;
  /// Per-tier temperature maps, row-major grid×grid (°C).
  std::vector<std::vector<double>> tier_maps;
};

/// Build the power map (W per grid node) from the design's per-cell
/// power: net switching assigned to driver locations, internal/leakage to
/// cell locations. `freq_ghz` must match the PowerReport's frequency.
std::vector<std::vector<double>> power_map_w(const Design& d,
                                             const power::PowerReport& pw,
                                             int grid,
                                             exec::Pool* pool = nullptr);

/// Solve the steady-state temperature field.
ThermalReport analyze_thermal(const Design& d, const power::PowerReport& pw,
                              const ThermalOptions& opt = {});

}  // namespace m3d::thermal
