#pragma once
/// \file place.hpp
/// \brief Floorplanning, global placement, spreading and row legalization.
///
/// The placer follows the classic quadratic-placement recipe in a compact
/// form: (1) iterative net-centroid relaxation pulls connected cells
/// together (the fixed ports/macros anchor the system), (2) per-axis
/// histogram equalization spreads the resulting clump to uniform density,
/// and (3) a Tetris-style packer legalizes each tier onto its own row grid,
/// dropping every cell into the nearest free gap of the nearest row that
/// holds it (9-track rows are shorter than 12-track rows, so each tier
/// legalizes against its own library).
///
/// In 3-D mode both tiers share the same x/y floorplan; overlap is only
/// forbidden between cells on the same tier — vertical stacking is the
/// whole point of monolithic 3-D.

#include "netlist/design.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::place {

using netlist::CellId;
using netlist::Design;

/// Placement knobs. The floorplan aspect ratio and the relaxation and
/// spreading schedule are constants in place.cpp.
struct PlaceOptions {
  double utilization = 0.65;  ///< target cell-area utilization of the core
  unsigned seed = 1;          ///< initial-placement scatter seed
  /// Worker pool for the relaxation/spreading passes and the spreading
  /// histogram; nullptr means exec::Pool::global(). Placements are
  /// byte-identical for any pool size (single-writer updates; histogram
  /// reductions use fixed 2,048-cell chunks), so this field is excluded
  /// from flow-cache option hashes.
  exec::Pool* pool = nullptr;
};

/// Size the floorplan from cell/macro area and target utilization, pin the
/// macros in columns along the left/right edges (bottom tier), and spread
/// the ports around the boundary. Must run before global_place.
void init_floorplan(Design& d, const PlaceOptions& opt = {});

/// Wirelength-driven global placement of all movable cells (both tiers
/// share coordinates). Leaves cells unlegalized.
void global_place(Design& d, const PlaceOptions& opt = {});

/// Snap cells to rows and remove same-tier overlaps, avoiding macro
/// regions. Positions after this are final placements. Each tier is packed
/// by one task on exec::Pool::global(); the result does not depend on the
/// pool size.
void legalize(Design& d);

/// Resize the floorplan to restore `utilization` after cell area changed
/// (heterogeneous tier remap shrinks ~12.5 %; 9-track upsizing grows it).
/// Movable cells keep their relative positions; macros and ports are
/// re-pinned on the new outline. Follow with legalize().
void rescale_to_utilization(Design& d, double utilization);

/// Convenience: floorplan + global place + legalize.
void place_design(Design& d, const PlaceOptions& opt = {});

/// Maximum same-tier overlap area between any two cells (µm²); 0 means the
/// placement is legal. Used by tests and flow assertions.
double max_overlap_um2(const Design& d);

/// Macro area sitting on one tier (µm²).
double tier_macro_area(const Design& d, int tier);

/// Mean displacement between current positions and a saved snapshot — used
/// to quantify the pseudo-3-D vs final-3-D placement mismatch the paper's
/// 20–30 % timing-partition cap is designed to limit.
double mean_displacement_um(const Design& d,
                            const std::vector<util::Point>& snapshot);

}  // namespace m3d::place
