#pragma once
/// \file fm.hpp
/// \brief Fiduccia–Mattheyses min-cut tier partitioning with area balance,
///        plus the placement-driven bin-based variant used by pseudo-3-D
///        flows. One engine serves every stack height: moves are (cell,
///        target tier) pairs, and an optional die-cost term joins the cut
///        in the objective (FmOptions::cost_weight).
///
/// The bin-based variant enforces the area balance *per placement bin*
/// instead of globally: each bin of the pseudo-3-D placement must split
/// close to its target shares between tiers, so folding the footprint
/// does not disturb the optimized x/y placement — this is the
/// partitioning step of Shrunk-2-D/Compact-2-D/Pin-3-D that the paper
/// builds on.
///
/// Area accounting is heterogeneity-aware: a cell's area is evaluated in
/// the library of the tier it would occupy, so a 12-track cell "shrinks"
/// when hypothetically moved to the 9-track tier.
///
/// Balance: on two tiers a move is feasible when the top tier's share of
/// the region lands within balance_tol of its target. On three or more
/// tiers both affected tiers must land within balance_tol of their
/// targets, or strictly reduce their deviation, so an out-of-balance
/// start can converge. fm.cpp gives the measured reason for each rule.

#include <vector>

#include "cost/cost.hpp"
#include "netlist/design.hpp"

namespace m3d::exec {
class Pool;
}

namespace m3d::part {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;

/// Per-run FM accounting. `moves` counts every accepted move (before
/// best-prefix rollback).
struct FmStats {
  long long passes = 0;  ///< FM passes executed
  long long moves = 0;   ///< moves accepted across all passes
};

/// Partitioning knobs. The pass budget is a constant in fm.cpp, and the
/// cost term prices dies with the Table-IV cost::CostModel defaults.
struct FmOptions {
  double balance_tol = 0.10;  ///< allowed deviation from a target share
  int bins = 8;               ///< bin grid per axis (bin-based variant)
  unsigned seed = 1;          ///< initial-assignment seed
  /// Worker pool for the per-pass initial gain computation (2,048-cell
  /// chunks); nullptr means exec::Pool::global(). Results are identical
  /// for any pool size (gains are integers computed independently per
  /// cell, and the move loop is serial), so this field is excluded from
  /// flow-cache option hashes.
  exec::Pool* pool = nullptr;
  /// When non-null, per-run counters are accumulated here.
  FmStats* stats = nullptr;

  /// Per-tier target area shares, bottom first (normalized internally).
  /// Empty means uniform 1/num_tiers.
  std::vector<double> tier_share;
  /// Optional hard per-tier standard-cell area caps in µm² (0 = uncapped).
  /// Enforced on the whole-design tier totals, on top of the per-region
  /// share balance.
  std::vector<double> tier_area_cap_um2;
  /// µ: weight of the die-cost term in the move objective
  /// J = cut + µ · die_cost(footprint, tiers). Zero keeps pure min-cut.
  /// Die cost is in C′ (~1e-5 for mm²-scale dies), so meaningful weights
  /// are large (1e4–1e6 trades one net of cut against ~0.1–10 µC′).
  double cost_weight = 0.0;
  /// Per-tier process cost shares for the cost term, bottom first.
  /// Empty = uniform Table-IV shares on every tier.
  std::vector<cost::TierProcess> tier_process;
  /// Placement utilization used to turn the largest tier's standard-cell
  /// area into a die footprint for the cost term.
  double utilization = 0.65;
};

/// Area of a standard cell if it sat on tier `t` (heterogeneity-aware).
double cell_area_on(const Design& d, CellId c, int t);

/// Number of signal nets spanning two or more tiers (the cut).
int cut_size(const Design& d);

/// Fraction of signal nets spanning tiers (paper: ~15 % for the CPU).
double cut_fraction(const Design& d);

/// Whole-design FM min-cut. Cells in `locked` (by id) keep their current
/// tier. Assigns every movable cell a tier; returns the final cut size.
int fm_mincut(Design& d, const FmOptions& opt = {},
              const std::vector<char>* locked = nullptr);

/// Placement-driven bin-based FM: per-bin area balance so the 2-D
/// placement survives folding. Returns the final cut size.
int bin_fm_partition(Design& d, const FmOptions& opt = {},
                     const std::vector<char>* locked = nullptr);

}  // namespace m3d::part
