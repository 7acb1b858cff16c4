#pragma once
/// \file design.hpp
/// \brief A physical design: netlist + tier binding + geometry + clocking.
///
/// The Design is what flows operate on. Heterogeneity lives here: each tier
/// has its own TechLib, and a cell's electrical/physical view is resolved
/// through the library of the tier it is currently assigned to. Moving a
/// cell between tiers (partitioning, repartitioning ECO) *is* the
/// technology remap.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "tech/tech_lib.hpp"
#include "util/geom.hpp"

namespace m3d::netlist {

/// Tier indices. In the paper's arrangement the *bottom* die holds the
/// fast 12-track cells and the *top* die the slow 9-track cells. Stacks
/// with more than two tiers number upward from the bottom; kTopTier keeps
/// naming the first stacked tier, which *is* the top of a 2-tier stack.
inline constexpr int kBottomTier = 0;
inline constexpr int kTopTier = 1;

/// A placed (or to-be-placed) design instance.
class Design {
 public:
  Design(Netlist nl, std::shared_ptr<const tech::TechLib> bottom_lib,
         std::shared_ptr<const tech::TechLib> top_lib = nullptr);

  /// N-tier stack: one library per tier, bottom first. At least one.
  Design(Netlist nl,
         std::vector<std::shared_ptr<const tech::TechLib>> tier_libs);

  Netlist& nl() { return nl_; }
  const Netlist& nl() const { return nl_; }

  /// 1 for 2-D designs, 2+ for stacked designs.
  int num_tiers() const { return static_cast<int>(libs_.size()); }
  bool is_3d() const { return num_tiers() >= 2; }

  const tech::TechLib& lib(int tier) const;
  std::shared_ptr<const tech::TechLib> lib_ptr(int tier) const;

  /// Library binding of a specific cell (through its tier).
  const tech::TechLib& lib_of(CellId c) const { return lib(tier(c)); }

  /// Resolved standard-cell view; nullptr for ports and macros.
  const tech::LibCell* lib_cell(CellId c) const;

  /// Resolved macro view; nullptr unless the cell is a macro.
  const tech::MacroCell* macro(CellId c) const;

  /// Silicon area of one cell in its current tier's library (µm²).
  double cell_area(CellId c) const;

  /// Placement width/height of a cell.
  double cell_width(CellId c) const;
  double cell_height(CellId c) const;

  /// Input capacitance presented by a pin (fF).
  double pin_cap_ff(PinId p) const;

  // ---- tier / position state -------------------------------------------
  int tier(CellId c) const { return tier_[idx(c)]; }
  void set_tier(CellId c, int t);
  util::Point pos(CellId c) const { return pos_[idx(c)]; }
  void set_pos(CellId c, util::Point p) { pos_[idx(c)] = p; }

  /// Position of a pin — cells are treated as points (their center); pin
  /// offsets are below placement resolution for this abstraction level.
  util::Point pin_pos(PinId p) const { return pos(nl_.pin(p).cell); }

  /// Resize per-cell state after netlist edits (buffering, CTS, ECO).
  /// New cells inherit tier `default_tier` and position {0,0}.
  void sync(int default_tier = kBottomTier);

  // ---- floorplan / clock -----------------------------------------------
  const util::Rect& floorplan() const { return floorplan_; }
  void set_floorplan(const util::Rect& r) { floorplan_ = r; }

  double clock_period_ns() const { return clock_period_ns_; }
  void set_clock_period_ns(double t) { clock_period_ns_ = t; }

  NetId clock_net() const { return clock_net_; }
  void set_clock_net(NetId n) { clock_net_ = n; }

  /// Clock arrival latency at a cell's clock pin (ns). Zero before CTS
  /// (ideal clock), populated by the CTS stage.
  double clock_latency(CellId c) const { return clock_latency_[idx(c)]; }
  void set_clock_latency(CellId c, double l) { clock_latency_[idx(c)] = l; }

  // ---- aggregates --------------------------------------------------------
  /// Total standard-cell area (excludes macros and ports).
  double total_std_cell_area() const;
  /// Standard-cell area on one tier.
  double tier_std_cell_area(int t) const;
  /// Total macro area (same on every tier library by construction).
  double total_macro_area() const;
  /// Total silicon area occupied: footprint × tiers.
  double silicon_area() const {
    return floorplan_.area() * num_tiers();
  }
  /// Placement density = (cell + macro area) / available silicon.
  double density() const;

 private:
  std::size_t idx(CellId c) const {
    M3D_CHECK(c >= 0 && c < nl_.cell_count());
    return static_cast<std::size_t>(c);
  }

  Netlist nl_;
  std::vector<std::shared_ptr<const tech::TechLib>> libs_;  // bottom first
  std::vector<int> tier_;
  std::vector<util::Point> pos_;
  util::Rect floorplan_;
  double clock_period_ns_ = 1.0;
  NetId clock_net_ = kInvalidId;
  std::vector<double> clock_latency_;
};

/// util::Hasher digest of every cell's tier, exact position bits and clock
/// latency, in cell order. With equal netlist fingerprints, equal digests
/// mean byte-identical placements; m3dd's result digest and the
/// checkpoint_restart example print it.
std::uint64_t state_digest(const Design& d);

}  // namespace m3d::netlist
