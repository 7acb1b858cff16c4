#pragma once
/// \file tech_lib.hpp
/// \brief A complete technology library: cells, macros, wires, voltages.

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tech/lib_cell.hpp"
#include "tech/wire_model.hpp"

namespace m3d::tech {

/// One standard-cell library (a "tier technology" in heterogeneous 3-D).
/// Identified by its track count; holds all cells, the BEOL model shared
/// with the partner library, and the electrical corner (VDD, Vth).
class TechLib {
 public:
  TechLib(std::string name, int tracks, double vdd, double vthp,
          double row_height_um)
      : name_(std::move(name)),
        tracks_(tracks),
        vdd_(vdd),
        vthp_(vthp),
        row_height_um_(row_height_um) {}

  const std::string& name() const { return name_; }
  int tracks() const { return tracks_; }
  double vdd() const { return vdd_; }
  double vthp() const { return vthp_; }
  double row_height_um() const { return row_height_um_; }

  const WireModel& wire() const { return wire_; }
  void set_wire(const WireModel& w) { wire_ = w; }
  const MivModel& miv() const { return miv_; }
  void set_miv(const MivModel& m) { miv_ = m; }

  /// Register a cell; its (function, drive) must be unique. Returns its
  /// index.
  int add_cell(LibCell cell);

  /// Register a macro; name must be unique. Returns its index.
  int add_macro(MacroCell macro);

  int cell_count() const { return static_cast<int>(cells_.size()); }
  int macro_count() const { return static_cast<int>(macros_.size()); }

  const LibCell& cell(int idx) const;
  const MacroCell& macro(int idx) const;

  /// Cell lookup by function and drive; returns nullptr if absent.
  const LibCell* find(CellFunc func, int drive) const;

  /// Index of a cell by function and drive; -1 if absent. Walks the
  /// function's drive ladder (a handful of entries): this runs once per
  /// Design::lib_cell call, i.e. once per timing arc and sink pin cap.
  int find_index(CellFunc func, int drive) const;

  /// Macro lookup by name; returns -1 if absent.
  int find_macro(std::string_view name) const;

  /// Available drive strengths for a function, ascending.
  std::vector<int> drives_for(CellFunc func) const;

  /// Next-larger drive for a function (-1 when already at max). Used by
  /// the sizing optimizer.
  int upsize(CellFunc func, int drive) const;

  /// Next-smaller drive (-1 when already at min).
  int downsize(CellFunc func, int drive) const;

  /// Area of a cell in this library (width × row height).
  double cell_area_um2(int idx) const {
    return cell(idx).area_um2(row_height_um_);
  }

 private:
  std::string name_;
  int tracks_;
  double vdd_;
  double vthp_;
  double row_height_um_;
  WireModel wire_;
  MivModel miv_;
  /// One rung of a drive ladder: a drive strength and its cell index.
  struct Rung {
    int drive;
    int idx;
  };
  /// The rungs of `func`, by ascending drive; empty for an out-of-range
  /// func.
  const std::vector<Rung>& ladder(CellFunc func) const;

  std::vector<LibCell> cells_;
  std::vector<MacroCell> macros_;
  std::array<std::vector<Rung>, kCellFuncCount> ladders_;  // per CellFunc
  std::map<std::string, int, std::less<>> macro_by_name_;
};

/// Voltage-boundary derating between two tiers (paper §II-B, Tables II/III).
///
/// When a cell's input signal swings to a *different* VDD than the cell's
/// own rail, the stage speeds up (overdrive: VG > VDD) or slows down
/// (underdrive: VG < VDD). Returns a multiplicative delay factor derived
/// from the alpha-power-law drain current I ∝ (VG − Vth)^α.
double boundary_delay_derate(double driver_input_vdd, double cell_vdd,
                             double vth, double alpha = 1.3);

/// Leakage derate when a cell's gate input is held at a different rail
/// voltage (sub-threshold leakage is exponential in the gate overdrive of
/// the nominally-off device). Matches the large-but-asymmetric leakage
/// deltas of Table III.
double boundary_leakage_derate(double driver_input_vdd, double cell_vdd,
                               double subthreshold_slope_v = 0.09);

/// The paper's level-shifter-free operation rule: the voltage gap between
/// tiers must stay below 0.3·VDDH and below the smallest Vthp involved.
bool level_shifter_free(double vdd_a, double vdd_b, double min_vthp);

}  // namespace m3d::tech
