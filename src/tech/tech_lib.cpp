#include "tech/tech_lib.hpp"

#include <algorithm>
#include <cmath>

namespace m3d::tech {

int func_input_count(CellFunc f) {
  switch (f) {
    case CellFunc::Inv:
    case CellFunc::Buf:
    case CellFunc::ClkBuf:
      return 1;
    case CellFunc::Nand2:
    case CellFunc::Nor2:
    case CellFunc::And2:
    case CellFunc::Or2:
    case CellFunc::Xor2:
    case CellFunc::Xnor2:
      return 2;
    case CellFunc::Nand3:
    case CellFunc::Nor3:
    case CellFunc::Aoi21:
    case CellFunc::Oai21:
    case CellFunc::Mux2:
      return 3;
    case CellFunc::Dff:
      return 1;  // D pin; CLK handled separately
  }
  return 1;
}

const char* func_name(CellFunc f) {
  switch (f) {
    case CellFunc::Inv: return "INV";
    case CellFunc::Buf: return "BUF";
    case CellFunc::ClkBuf: return "CLKBUF";
    case CellFunc::Nand2: return "NAND2";
    case CellFunc::Nor2: return "NOR2";
    case CellFunc::And2: return "AND2";
    case CellFunc::Or2: return "OR2";
    case CellFunc::Xor2: return "XOR2";
    case CellFunc::Xnor2: return "XNOR2";
    case CellFunc::Nand3: return "NAND3";
    case CellFunc::Nor3: return "NOR3";
    case CellFunc::Aoi21: return "AOI21";
    case CellFunc::Oai21: return "OAI21";
    case CellFunc::Mux2: return "MUX2";
    case CellFunc::Dff: return "DFF";
  }
  return "?";
}

bool func_is_sequential(CellFunc f) { return f == CellFunc::Dff; }

bool func_is_buffering(CellFunc f) {
  return f == CellFunc::Inv || f == CellFunc::Buf || f == CellFunc::ClkBuf;
}

int TechLib::add_cell(LibCell cell) {
  const int idx = static_cast<int>(cells_.size());
  const auto f = static_cast<std::size_t>(cell.func);
  M3D_CHECK_MSG(f < ladders_.size(), "cell " << cell.name
                                            << " has no valid function");
  auto& rungs = ladders_[f];
  const auto at = std::lower_bound(
      rungs.begin(), rungs.end(), cell.drive,
      [](const Rung& r, int drive) { return r.drive < drive; });
  M3D_CHECK_MSG(at == rungs.end() || at->drive != cell.drive,
                "duplicate cell " << cell.name);
  rungs.insert(at, Rung{cell.drive, idx});
  cells_.push_back(std::move(cell));
  return idx;
}

int TechLib::add_macro(MacroCell macro) {
  const int idx = static_cast<int>(macros_.size());
  M3D_CHECK_MSG(macro_by_name_.find(macro.name) == macro_by_name_.end(),
                "duplicate macro " << macro.name);
  macro_by_name_[macro.name] = idx;
  macros_.push_back(std::move(macro));
  return idx;
}

const LibCell& TechLib::cell(int idx) const {
  M3D_CHECK(idx >= 0 && idx < cell_count());
  return cells_[static_cast<std::size_t>(idx)];
}

const MacroCell& TechLib::macro(int idx) const {
  M3D_CHECK(idx >= 0 && idx < macro_count());
  return macros_[static_cast<std::size_t>(idx)];
}

const std::vector<TechLib::Rung>& TechLib::ladder(CellFunc func) const {
  static const std::vector<Rung> kNone;
  const auto f = static_cast<std::size_t>(func);
  return f < ladders_.size() ? ladders_[f] : kNone;
}

const LibCell* TechLib::find(CellFunc func, int drive) const {
  const int idx = find_index(func, drive);
  return idx < 0 ? nullptr : &cells_[static_cast<std::size_t>(idx)];
}

int TechLib::find_index(CellFunc func, int drive) const {
  for (const Rung& r : ladder(func)) {
    if (r.drive == drive) return r.idx;
    if (r.drive > drive) break;
  }
  return -1;
}

int TechLib::find_macro(std::string_view name) const {
  const auto it = macro_by_name_.find(name);
  return it == macro_by_name_.end() ? -1 : it->second;
}

std::vector<int> TechLib::drives_for(CellFunc func) const {
  std::vector<int> out;
  for (const Rung& r : ladder(func)) out.push_back(r.drive);
  return out;
}

int TechLib::upsize(CellFunc func, int drive) const {
  for (const Rung& r : ladder(func))
    if (r.drive > drive) return r.drive;
  return -1;
}

int TechLib::downsize(CellFunc func, int drive) const {
  int below = -1;
  for (const Rung& r : ladder(func)) {
    if (r.drive >= drive) break;
    below = r.drive;
  }
  return below;
}

double boundary_delay_derate(double driver_input_vdd, double cell_vdd,
                             double vth, double alpha) {
  // A naive alpha-power argument (delay ∝ (VG−Vth)^-α) would predict ~25 %
  // per stage for a 0.09 V rail gap — but SPICE (paper Table III, and our
  // ckt::simulate_fo4) shows only a few percent: the foreign rail shifts
  // the input's switching point, not the cell's drive strength for most of
  // the transition. The derate is therefore first-order in the relative
  // rail gap, calibrated to the FO-4 measurements (~4–5 % per 10 % gap),
  // with the alpha-power term entering only as a small correction via the
  // threshold proximity.
  M3D_CHECK(driver_input_vdd > vth && cell_vdd > vth);
  const double gap = (cell_vdd - driver_input_vdd) / cell_vdd;
  // Sensitivity grows as the rail gap approaches the threshold margin.
  const double margin = (cell_vdd - vth) / cell_vdd;
  const double sens = 0.45 * alpha / 1.3 / std::max(margin, 0.1) * 0.64;
  return 1.0 + sens * gap;
}

double boundary_leakage_derate(double driver_input_vdd, double cell_vdd,
                               double subthreshold_slope_v) {
  // When the gate input rests at VG != VDD, the nominally-off transistor
  // sees a gate-source offset of (VG - VDD), changing sub-threshold leakage
  // exponentially: I ∝ exp((VG - VDD)/S'). Overdrive (VG > VDD) increases
  // leakage sharply (Table III: +250 %); underdrive suppresses it (-45 %).
  M3D_CHECK(subthreshold_slope_v > 0.0);
  return std::exp((driver_input_vdd - cell_vdd) / subthreshold_slope_v);
}

bool level_shifter_free(double vdd_a, double vdd_b, double min_vthp) {
  const double hi = std::max(vdd_a, vdd_b);
  const double lo = std::min(vdd_a, vdd_b);
  const double gap = hi - lo;
  return gap < 0.3 * hi && gap < min_vthp;
}

}  // namespace m3d::tech
