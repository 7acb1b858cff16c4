#pragma once
/// \file lib_cell.hpp
/// \brief Standard-cell and macro descriptors for a technology library.
///
/// A LibCell carries everything PnR and STA need: footprint, pin
/// capacitances, NLDM delay/slew tables per timing arc (rise/fall), leakage
/// and internal switching energy, and sequential constraints for flops.

#include <array>
#include <string>
#include <vector>

#include "tech/nldm.hpp"
#include "util/check.hpp"

namespace m3d::tech {

/// Logic function of a standard cell. The set matches what the netlist
/// generators emit and what the optimizer is allowed to insert.
enum class CellFunc {
  Inv,
  Buf,
  ClkBuf,   // clock-tree buffer; electrically a Buf, kept separate for CTS
  Nand2,
  Nor2,
  And2,
  Or2,
  Xor2,
  Xnor2,
  Nand3,
  Nor3,
  Aoi21,
  Oai21,
  Mux2,
  Dff,      // D flip-flop with CLK and Q
};

/// Number of CellFunc values (Dff is the last).
inline constexpr int kCellFuncCount = static_cast<int>(CellFunc::Dff) + 1;

/// Number of signal (non-clock) inputs for a function.
int func_input_count(CellFunc f);

/// Short mnemonic, e.g. "NAND2".
const char* func_name(CellFunc f);

/// True for state elements (DFF).
bool func_is_sequential(CellFunc f);

/// True for inverting single-input cells where output toggles with input.
bool func_is_buffering(CellFunc f);

/// Signal transition direction at a pin.
enum class Transition { Rise = 0, Fall = 1 };

/// One input->output timing arc with rise/fall NLDM tables for delay and
/// output slew. Index by Transition at the *output*.
struct TimingArc {
  int input_index = 0;  ///< which input pin drives this arc
  std::array<NldmTable, 2> delay;      ///< [Rise, Fall] output transition
  std::array<NldmTable, 2> out_slew;   ///< [Rise, Fall] output transition
  bool inverting = true;  ///< output transition opposite to input transition
};

/// A standard cell in one library.
struct LibCell {
  std::string name;     ///< e.g. "NAND2_X2_12T"
  CellFunc func = CellFunc::Inv;
  int drive = 1;        ///< drive strength: 1, 2, 4, 8
  double width_um = 0;  ///< placement width; height comes from the library
  double input_cap_ff = 0;   ///< cap per input pin
  double clock_cap_ff = 0;   ///< cap of the clock pin (sequential only)
  double leakage_uw = 0;     ///< static leakage at nominal VDD
  double internal_energy_fj = 0;  ///< internal energy per output toggle
  std::vector<TimingArc> arcs;    ///< one per input pin (combinational)

  // Sequential-only constraints (DFF). clk_to_q uses arcs[0] with the clock
  // pin as the "input"; setup/hold are constants in ns.
  double setup_ns = 0;
  double hold_ns = 0;

  bool is_sequential() const { return func_is_sequential(func); }
  int input_count() const { return func_input_count(func); }

  /// Area in µm² given the library row height.
  double area_um2(double row_height_um) const { return width_um * row_height_um; }

  /// Arc for a given input pin; checks bounds.
  const TimingArc& arc(int input_index) const {
    M3D_CHECK(input_index >= 0 &&
              static_cast<std::size_t>(input_index) < arcs.size());
    return arcs[static_cast<std::size_t>(input_index)];
  }
};

/// A hard macro (SRAM). Macros keep the same size across libraries (the
/// paper notes CPU memories are identical in both technology variants).
struct MacroCell {
  std::string name;       ///< e.g. "SRAM_4KX32"
  double width_um = 0;
  double height_um = 0;
  double pin_cap_ff = 0;      ///< input pin cap (addr/data in)
  double access_ns = 0;       ///< clk->out access delay
  double setup_ns = 0;        ///< input setup requirement
  double out_slew_ns = 0;     ///< output slew driven by the macro
  double drive_res_kohm = 0;  ///< output drive resistance
  double leakage_uw = 0;
  double internal_energy_fj = 0;  ///< per-access internal energy

  double area_um2() const { return width_um * height_um; }
};

}  // namespace m3d::tech
