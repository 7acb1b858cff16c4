#pragma once
/// \file verilog_reader.hpp
/// \brief Structural Verilog reader for the subset write_verilog emits:
///        module header with input/output ports, wire declarations
///        (`// clock` comments mark clock nets), port-binding assigns,
///        and gate/macro instances with named connections.
///
/// Accepted subset:
///   - `module NAME ( input a, output b, ... );` ... `endmodule`;
///   - `wire n;`, optionally followed by a `// clock` comment;
///   - `assign net = in_port;` and `assign out_port = net;`;
///   - `TYPE inst ( .PIN(net), ... );` where PIN is `A<i>`, `Z`, `Z<i>` or
///     `CK`. An empty connection `.PIN()` (the writer prints
///     `.PIN(/*open*/)`) names the pin and leaves it unconnected; an open
///     input still fails Netlist::validate().
///   - identifiers of letters, digits, `_` and `$`, optionally behind a
///     `\` escape; `//` and `/* */` comments.
///
/// Cell types resolve from their names: `FUNC_Xd` (e.g. `NAND2_X4`) maps
/// to a combinational/sequential cell with that function and drive;
/// anything else is treated as a macro whose pin counts come from the
/// instance's own connection list (A-pins in, Z-pins out, CK clock).
///
/// Cells, nets and pins are created in file order, so writer → reader
/// keeps every id and every net's pin order.
///
/// Net activities are not part of Verilog; they reset to defaults
/// (structure round-trips losslessly, activities do not).
///
/// Cost: linear in the text. Tokens are views into the caller's string,
/// so nothing is allocated per token or per instance; one counting pass
/// sizes the netlist and the name tables up front, and each net or port
/// name reference costs one hash lookup (an `assign` tries its right-hand
/// side as a port first). The parse is serial.

#include <string>

#include "netlist/netlist.hpp"

namespace m3d::netlist {

/// Parse structural Verilog text into a Netlist. Malformed input throws
/// util::Error; a syntax error names the line of the offending token, and
/// an error in a statement's meaning (an undeclared net, an unknown or
/// twice-connected pin, a second driver, a malformed number) names the
/// line the statement starts on.
///
/// Keep this exact signature: the benchmark's probe (m3dbench/probe.cpp)
/// wraps the function by its mangled name.
Netlist parse_verilog(const std::string& text);

}  // namespace m3d::netlist
