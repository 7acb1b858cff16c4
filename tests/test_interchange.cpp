// Round-trip tests for the interchange formats: Liberty (.lib) library
// serialization and structural Verilog netlists.

#include <gtest/gtest.h>

#include "gen/designs.hpp"
#include "netlist/design.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/writer.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "tech/liberty.hpp"
#include "tech/library_factory.hpp"

namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mt = m3d::tech;

// ----------------------------------------------------------------- liberty

TEST(Liberty, WriteProducesWellFormedText) {
  const auto lib = mt::make_12track();
  const auto s = mt::liberty_string(*lib);
  EXPECT_NE(s.find("library (lib12t)"), std::string::npos);
  EXPECT_NE(s.find("cell (INV_X1_12T)"), std::string::npos);
  EXPECT_NE(s.find("cell_rise"), std::string::npos);
  EXPECT_NE(s.find("SRAM_1KX32"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
}

TEST(Liberty, RoundTripPreservesLibraryAttributes) {
  const auto orig = mt::make_9track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  EXPECT_EQ(lib.name(), orig->name());
  EXPECT_EQ(lib.tracks(), orig->tracks());
  EXPECT_DOUBLE_EQ(lib.vdd(), orig->vdd());
  EXPECT_DOUBLE_EQ(lib.vthp(), orig->vthp());
  EXPECT_DOUBLE_EQ(lib.row_height_um(), orig->row_height_um());
  EXPECT_DOUBLE_EQ(lib.wire().res_kohm_per_um,
                   orig->wire().res_kohm_per_um);
  EXPECT_DOUBLE_EQ(lib.miv().cap_ff, orig->miv().cap_ff);
  EXPECT_EQ(lib.cell_count(), orig->cell_count());
  EXPECT_EQ(lib.macro_count(), orig->macro_count());
}

TEST(Liberty, RoundTripPreservesCellElectricals) {
  const auto orig = mt::make_12track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  for (auto f : {mt::CellFunc::Inv, mt::CellFunc::Nand2, mt::CellFunc::Dff,
                 mt::CellFunc::Mux2}) {
    for (int d : {1, 4}) {
      const auto* a = orig->find(f, d);
      const auto* b = lib.find(f, d);
      ASSERT_NE(b, nullptr) << mt::func_name(f) << d;
      EXPECT_NEAR(b->width_um, a->width_um, 1e-9);
      EXPECT_NEAR(b->input_cap_ff, a->input_cap_ff, 1e-9);
      EXPECT_NEAR(b->leakage_uw, a->leakage_uw, 1e-9);
      EXPECT_NEAR(b->internal_energy_fj, a->internal_energy_fj, 1e-9);
      EXPECT_EQ(b->arcs.size(), a->arcs.size());
    }
  }
  const auto* dff_a = orig->find(mt::CellFunc::Dff, 2);
  const auto* dff_b = lib.find(mt::CellFunc::Dff, 2);
  EXPECT_NEAR(dff_b->setup_ns, dff_a->setup_ns, 1e-12);
  EXPECT_NEAR(dff_b->hold_ns, dff_a->hold_ns, 1e-12);
  EXPECT_NEAR(dff_b->clock_cap_ff, dff_a->clock_cap_ff, 1e-12);
}

TEST(Liberty, RoundTripPreservesNldmLookups) {
  const auto orig = mt::make_12track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  const auto* a = orig->find(mt::CellFunc::Xor2, 2);
  const auto* b = lib.find(mt::CellFunc::Xor2, 2);
  for (double slew : {0.004, 0.02, 0.11}) {
    for (double load : {0.8, 5.0, 60.0}) {
      for (int t : {0, 1}) {
        EXPECT_NEAR(b->arc(1).delay[t].lookup(slew, load),
                    a->arc(1).delay[t].lookup(slew, load), 1e-9);
        EXPECT_NEAR(b->arc(1).out_slew[t].lookup(slew, load),
                    a->arc(1).out_slew[t].lookup(slew, load), 1e-9);
      }
    }
  }
  EXPECT_EQ(b->arc(0).inverting, a->arc(0).inverting);
}

TEST(Liberty, RoundTripPreservesMacros) {
  const auto orig = mt::make_12track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  const int mi = lib.find_macro("SRAM_4KX32");
  ASSERT_GE(mi, 0);
  const auto& a = orig->macro(orig->find_macro("SRAM_4KX32"));
  const auto& b = lib.macro(mi);
  EXPECT_NEAR(b.width_um, a.width_um, 1e-9);
  EXPECT_NEAR(b.height_um, a.height_um, 1e-9);
  EXPECT_NEAR(b.access_ns, a.access_ns, 1e-12);
  EXPECT_NEAR(b.leakage_uw, a.leakage_uw, 1e-9);
}

TEST(Liberty, ParserRejectsGarbage) {
  EXPECT_THROW(mt::parse_liberty("not a liberty file"), m3d::util::Error);
  EXPECT_THROW(mt::parse_liberty("library (x) { cell (y) { "),
               m3d::util::Error);
}

TEST(Liberty, ParserIgnoresUnknownAttributes) {
  const std::string text =
      "library (mini) {\n"
      "  nom_voltage : 0.8;\n"
      "  some_vendor_thing : 42;\n"
      "  operating_conditions (fast) { process : 1; }\n"
      "}\n";
  const auto lib = mt::parse_liberty(text);
  EXPECT_EQ(lib.name(), "mini");
  EXPECT_DOUBLE_EQ(lib.vdd(), 0.8);
  EXPECT_EQ(lib.cell_count(), 0);
}

// ----------------------------------------------------------------- verilog

namespace {
mn::Netlist sample() {
  mg::GenOptions g;
  g.scale = 0.06;
  return mg::make_cpu(g);  // has macros, flops, clock net, ports
}
}  // namespace

TEST(Verilog, RoundTripPreservesStats) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  const auto a = orig.stats();
  const auto b = back.stats();
  EXPECT_EQ(b.cells, a.cells);
  EXPECT_EQ(b.comb_cells, a.comb_cells);
  EXPECT_EQ(b.seq_cells, a.seq_cells);
  EXPECT_EQ(b.macros, a.macros);
  EXPECT_EQ(b.ports, a.ports);
  EXPECT_EQ(b.nets, a.nets);
  EXPECT_EQ(b.pins, a.pins);
  EXPECT_NEAR(b.avg_fanout, a.avg_fanout, 1e-12);
}

TEST(Verilog, RoundTripPreservesConnectivity) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  ASSERT_EQ(back.net_count(), orig.net_count());
  // Nets are recreated in declaration order; compare fanouts and driver
  // cell functions by name.
  std::map<std::string, int> orig_fanout, back_fanout;
  for (mn::NetId n = 0; n < orig.net_count(); ++n)
    orig_fanout[std::string(orig.net(n).name)] = orig.fanout(n);
  for (mn::NetId n = 0; n < back.net_count(); ++n)
    back_fanout[std::string(back.net(n).name)] = back.fanout(n);
  EXPECT_EQ(back_fanout, orig_fanout);
}

TEST(Verilog, RoundTripPreservesClockMarking) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  int orig_clocks = 0, back_clocks = 0;
  for (mn::NetId n = 0; n < orig.net_count(); ++n)
    orig_clocks += orig.net(n).is_clock;
  for (mn::NetId n = 0; n < back.net_count(); ++n)
    back_clocks += back.net(n).is_clock;
  EXPECT_EQ(back_clocks, orig_clocks);
  EXPECT_GT(back_clocks, 0);
}

TEST(Verilog, RoundTripPreservesDrivesAndFunctions) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  std::map<std::string, std::pair<int, int>> orig_cells;  // func, drive
  for (mn::CellId c = 0; c < orig.cell_count(); ++c) {
    const auto& cc = orig.cell(c);
    if (cc.is_comb() || cc.is_sequential())
      orig_cells[std::string(cc.name)] = {static_cast<int>(cc.func), cc.drive};
  }
  int matched = 0;
  for (mn::CellId c = 0; c < back.cell_count(); ++c) {
    const auto& cc = back.cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    auto it = orig_cells.find(std::string(cc.name));
    ASSERT_NE(it, orig_cells.end()) << cc.name;
    EXPECT_EQ(static_cast<int>(cc.func), it->second.first);
    EXPECT_EQ(cc.drive, it->second.second);
    ++matched;
  }
  EXPECT_EQ(matched, static_cast<int>(orig_cells.size()));
}

// The generated mesh/NoC fabric must survive writer → reader unchanged:
// same structure by name, and — because the writer emits cells and nets
// in id order and the reader rebuilds in file order — the same ids, so a
// placement + routing pass over the reparsed netlist reproduces the
// original flow metrics bit for bit (the "flow digest").
TEST(Verilog, MeshRoundTripPreservesStructureAndFlowDigest) {
  mg::GenOptions g;
  g.scale = 0.05;
  const auto orig = mg::make_mesh(g);
  const auto back = mn::parse_verilog(mn::verilog_string(orig));

  const auto a = orig.stats();
  const auto b = back.stats();
  EXPECT_EQ(b.cells, a.cells);
  EXPECT_EQ(b.seq_cells, a.seq_cells);
  EXPECT_EQ(b.ports, a.ports);
  EXPECT_EQ(b.nets, a.nets);
  EXPECT_EQ(b.pins, a.pins);

  // Structural isomorphism by name: identical fanout per net.
  std::map<std::string, int> orig_fanout, back_fanout;
  for (mn::NetId n = 0; n < orig.net_count(); ++n)
    orig_fanout[std::string(orig.net(n).name)] = orig.fanout(n);
  for (mn::NetId n = 0; n < back.net_count(); ++n)
    back_fanout[std::string(back.net(n).name)] = back.fanout(n);
  EXPECT_EQ(back_fanout, orig_fanout);

  // Flow digest: identical placement and routed wirelength.
  auto flow_wl = [](const mn::Netlist& nl) {
    mn::Design d(nl, mt::make_12track(), mt::make_9track());
    m3d::place::place_design(d);
    return m3d::route::route_design(d).total_wirelength_um;
  };
  EXPECT_EQ(flow_wl(orig), flow_wl(back));
}

TEST(Verilog, ReaderRejectsMalformedInput) {
  EXPECT_THROW(mn::parse_verilog("nonsense"), m3d::util::Error);
  EXPECT_THROW(mn::parse_verilog("module m (input a);\n wire w;\n"),
               m3d::util::Error);  // missing endmodule
  EXPECT_THROW(
      mn::parse_verilog("module m ();\n INV_X1 u (.A0(nope));\nendmodule"),
      m3d::util::Error);  // undeclared net
}

TEST(Verilog, HandwrittenModuleParses) {
  const std::string text = R"(
    module adder (
      input a,
      input b,
      output s
    );
      wire na;  // plain
      wire nb;
      wire ns;
      assign na = a;
      assign nb = b;
      XOR2_X2 u0 (.A0(na), .A1(nb), .Z(ns));
      assign s = ns;
    endmodule
  )";
  const auto nl = mn::parse_verilog(text);
  EXPECT_EQ(nl.name(), "adder");
  EXPECT_EQ(nl.stats().cells, 1);
  EXPECT_EQ(nl.stats().ports, 3);
  const auto& gate = nl.cell(3);
  EXPECT_EQ(gate.func, m3d::tech::CellFunc::Xor2);
  EXPECT_EQ(gate.drive, 2);
}

// ------------------------------------------------------- numeric tokens

namespace {

/// `text` with the token that follows `anchors` (found one after another)
/// up to the next ',', ';' or '"' replaced by `value`.
std::string with_token(const std::string& text,
                       const std::vector<std::string>& anchors,
                       const std::string& value) {
  std::size_t pos = 0;
  for (const auto& a : anchors) {
    pos = text.find(a, pos);
    if (pos == std::string::npos) {
      ADD_FAILURE() << "no '" << a << "' in the text";
      return text;
    }
    pos += a.size();
  }
  const std::size_t end = text.find_first_of(",;\"", pos);
  return text.substr(0, pos) + value + text.substr(end);
}

/// Parsing must fail with a util::Error whose message names `token`; any
/// other exception escapes the test body and fails it.
template <typename Parse>
void expect_error_naming(Parse parse, const std::string& text,
                         const std::string& token) {
  try {
    parse(text);
    ADD_FAILURE() << "parsed despite '" << token << "'";
  } catch (const m3d::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(Interchange, MalformedNumericTokensAreTypedErrors) {
  const auto verilog = [](const std::string& instance) {
    return "module m (input a, output z);\n"
           "  wire n;\n  wire o;\n  assign n = a;\n  " +
           instance + "\n  assign z = o;\nendmodule\n";
  };
  const auto parse_v = [](const std::string& t) { mn::parse_verilog(t); };
  ASSERT_NO_THROW(parse_v(verilog("INV_X1 u (.A0(n), .Z(o));")));
  expect_error_naming(parse_v, verilog("INV_X1 u (.Ax(n), .Z(o));"), "Ax");
  expect_error_naming(parse_v, verilog("INV_X1 u (.A99999999999(n), .Z(o));"),
                      "A99999999999");
  expect_error_naming(parse_v, verilog("RAM u (.A0(n), .Zq(o));"), "Zq");
  expect_error_naming(parse_v, verilog("INV_X99999999999 u (.A0(n), .Z(o));"),
                      "INV_X99999999999");

  const std::string lib = mt::liberty_string(*mt::make_12track());
  const auto parse_l = [](const std::string& t) { mt::parse_liberty(t); };
  ASSERT_NO_THROW(parse_l(lib));
  expect_error_naming(parse_l, with_token(lib, {"capacitance : "}, "abc"),
                      "abc");
  expect_error_naming(parse_l, with_token(lib, {"values (", "\""}, "x"),
                      "'x'");
  expect_error_naming(parse_l, with_token(lib, {"values (", "\""}, "1e999"),
                      "1e999");
  expect_error_naming(parse_l, with_token(lib, {"related_pin : \"A"}, "x"),
                      "'x'");
  expect_error_naming(
      parse_l, with_token(lib, {"related_pin : \"A"}, "99999999999"),
      "A99999999999");
}

TEST(Liberty, RejectsMalformedDrive) {
  // The first cell's drive, rewritten. Only a whole number in
  // [1, INT_MAX] loads; anything else is a util::Error naming the cell
  // and the value, never an out-of-range cast or a misleading duplicate.
  const std::string lib = mt::liberty_string(*mt::make_12track());
  const std::size_t at = lib.find("m3d_drive : ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t name_at = lib.rfind("cell (", at) + 6;
  const std::string cell = lib.substr(name_at, lib.find(')', name_at) - name_at);
  const auto parse_l = [](const std::string& t) { mt::parse_liberty(t); };
  for (const std::string bad :
       {"1e30", "-4", "0", "2.5", "2147483648", "-2147483649"}) {
    SCOPED_TRACE(bad);
    const std::string text = with_token(lib, {"m3d_drive : "}, bad);
    expect_error_naming(parse_l, text, cell);
    expect_error_naming(parse_l, text, "'" + bad + "'");
  }
  // A larger drive the library lacks loads as written.
  const auto big = mt::parse_liberty(with_token(lib, {"m3d_drive : "}, "16"));
  const auto orig = mt::parse_liberty(lib);
  const mt::LibCell& first = orig.cell(0);
  ASSERT_EQ(first.name, cell);
  EXPECT_EQ(big.find(first.func, first.drive), nullptr);
  ASSERT_NE(big.find(first.func, 16), nullptr);
  EXPECT_EQ(big.find(first.func, 16)->name, cell);
}
