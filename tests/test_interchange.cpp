// Round-trip tests for the interchange formats: Liberty (.lib) library
// serialization and structural Verilog netlists.

#include <gtest/gtest.h>

#include <cctype>

#include "gen/designs.hpp"
#include "netlist/design.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/writer.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "tech/liberty.hpp"
#include "tech/library_factory.hpp"
#include "util/rng.hpp"

#include "mutate.hpp"

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

/// A hand-written module: blank lines, indentation, a plain comment.
const char* const kAdder = R"(
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
  const auto nl = mn::parse_verilog(kAdder);
  EXPECT_EQ(nl.name(), "adder");
  EXPECT_EQ(nl.stats().cells, 1);
  EXPECT_EQ(nl.stats().ports, 3);
  const auto& gate = nl.cell(3);
  EXPECT_EQ(gate.func, m3d::tech::CellFunc::Xor2);
  EXPECT_EQ(gate.drive, 2);
}

// ------------------------------------------- open pins, errors, fixed point

namespace {

/// A netlist validate() accepts that has unconnected pins: an inverter
/// whose output drives nothing, a flop whose Q is unused, and a macro
/// with an unused second output Z1.
mn::Netlist open_pins() {
  mn::Netlist nl("open_pins");
  const auto a = nl.add_input_port("a");
  const auto clk = nl.add_input_port("clk");
  const auto z = nl.add_output_port("z");
  const auto na = nl.add_net("na");
  const auto nclk = nl.add_net("nclk", /*is_clock=*/true);
  const auto nz = nl.add_net("nz");
  nl.connect(na, nl.output_pin(a));
  nl.connect(nclk, nl.output_pin(clk));
  nl.connect(nz, nl.input_pin(z, 0));
  const auto inv = nl.add_comb("u_inv", mt::CellFunc::Inv, 1);
  nl.connect(na, nl.input_pin(inv, 0));
  const auto ff = nl.add_dff("u_ff", 1);
  nl.connect(na, nl.input_pin(ff, 0));
  nl.connect(nclk, nl.clock_pin(ff));
  const auto ram = nl.add_macro("u_ram", "SRAM_1KX32", 2, 2);
  nl.connect(na, nl.input_pin(ram, 0));
  nl.connect(na, nl.input_pin(ram, 1));
  nl.connect(nclk, nl.clock_pin(ram));
  nl.connect(nz, nl.output_pin(ram, 0));
  nl.validate();
  return nl;
}

/// Every column the reader fills agrees between `a` and `b`: per cell its
/// kind, function, drive, names and pins; per net its name, clock flag,
/// driver and pin list in order; per pin its net.
void expect_same_columns(const mn::Netlist& a, const mn::Netlist& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.cell_count(), b.cell_count());
  ASSERT_EQ(a.net_count(), b.net_count());
  ASSERT_EQ(a.pin_count(), b.pin_count());
  for (mn::CellId c = 0; c < a.cell_count(); ++c) {
    const mn::Cell& x = a.cell(c);
    const mn::Cell& y = b.cell(c);
    ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind)) << c;
    ASSERT_EQ(static_cast<int>(x.func), static_cast<int>(y.func)) << c;
    ASSERT_EQ(x.drive, y.drive) << "cell " << c;
    ASSERT_EQ(x.name, y.name) << "cell " << c;
    ASSERT_EQ(x.macro_name, y.macro_name) << "cell " << c;
    ASSERT_TRUE(x.pins == y.pins) << "cell " << c;
  }
  for (mn::NetId n = 0; n < a.net_count(); ++n) {
    const mn::Net& x = a.net(n);
    const mn::Net& y = b.net(n);
    ASSERT_EQ(x.name, y.name) << "net " << n;
    ASSERT_EQ(x.is_clock, y.is_clock) << "net " << n;
    ASSERT_EQ(x.driver, y.driver) << "net " << n;
    ASSERT_TRUE(x.pins == y.pins) << "net " << n << " pin list";
  }
  for (mn::PinId p = 0; p < a.pin_count(); ++p)
    ASSERT_EQ(a.pin(p).net, b.pin(p).net) << "pin " << p;
}

/// Parsing `text` throws a util::Error whose message contains `fragment`
/// and names `line` ("line N", N not followed by another digit).
void expect_error_at(const std::string& text, const std::string& fragment,
                     int line) {
  try {
    mn::parse_verilog(text);
    ADD_FAILURE() << "parsed despite '" << fragment << "'";
  } catch (const m3d::util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(fragment), std::string::npos) << msg;
    const std::string at = "line " + std::to_string(line);
    const std::size_t pos = msg.find(at);
    const std::size_t end = pos + at.size();
    EXPECT_TRUE(pos != std::string::npos &&
                (end == msg.size() ||
                 !std::isdigit(static_cast<unsigned char>(msg[end]))))
        << msg;
  }
}

}  // namespace

TEST(Verilog, ReaderRejectsDuplicateNames) {
  // A wire declared twice and two instances of one name. Without the
  // checks this parses into two nets named n (the first left empty) and
  // two cells named u, and validate() passes.
  const std::string dup =
      "module dup (input a, output z);\n"  // 1
      "  wire n;\n"                        // 2
      "  wire n;\n"                        // 3
      "  wire y;\n"                        // 4
      "  assign n = a;\n"                  // 5
      "  assign z = y;\n"                  // 6
      "  INV_X1 u (.A0(n), .Z(y));\n"      // 7
      "  INV_X1 u (.A0(n), .Z());\n"       // 8
      "endmodule\n";
  expect_error_at(dup, "duplicate wire 'n'", 3);
  std::string one_wire = dup;
  one_wire.erase(one_wire.find("  wire n;\n"), 10);
  expect_error_at(one_wire, "duplicate cell name 'u'", 7);

  // A port given twice, and an instance named like a port (ports are
  // cells too).
  std::string dup_port = one_wire;
  dup_port.replace(dup_port.find("input a,"), 8, "input a, input a,");
  expect_error_at(dup_port, "duplicate port 'a'", 1);
  std::string port_named = one_wire;
  port_named.replace(port_named.find("INV_X1 u (.A0(n), .Z());"), 24,
                     "INV_X1 a (.A0(n), .Z());");
  expect_error_at(port_named, "duplicate cell name 'a'", 7);

  // Nets and cells are separate name spaces: a wire may share an
  // instance's name, as long as each name is declared once in its own.
  std::string net_named = one_wire;
  net_named.replace(net_named.find("INV_X1 u (.A0(n), .Z());"), 24,
                    "INV_X1 v (.A0(n), .Z());");
  net_named.replace(net_named.find("wire y;"), 7, "wire u;");
  net_named.replace(net_named.find("assign z = y;"), 13, "assign z = u;");
  net_named.replace(net_named.find(".Z(y)"), 5, ".Z(u)");
  const auto nl = mn::parse_verilog(net_named);
  EXPECT_EQ(nl.net_count(), 2);
  EXPECT_EQ(nl.cell_count(), 4);
}

TEST(Verilog, OpenPinsRoundTrip) {
  const auto orig = open_pins();
  const std::string text = mn::verilog_string(orig);
  EXPECT_NE(text.find("u_inv (.A0(na), .Z(/*open*/));"), std::string::npos)
      << text;
  EXPECT_NE(text.find("u_ff (.A0(na), .CK(nclk), .Z(/*open*/));"),
            std::string::npos);
  EXPECT_NE(text.find(".Z(nz), .Z1(/*open*/));"), std::string::npos);

  const auto back = mn::parse_verilog(text);
  EXPECT_EQ(mn::verilog_string(back), text);
  expect_same_columns(orig, back);
  EXPECT_EQ(back.output_pins_of(5).size(), 2u);  // u_ram keeps its Z1

  // An open input still fails validate(), which names the cell.
  std::string open_input = text;
  const std::string conn = "u_inv (.A0(na)";
  open_input.replace(open_input.find(conn), conn.size(), "u_inv (.A0()");
  try {
    mn::parse_verilog(open_input);
    ADD_FAILURE() << "an open input parsed";
  } catch (const m3d::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unconnected input pin on cell u_inv"),
              std::string::npos)
        << e.what();
  }
}

TEST(Verilog, ErrorsNameTheirLine) {
  // Lines 1-6 declare and bind the nets, line 7 is the statement under
  // test, and a valid statement follows it.
  const auto module = [](const std::string& stmt) {
    return "module m (input a, input clk, output z);\n"
           "  wire n;\n"
           "  wire o;\n"
           "  wire c;  // clock\n"
           "  assign n = a;\n"
           "  assign c = clk;\n"
           "  " +
           stmt +
           "\n"
           "  assign z = o;\n"
           "endmodule\n";
  };
  struct Case {
    const char* stmt;
    const char* error;
  };
  const Case cases[] = {
      {"INV_X1 u (.A0(nope), .Z(o));", "undeclared net 'nope'"},
      {"INV_X1 u (.A0(n), .Q0(o));", "unknown pin 'Q0' on u"},
      {"INV_X1 u (.Ax(n), .Z(o));", "pin: malformed value 'Ax'"},
      {"INV_X99999999999 u (.A0(n), .Z(o));",
       "cell type: malformed value 'INV_X99999999999'"},
      {"RAM u (.A0(n));", "macro 'u' needs A and Z pins"},
      {"INV_X1 u (.A0(n), .A0(n), .Z(o));", "pin already connected (cell u)"},
      {"INV_X1 u (.A0(o), .Z(n));", "net n already has a driver"},
      {"INV_X1 u (.A5(n), .Z(o));", "cell u has no input pin 5"},
      {"INV_X1 \\ u (.A0(n), .Z(o));", "empty escaped identifier"},
      {"INV_X1 u (.A0(n), .CK(c), .Z(o));", "cell u has no clock pin"},
      {"assign n = o;", "assign without a port"},
      // A statement over three lines names the line it starts on.
      {"INV_X1 u (\n    .A0(nope),\n    .Z(o));", "undeclared net 'nope'"},
      // Syntax errors name the offending token's line.
      {"INV_X1 u (.A0(n), .Z(o);", "expected '.' at line 7, got ';'"},
      {"/* open", "unterminated comment"},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.stmt);
    expect_error_at(module(k.stmt), k.error, 7);
  }
  expect_error_at("module m ();\n  wire w;\n", "missing endmodule", 3);
  expect_error_at("module m (\n  inout a\n);\nendmodule\n",
                  "bad port direction 'inout'", 2);
}

// Writer → reader → writer is the identity on the text, and two parses of
// that text agree in every column, so the ids and each net's pin order
// (which mesh_structural's op digest depends on) are the reader's own
// and stable. (The generators' net pin order differs from the reader's,
// so the second netlist is compared with a parse, not with the generator.)
TEST(Verilog, ReparseIsAFixedPoint) {
  for (const char* design : {"aes", "ldpc", "netcard", "cpu", "mesh"}) {
    SCOPED_TRACE(design);
    mg::GenOptions g;
    g.scale = 0.05;
    const std::string t = mn::verilog_string(mg::make_design(design, g));
    const auto a = mn::parse_verilog(t);
    EXPECT_EQ(mn::verilog_string(a), t);
    const auto b = mn::parse_verilog(mn::verilog_string(a));
    expect_same_columns(a, b);
  }
  SCOPED_TRACE("open pins");
  const std::string t = mn::verilog_string(open_pins());
  const auto a = mn::parse_verilog(t);
  EXPECT_EQ(mn::verilog_string(a), t);
  expect_same_columns(a, mn::parse_verilog(mn::verilog_string(a)));
}

// ----------------------------------------------------------------- fuzzing

namespace {

/// Parses `mutants` mutants of the `corpus` texts, in turn. Each must
/// parse or throw util::Error: any other exception fails the test, and a
/// crash or sanitizer report ends it. Both outcomes must occur.
template <typename Parse>
void fuzz(const std::vector<std::string>& corpus, int mutants,
          std::uint64_t seed, Parse parse) {
  for (const std::string& text : corpus) ASSERT_NO_THROW(parse(text));
  m3d::util::Rng rng(seed);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string text = m3d::test::mutate(corpus[i % corpus.size()], rng);
    try {
      parse(text);
      ++parsed;
    } catch (const m3d::util::Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << e.what();
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " threw a non-std exception";
    }
  }
  EXPECT_EQ(parsed + rejected, mutants);
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

/// Small writer texts and the hand-written adder, through the Verilog
/// reader.
void fuzz_verilog(int mutants, std::uint64_t seed) {
  mg::GenOptions g;
  g.scale = 0.02;  // the generators' smallest mesh and cpu
  fuzz({mn::verilog_string(mg::make_mesh(g)),
        mn::verilog_string(mg::make_cpu(g)), kAdder},
       mutants, seed, [](const std::string& t) { mn::parse_verilog(t); });
}

/// The header and a few cell groups (an inverter, a NAND2, a flop and the
/// smallest macro) of a factory library's Liberty text: about 21 KB of
/// its 636 KB, so a mutant parses in a fraction of a millisecond.
std::string few_cells(const mt::TechLib& lib) {
  const std::string text = mt::liberty_string(lib);
  std::string out = text.substr(0, text.find("  cell ("));
  for (const char* cell : {"INV_X1_", "NAND2_X1_", "DFF_X1_", "SRAM_64X32"}) {
    const std::size_t at = text.find(std::string("  cell (") + cell);
    out += text.substr(at, text.find("\n  }\n", at) + 5 - at);
  }
  return out + "}\n";
}

/// The 12- and 9-track cuts, through the Liberty reader.
void fuzz_liberty(int mutants, std::uint64_t seed) {
  fuzz({few_cells(*mt::make_12track()), few_cells(*mt::make_9track())},
       mutants, seed, [](const std::string& t) { mt::parse_liberty(t); });
}

}  // namespace

TEST(VerilogFuzz, MutantsParseOrThrowTypedErrors) { fuzz_verilog(2000, 24); }

// Ten times deeper; the ASan+UBSan CI job runs it through
// --gtest_also_run_disabled_tests.
TEST(VerilogFuzz, DISABLED_DeepMutantsParseOrThrowTypedErrors) {
  fuzz_verilog(20000, 2024);
}

TEST(LibertyFuzz, MutantsParseOrThrowTypedErrors) { fuzz_liberty(2000, 26); }

// Ten times deeper; the ASan+UBSan CI job runs it through
// --gtest_also_run_disabled_tests.
TEST(LibertyFuzz, DISABLED_DeepMutantsParseOrThrowTypedErrors) {
  fuzz_liberty(20000, 2026);
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
