// Unit tests for the netlist module: construction, connectivity, pin
// helpers, validation, stats, Design tier/area semantics, writers.

#include <gtest/gtest.h>

#include <sstream>

#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/writer.hpp"
#include "tech/library_factory.hpp"

namespace mn = m3d::netlist;
namespace mt = m3d::tech;

namespace {
/// in -> INV -> DFF -> out plus clock.
mn::Netlist tiny_netlist() {
  mn::Netlist nl("tiny");
  const auto in = nl.add_input_port("in");
  const auto out = nl.add_output_port("out");
  const auto clk_port = nl.add_input_port("clk");
  const auto inv = nl.add_comb("u_inv", mt::CellFunc::Inv, 1);
  const auto ff = nl.add_dff("u_ff", 1);

  const auto n_in = nl.add_net("n_in");
  nl.connect(n_in, nl.output_pin(in));
  nl.connect(n_in, nl.input_pin(inv, 0));

  const auto n_d = nl.add_net("n_d");
  nl.connect(n_d, nl.output_pin(inv));
  nl.connect(n_d, nl.input_pin(ff, 0));

  const auto n_q = nl.add_net("n_q");
  nl.connect(n_q, nl.output_pin(ff));
  nl.connect(n_q, nl.input_pin(out, 0));

  const auto n_clk = nl.add_net("clk", /*is_clock=*/true);
  nl.connect(n_clk, nl.output_pin(clk_port));
  nl.connect(n_clk, nl.clock_pin(ff));
  return nl;
}
}  // namespace

TEST(Netlist, BuildAndCounts) {
  const auto nl = tiny_netlist();
  const auto s = nl.stats();
  EXPECT_EQ(s.cells, 2);
  EXPECT_EQ(s.comb_cells, 1);
  EXPECT_EQ(s.seq_cells, 1);
  EXPECT_EQ(s.ports, 3);
  EXPECT_EQ(s.nets, 4);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, PinHelpers) {
  mn::Netlist nl;
  const auto c = nl.add_comb("g", mt::CellFunc::Nand2, 2);
  EXPECT_EQ(nl.input_pins_of(c).size(), 2u);
  EXPECT_EQ(nl.output_pins_of(c).size(), 1u);
  EXPECT_EQ(nl.clock_pin(c), mn::kInvalidId);
  const auto ff = nl.add_dff("f", 1);
  EXPECT_NE(nl.clock_pin(ff), mn::kInvalidId);
  EXPECT_TRUE(nl.pin(nl.clock_pin(ff)).is_clock);
}

TEST(Netlist, MacroPins) {
  mn::Netlist nl;
  const auto m = nl.add_macro("mem0", "SRAM_1KX32", 44, 32);
  EXPECT_EQ(nl.input_pins_of(m).size(), 44u);
  EXPECT_EQ(nl.output_pins_of(m).size(), 32u);
  EXPECT_NE(nl.clock_pin(m), mn::kInvalidId);
  EXPECT_TRUE(nl.cell(m).fixed);
}

TEST(Netlist, FanoutAndSinks) {
  mn::Netlist nl;
  const auto a = nl.add_comb("a", mt::CellFunc::Inv, 1);
  const auto b = nl.add_comb("b", mt::CellFunc::Inv, 1);
  const auto c = nl.add_comb("c", mt::CellFunc::Inv, 1);
  const auto n = nl.add_net("n");
  nl.connect(n, nl.output_pin(a));
  nl.connect(n, nl.input_pin(b, 0));
  nl.connect(n, nl.input_pin(c, 0));
  EXPECT_EQ(nl.fanout(n), 2);
  std::vector<mn::PinId> sinks;
  nl.sinks_into(n, sinks);
  EXPECT_EQ(sinks, (std::vector<mn::PinId>{nl.input_pin(b, 0),
                                           nl.input_pin(c, 0)}));
  EXPECT_EQ(nl.net(n).driver, nl.output_pin(a));
}

TEST(Netlist, RejectsDoubleDriver) {
  mn::Netlist nl;
  const auto a = nl.add_comb("a", mt::CellFunc::Inv, 1);
  const auto b = nl.add_comb("b", mt::CellFunc::Inv, 1);
  const auto n = nl.add_net("n");
  nl.connect(n, nl.output_pin(a));
  EXPECT_THROW(nl.connect(n, nl.output_pin(b)), m3d::util::Error);
}

TEST(Netlist, RejectsDoubleConnectOfPin) {
  mn::Netlist nl;
  const auto a = nl.add_comb("a", mt::CellFunc::Inv, 1);
  const auto n1 = nl.add_net("n1");
  const auto n2 = nl.add_net("n2");
  nl.connect(n1, nl.output_pin(a));
  EXPECT_THROW(nl.connect(n2, nl.output_pin(a)), m3d::util::Error);
}

TEST(Netlist, DisconnectAllowsRewiring) {
  mn::Netlist nl;
  const auto a = nl.add_comb("a", mt::CellFunc::Inv, 1);
  const auto b = nl.add_comb("b", mt::CellFunc::Inv, 1);
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.output_pin(a));
  nl.connect(n1, nl.input_pin(b, 0));
  nl.disconnect(nl.input_pin(b, 0));
  EXPECT_EQ(nl.fanout(n1), 0);
  const auto n2 = nl.add_net("n2");
  nl.connect(n2, nl.input_pin(b, 0));
  EXPECT_EQ(nl.pin(nl.input_pin(b, 0)).net, n2);
  // Disconnecting the driver clears the net's driver.
  nl.disconnect(nl.output_pin(a));
  EXPECT_EQ(nl.net(n1).driver, mn::kInvalidId);
}

TEST(Netlist, ValidateCatchesUnconnectedInput) {
  mn::Netlist nl;
  const auto a = nl.add_comb("a", mt::CellFunc::Inv, 1);
  const auto n = nl.add_net("n");
  nl.connect(n, nl.output_pin(a));
  EXPECT_THROW(nl.validate(), m3d::util::Error);  // input pin dangling
}

TEST(Netlist, ValidateCatchesDriverlessNetWithSinks) {
  mn::Netlist nl;
  const auto a = nl.add_comb("a", mt::CellFunc::Buf, 1);
  const auto n = nl.add_net("n");
  nl.connect(n, nl.input_pin(a, 0));
  EXPECT_THROW(nl.validate(), m3d::util::Error);
}

TEST(Netlist, Blocks) {
  mn::Netlist nl;
  const auto b1 = nl.add_block("alu");
  const auto b2 = nl.add_block("fpu");
  const auto b1_again = nl.add_block("alu");
  EXPECT_EQ(b1, b1_again);
  EXPECT_NE(b1, b2);
  EXPECT_EQ(nl.block_name(b1), "alu");
  const auto c = nl.add_comb("x", mt::CellFunc::Inv, 1, b2);
  EXPECT_EQ(nl.cell(c).block, b2);
}

TEST(Design, TwoDHasOneTier) {
  mn::Design d(tiny_netlist(), mt::make_12track());
  EXPECT_EQ(d.num_tiers(), 1);
  EXPECT_FALSE(d.is_3d());
  EXPECT_THROW(d.set_tier(0, mn::kTopTier), m3d::util::Error);
}

TEST(Design, HeteroTierRemapChangesAreaAndLib) {
  mn::Design d(tiny_netlist(), mt::make_12track(), mt::make_9track());
  EXPECT_TRUE(d.is_3d());
  // find the INV cell
  mn::CellId inv = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).name == "u_inv") inv = c;
  ASSERT_NE(inv, mn::kInvalidId);

  const double area_bottom = d.cell_area(inv);
  EXPECT_EQ(d.lib_of(inv).tracks(), 12);
  d.set_tier(inv, mn::kTopTier);
  EXPECT_EQ(d.lib_of(inv).tracks(), 9);
  const double area_top = d.cell_area(inv);
  // 9-track tier: 25 % smaller cell area — this is the heterogeneity lever.
  EXPECT_NEAR(area_top / area_bottom, 0.75, 1e-9);
}

TEST(Design, AreasAndDensity) {
  mn::Design d(tiny_netlist(), mt::make_12track());
  EXPECT_GT(d.total_std_cell_area(), 0.0);
  EXPECT_DOUBLE_EQ(d.total_macro_area(), 0.0);
  d.set_floorplan({0, 0, 10, 10});
  EXPECT_DOUBLE_EQ(d.silicon_area(), 100.0);
  EXPECT_NEAR(d.density(), d.total_std_cell_area() / 100.0, 1e-12);
}

TEST(Design, TierAreaSplits) {
  mn::Design d(tiny_netlist(), mt::make_12track(), mt::make_9track());
  const double total = d.total_std_cell_area();
  EXPECT_NEAR(d.tier_std_cell_area(mn::kBottomTier), total, 1e-12);
  // Move everything to top: total shrinks by 25 % (all 9T now).
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (!d.nl().cell(c).is_port()) d.set_tier(c, mn::kTopTier);
  EXPECT_NEAR(d.total_std_cell_area() / total, 0.75, 1e-9);
}

TEST(Design, PinCapResolvesThroughTier) {
  mn::Design d(tiny_netlist(), mt::make_12track(), mt::make_9track());
  mn::CellId inv = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).name == "u_inv") inv = c;
  const auto pin = d.nl().input_pin(inv, 0);
  const double cap12 = d.pin_cap_ff(pin);
  d.set_tier(inv, mn::kTopTier);
  const double cap9 = d.pin_cap_ff(pin);
  EXPECT_LT(cap9, cap12);  // 9-track inputs are lighter
}

TEST(Design, SyncGrowsStateForNewCells) {
  mn::Design d(tiny_netlist(), mt::make_12track(), mt::make_9track());
  const int before = d.nl().cell_count();
  const auto buf = d.nl().add_comb("u_buf", mt::CellFunc::Buf, 2);
  d.sync(mn::kTopTier);
  EXPECT_EQ(d.nl().cell_count(), before + 1);
  EXPECT_EQ(d.tier(buf), mn::kTopTier);
  EXPECT_EQ(d.pos(buf), (m3d::util::Point{0, 0}));
}

TEST(Writer, VerilogContainsCellsAndNets) {
  const auto nl = tiny_netlist();
  const std::string v = mn::verilog_string(nl);
  EXPECT_NE(v.find("module tiny"), std::string::npos);
  EXPECT_NE(v.find("INV_X1 u_inv"), std::string::npos);
  EXPECT_NE(v.find("DFF_X1 u_ff"), std::string::npos);
  EXPECT_NE(v.find("wire n_d;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Writer, PlacementDumpHasTierAndCoords) {
  mn::Design d(tiny_netlist(), mt::make_12track(), mt::make_9track());
  d.set_floorplan({0, 0, 50, 50});
  d.set_pos(3, {1.5, 2.5});
  const std::string s = mn::placement_string(d);
  EXPECT_NE(s.find("TIERS 2"), std::string::npos);
  EXPECT_NE(s.find("DIEAREA ( 0 0 ) ( 50 50 )"), std::string::npos);
  EXPECT_NE(s.find("1.500 2.500"), std::string::npos);
}

// ---- non-allocating traversal accessors ----------------------------------

TEST(Netlist, SinksIntoAndForEachSinkMatchSinks) {
  // The sinks of a net are its pins but the driver, in pin-list order.
  const auto nl = tiny_netlist();
  std::vector<mn::PinId> buf;
  for (mn::NetId n = 0; n < nl.net_count(); ++n) {
    const auto net = nl.net(n);
    std::vector<mn::PinId> expected;
    for (mn::PinId p : net.pins)
      if (p != net.driver) expected.push_back(p);
    nl.sinks_into(n, buf);
    EXPECT_EQ(buf, expected) << "net " << n;
    std::vector<mn::PinId> visited;
    nl.for_each_sink(n, [&](mn::PinId p) { visited.push_back(p); });
    EXPECT_EQ(visited, expected) << "net " << n;
  }
}

TEST(Netlist, PinSpansMatchCellPinLists) {
  // input_pins_of is a cell's non-clock input pins and output_pins_of its
  // output pins, each in the cell's pin order.
  const auto nl = tiny_netlist();
  for (mn::CellId c = 0; c < nl.cell_count(); ++c) {
    std::vector<mn::PinId> in_vec, out_vec;
    for (mn::PinId p : nl.cell(c).pins) {
      const auto& pin = nl.pin(p);
      if (pin.dir == mn::PinDir::Output)
        out_vec.push_back(p);
      else if (!pin.is_clock)
        in_vec.push_back(p);
    }
    const auto in_span = nl.input_pins_of(c);
    ASSERT_EQ(in_span.size(), in_vec.size()) << "cell " << c;
    for (std::size_t i = 0; i < in_vec.size(); ++i)
      EXPECT_EQ(in_span[i], in_vec[i]) << "cell " << c << " pin " << i;
    const auto out_span = nl.output_pins_of(c);
    ASSERT_EQ(out_span.size(), out_vec.size()) << "cell " << c;
    for (std::size_t i = 0; i < out_vec.size(); ++i)
      EXPECT_EQ(out_span[i], out_vec[i]) << "cell " << c << " pin " << i;
  }
}

TEST(Netlist, PinIndexRebuildsAfterGrowth) {
  auto nl = tiny_netlist();
  // Force the CSR cache to build, then grow the netlist: spans must
  // reflect the new pins, not the stale index.
  (void)nl.input_pins_of(0);
  const auto buf = nl.add_comb("late_buf", mt::CellFunc::Buf, 1);
  const auto n = nl.add_net("late_net");
  nl.connect(n, nl.input_pin(buf, 0));
  const auto span = nl.input_pins_of(buf);
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(span[0], nl.input_pin(buf, 0));
}
