// Custom netlist: build your own design gate by gate with the Netlist /
// LogicFabric API, push it through placement, routing estimation, clock
// tree synthesis and STA by hand (no flow wrapper), and inspect the
// critical path stage by stage.
//
// The design: a 4-tap FIR-filter-like pipeline — shift registers, partial
// products (AND layers), and a carry-save-ish adder tree of XOR/AOI cells.

#include <cstdio>

#include "cts/cts.hpp"
#include "gen/fabric.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"
#include "tech/library_factory.hpp"
#include "util/log.hpp"
#include "util/main.hpp"

namespace {

int run(int, char**) {
  using namespace m3d;
  using tech::CellFunc;
  util::set_log_level(util::LogLevel::Info);

  // ---- build the FIR pipeline --------------------------------------------
  gen::LogicFabric f("fir4", /*seed=*/2026);
  const int kWidth = 16;  // sample width
  const auto b_sr = f.nl().add_block("shift_reg");
  const auto b_pp = f.nl().add_block("partial_products");
  const auto b_tree = f.nl().add_block("adder_tree");

  // Input samples and coefficients.
  std::vector<netlist::NetId> x, coef;
  for (int i = 0; i < kWidth; ++i) {
    x.push_back(f.input("x" + std::to_string(i)));
    coef.push_back(f.dff(f.input("c" + std::to_string(i)), b_sr));
  }

  // 4-deep shift register of the sample bus.
  std::vector<std::vector<netlist::NetId>> taps;
  auto stage = f.dff_bank(x, b_sr);
  for (int t = 0; t < 4; ++t) {
    taps.push_back(stage);
    stage = f.dff_bank(stage, b_sr);
  }

  // Partial products: AND each tap with a coefficient bit.
  std::vector<netlist::NetId> pp;
  for (int t = 0; t < 4; ++t)
    for (int i = 0; i < kWidth; ++i)
      pp.push_back(f.gate(CellFunc::And2,
                          {taps[static_cast<std::size_t>(t)]
                               [static_cast<std::size_t>(i)],
                           coef[static_cast<std::size_t>((i + t) % kWidth)]},
                          b_pp));

  // Adder tree: alternating XOR (sum) and AOI (carry-ish) reduction.
  std::vector<netlist::NetId> layer = pp;
  int level = 0;
  while (layer.size() > static_cast<std::size_t>(kWidth)) {
    std::vector<netlist::NetId> next;
    for (std::size_t i = 0; i + 2 < layer.size(); i += 3) {
      next.push_back(
          f.gate(CellFunc::Xor2,
                 {f.gate(CellFunc::Xor2, {layer[i], layer[i + 1]}, b_tree),
                  layer[i + 2]},
                 b_tree));
      next.push_back(f.gate(CellFunc::Aoi21,
                            {layer[i], layer[i + 1], layer[i + 2]}, b_tree));
    }
    for (std::size_t i = layer.size() - layer.size() % 3; i < layer.size();
         ++i)
      next.push_back(layer[i]);
    layer = std::move(next);
    ++level;
  }
  const auto out = f.dff_bank(layer, b_tree);
  for (std::size_t i = 0; i < out.size(); ++i)
    f.output("y" + std::to_string(i), out[i]);
  f.randomize_activities();

  auto nl = std::move(f).take();
  gen::terminate_dangling(nl);
  nl.validate();
  std::printf("fir4: %d cells, %d nets, adder tree depth %d\n",
              nl.stats().cells, nl.stats().nets, level);

  // ---- manual physical design --------------------------------------------
  netlist::Design d(std::move(nl), tech::make_12track());
  d.set_clock_period_ns(0.6);

  place::PlaceOptions popt;
  popt.utilization = 0.7;
  place::place_design(d, popt);

  cts::build_clock_tree(d);
  place::legalize(d);
  cts::annotate_clock_latencies(d);

  const auto routes = route::route_design(d);
  const auto timing = sta::run_sta(d, &routes);
  std::printf("WNS %.3f ns, TNS %.2f ns over %d endpoints\n", timing.wns(),
              timing.tns(), timing.endpoint_count());

  // ---- walk the critical path --------------------------------------------
  const auto cp = timing.critical_path();
  std::printf("\ncritical path (%d cells, %.3f ns, slack %+.3f ns):\n",
              cp.total_cells(), cp.path_delay_ns, cp.slack_ns);
  for (const auto& st : cp.stages) {
    const auto& cc = d.nl().cell(st.cell);
    std::printf("  %-16s %-7s cell %6.1f ps  wire %5.1f ps  (%4.1f um)\n",
                std::string(cc.name).c_str(),
                cc.is_macro() ? "MACRO" : tech::func_name(cc.func),
                st.cell_delay_ns * 1000.0, st.wire_delay_ns * 1000.0,
                st.wire_length_um);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
