// Reproduces paper Table I (and the Fig. 1 configuration taxonomy): the
// qualitative PPAC ranking of the five technology/design variations at
// their own maximum achievable frequencies. 1 = worst, 5 = best.
//
// Paper's expected ranking (Table I):
//   Frequency : 9T-2D < 9T-3D < 12T-2D < hetero < 12T-3D
//   Power     : 12T-2D worst … 9T-3D best, hetero in the middle
//   Power/Freq: hetero best
//   Footprint : 9T-3D best (smallest), 12T-2D worst
//   Si Area   : 9-track configs best, 12-track worst, hetero between
//   Die Cost  : 9-track cheapest, 12T-3D most expensive, hetero between

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "util/main.hpp"
#include "util/table.hpp"

using namespace m3d;
using util::TextTable;

namespace {

/// Rank values 1..n (1 = worst). `higher_is_better` decides orientation.
std::vector<int> rank(const std::vector<double>& v, bool higher_is_better) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return higher_is_better ? v[a] < v[b] : v[a] > v[b];
  });
  std::vector<int> out(v.size());
  for (std::size_t r = 0; r < idx.size(); ++r)
    out[idx[r]] = static_cast<int>(r) + 1;
  return out;
}

int run(int, char**) {
  bench::quiet_logs();
  std::printf(
      "Fig. 1 — the five configurations:\n"
      "  (a) 12-track 2D   (b) 9-track 2D   (c) 9-track 3D\n"
      "  (d) 12-track 3D   (e) 9+12-track heterogeneous 3D\n\n");

  const auto nl = bench::build("cpu");
  const std::vector<core::Config> configs = {
      core::Config::TwoD9T, core::Config::ThreeD9T, core::Config::TwoD12T,
      core::Config::ThreeD12T, core::Config::Hetero3D};

  // Each configuration at its own maximum achievable frequency.
  std::vector<core::DesignMetrics> ms;
  for (auto cfg : configs) {
    const double f = core::find_max_frequency(nl, cfg,
                                              bench::flow_options(1.0), 0.3,
                                              4.0, /*iters=*/4);
    auto res = bench::run_config(nl, cfg, 1.0 / f);
    std::printf("[%s] max freq %.3f GHz\n", core::config_name(cfg), f);
    std::fflush(stdout);
    ms.push_back(res.metrics);
  }

  std::vector<double> freq, power, pf, footprint, si, cost;
  for (const auto& m : ms) {
    freq.push_back(m.frequency_ghz);
    power.push_back(m.total_power_mw);
    pf.push_back(m.frequency_ghz / m.total_power_mw);  // perf per power
    footprint.push_back(m.footprint_mm2);
    si.push_back(m.silicon_area_mm2);
    cost.push_back(m.die_cost_e6);
  }

  TextTable t(
      "Table I — qualitative PPAC ranking at each configuration's maximum "
      "frequency (1 = worst, 5 = best; measured value in parentheses)");
  std::vector<std::string> head{"Metric"};
  for (const auto& m : ms) head.push_back(m.config_name);
  t.header(head);
  auto row = [&](const char* name, const std::vector<double>& vals,
                 bool higher_better, int prec) {
    const auto ranks = rank(vals, higher_better);
    std::vector<std::string> cells{name};
    for (std::size_t i = 0; i < vals.size(); ++i)
      cells.push_back(std::to_string(ranks[i]) + " (" +
                      TextTable::num(vals[i], prec) + ")");
    t.row(cells);
  };
  row("Frequency (GHz)", freq, true, 2);
  row("Power (mW)", power, false, 1);
  row("Freq/Power (GHz/mW)", pf, true, 3);
  row("Footprint (mm2)", footprint, false, 4);
  row("Si Area (mm2)", si, false, 4);
  row("Die Cost (1e-6 C')", cost, false, 2);
  t.print();

  std::printf(
      "paper expectation (Table I ranks, config order %s):\n"
      "  Frequency 1/2/3/5(+hetero 4), Power 4/5/1/2(+3), Power-Freq "
      "3/4/1/2(+5),\n"
      "  Footprint 4/5/1/2(+3), Si Area 5/5/1/1(+3), Die Cost 5/4/2/1(+3)\n",
      "9T-2D, 9T-3D, 12T-2D, 12T-3D, Hetero");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return m3d::util::run_main(argc, argv, run);
}
