#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/flow.hpp"
#include "cts/cts.hpp"
#include "exec/task_graph.hpp"
#include "gen/designs.hpp"
#include "netlist/checks.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/writer.hpp"
#include "part/fm.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "sta/sta.hpp"

namespace m3db {
namespace {

using m3d::core::Config;
using m3d::core::FlowOptions;
using m3d::core::TierSpec;
using m3d::exec::FlowCache;
using m3d::netlist::Design;
using m3d::netlist::Netlist;

/// FNV-1a over 64-bit words; doubles enter by their exact bits.
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
};

void mix_design(Hasher& h, const Design& d) {
  const int n = d.nl().cell_count();
  h.mix(n);
  h.mix(d.num_tiers());
  for (int c = 0; c < n; ++c) {
    h.mix(d.tier(c));
    h.mix(d.pos(c).x);
    h.mix(d.pos(c).y);
    h.mix(d.cell_area(c));
  }
}

/// Digest of a flow result (metrics + placement); flags non-finite metrics.
std::uint64_t flow_digest(const m3d::core::FlowResult& r, std::string& error) {
  const auto& m = r.metrics;
  const double fields[] = {m.frequency_ghz, m.wns_ns,         m.tns_ns,
                           m.footprint_mm2, m.wirelength_m,   m.total_power_mw,
                           m.die_cost_e6,   m.cost_per_cm2,   m.pdp_pj,
                           m.ppc,           m.wns_worst_corner_ns};
  Hasher h;
  for (double f : fields) {
    if (!std::isfinite(f) && error.empty()) error = "non-finite metrics";
    h.mix(f);
  }
  h.mix(static_cast<std::uint64_t>(m.mivs));
  mix_design(h, r.design);
  return h.h;
}

/// Run one op body, turning exceptions into the op's error.
template <typename F>
void guarded(Op& op, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    op.error = e.what();
  } catch (...) {
    op.error = "unknown exception";
  }
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Error findings of every design, checked in parallel (outputs only).
int total_drc_errors(m3d::exec::Pool& pool,
                     const std::vector<const Design*>& designs) {
  std::vector<int> errors(designs.size(), 0);
  pool.parallel_for(0, static_cast<int>(designs.size()), [&](int i) {
    errors[static_cast<std::size_t>(i)] = drc_errors(*designs[static_cast<std::size_t>(i)]);
  });
  int total = 0;
  for (int e : errors) total += e;
  return total;
}

// ---- paper_sweep ------------------------------------------------------------

/// Table VII: four netlists × five configurations at the iso-performance
/// period that a six-step 2D-12T frequency search finds, one task graph.
class PaperSweep : public Workload {
 public:
  PaperSweep(double scale, unsigned seed) : scale_(scale), seed_(seed) {}

  void setup() override {
    nls_.clear();
    for (const char* name : kNetlists) {
      m3d::gen::GenOptions g;
      g.scale = scale_;
      g.seed = seed_;
      nls_.push_back(m3d::gen::make_design(name, g));
    }
  }

  std::vector<Op> run(m3d::exec::Pool& pool, FlowCache& cache) override {
    const std::size_t n = nls_.size();
    periods_.assign(n, 0.0);
    results_.assign(n * kConfigCount, nullptr);
    std::vector<Op> ops(n + n * kConfigCount);
    const m3d::exec::Ctx ctx{&pool, &cache};
    m3d::exec::TaskGraph graph;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = kNetlists[i];
      ops[i].name = name + "/period";
      const auto search = graph.add("period:" + name, [&, i, name] {
        guarded(ops[i], [&] {
          const double ghz = m3d::core::find_max_frequency(
              nls_[i], Config::TwoD12T, options(name, 1.0), 0.4, 4.0,
              /*iters=*/6, /*wns_budget_frac=*/0.05, &ctx);
          if (!std::isfinite(ghz) || ghz <= 0.0)
            ops[i].error = "non-finite frequency";
          periods_[i] = 1.0 / ghz;
          Hasher h;
          h.mix(periods_[i]);
          ops[i].digest = h.h;
        });
      });
      for (std::size_t j = 0; j < kConfigCount; ++j) {
        const std::size_t k = i * kConfigCount + j;
        ops[n + k].name = name + "/" + m3d::core::config_name(kConfigs[j]);
        graph.add(
            "flow:" + ops[n + k].name,
            [&, i, j, k, name] {
              Op& op = ops[n + k];
              if (!ops[i].error.empty()) {
                op.error = "frequency search failed";
                return;
              }
              guarded(op, [&] {
                results_[k] = cache.get_or_run(nls_[i], kConfigs[j],
                                               options(name, periods_[i]));
                op.digest = flow_digest(*results_[k], op.error);
              });
            },
            {search});
      }
    }
    graph.run(pool);
    return ops;
  }

  std::vector<Metric> qor(m3d::exec::Pool& pool) override {
    std::vector<const Design*> designs;
    std::vector<double> ppc_all, vs3d, vs2d;
    double power = 0.0, wl = 0.0, wns = INFINITY;
    long long cut = 0;
    for (std::size_t i = 0; i < nls_.size(); ++i) {
      const FlowCache::ResultPtr* row = &results_[i * kConfigCount];
      for (std::size_t j = 0; j < kConfigCount; ++j) {
        if (!row[j]) continue;
        const auto& m = row[j]->metrics;
        designs.push_back(&row[j]->design);
        ppc_all.push_back(m.ppc);
        power += m.total_power_mw;
        wl += m.wirelength_m;
        if (m3d::core::config_is_3d(kConfigs[j]))
          cut += m3d::part::cut_size(row[j]->design);
        if (kConfigs[j] == Config::Hetero3D) wns = std::min(wns, m.wns_ns);
      }
      // Columns: 1 = 2D-12T, 3 = 3D-12T, 4 = Hetero-3D.
      if (row[4] && row[3]) vs3d.push_back(row[4]->metrics.ppc / row[3]->metrics.ppc);
      if (row[4] && row[1]) vs2d.push_back(row[4]->metrics.ppc / row[1]->metrics.ppc);
    }
    return {{"qor.drc_errors", double(total_drc_errors(pool, designs)), "count"},
            {"qor.ppc_vs_3d12t", geomean(vs3d), "ratio"},
            {"qor.ppc_vs_2d12t", geomean(vs2d), "ratio"},
            {"qor.ppc_geomean", geomean(ppc_all), "PPC"},
            {"qor.power_mw", power, "mW"},
            {"qor.wns_ns", wns, "ns"},
            {"qor.wirelength_m", wl, "m"},
            {"qor.cut", double(cut), "count"}};
  }

  // Per netlist: six search steps plus the four configurations the
  // search did not already produce (its winner is the 2D-12T point).
  int flows_needed() const override {
    return static_cast<int>(kNetlistCount * (6 + kConfigCount - 1));
  }

 private:
  static constexpr const char* kNetlists[] = {"netcard", "aes", "ldpc", "cpu"};
  static constexpr std::size_t kNetlistCount = 4;
  static constexpr Config kConfigs[] = {Config::TwoD9T, Config::TwoD12T,
                                        Config::ThreeD9T, Config::ThreeD12T,
                                        Config::Hetero3D};
  static constexpr std::size_t kConfigCount = 5;

  /// The table benches' per-netlist options: LDPC, the wire-dominant
  /// netlist, gets routing headroom (the paper's 64 % placement density).
  static FlowOptions options(const std::string& name, double period_ns) {
    FlowOptions o;
    o.clock_period_ns = period_ns;
    if (name == "ldpc") o.utilization = 0.50;
    return o;
  }

  double scale_;
  unsigned seed_;
  std::vector<Netlist> nls_;
  std::vector<double> periods_;
  std::vector<FlowCache::ResultPtr> results_;  // netlist-major, config-minor
};

// ---- explore ----------------------------------------------------------------

/// The design-space explorer's grid on the cpu netlist: six stacks
/// (1/2/3 tiers, 12T and 12T-bottom heterogeneous) × two supplies × two
/// periods, plus an area-capped and a cost-aware (µ > 0) variant of every
/// multi-tier point — 56 independent flows.
class Explore : public Workload {
 public:
  Explore(double scale, unsigned seed) : scale_(scale), seed_(seed) {}

  void setup() override {
    m3d::gen::GenOptions g;
    g.scale = scale_;
    g.seed = seed_;
    nl_ = m3d::gen::make_design("cpu", g);
    points_.clear();
    const std::vector<std::vector<const char*>> stacks = {
        {"12T"}, {"9T"}, {"12T", "12T"}, {"12T", "9T"},
        {"12T", "12T", "12T"}, {"12T", "9T", "9T"}};
    for (const auto& techs : stacks) {
      // The per-tier cap derives from the stack's own synthesized area.
      FlowOptions probe;
      probe.tiers = make_stack(techs, 1.0);
      const Design d = m3d::core::design_for_flow(nl_, Config::TwoD12T, probe);
      const double cap =
          d.total_std_cell_area() / static_cast<double>(techs.size()) * 1.30;
      for (double vdd : {1.00, 0.90})
        for (double period : {1.6, 1.2}) {
          FlowOptions base;
          base.clock_period_ns = period;
          base.tiers = make_stack(techs, vdd);
          points_.push_back(base);
          if (techs.size() >= 2) {
            FlowOptions capped = base;
            for (TierSpec& t : capped.tiers) t.area_cap_um2 = cap;
            points_.push_back(capped);
            FlowOptions costly = base;
            costly.part_cost_weight = 2e9;
            points_.push_back(costly);
          }
        }
    }
  }

  std::vector<Op> run(m3d::exec::Pool& pool, FlowCache& cache) override {
    results_.assign(points_.size(), nullptr);
    std::vector<Op> ops(points_.size());
    m3d::exec::TaskGraph graph;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      ops[i].name = "point/" + std::to_string(i);
      graph.add(ops[i].name, [&, i] {
        guarded(ops[i], [&] {
          results_[i] = cache.get_or_run(nl_, config_for(points_[i]), points_[i]);
          ops[i].digest = flow_digest(*results_[i], ops[i].error);
        });
      });
    }
    graph.run(pool);
    return ops;
  }

  std::vector<Metric> qor(m3d::exec::Pool& pool) override {
    std::vector<const Design*> designs;
    std::vector<double> ppc;
    double power = 0.0, wl = 0.0, wns = INFINITY;
    long long cut = 0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!results_[i]) continue;
      const auto& m = results_[i]->metrics;
      designs.push_back(&results_[i]->design);
      ppc.push_back(m.ppc);
      power += m.total_power_mw;
      wl += m.wirelength_m;
      wns = std::min(wns, m.wns_ns);
      if (points_[i].tiers.size() >= 2)
        cut += m3d::part::cut_size(results_[i]->design);
    }
    return {{"qor.drc_errors", double(total_drc_errors(pool, designs)), "count"},
            {"qor.ppc_geomean", geomean(ppc), "PPC"},
            {"qor.power_mw", power, "mW"},
            {"qor.wns_ns", wns, "ns"},
            {"qor.wirelength_m", wl, "m"},
            {"qor.cut", double(cut), "count"}};
  }

  int flows_needed() const override { return static_cast<int>(points_.size()); }

 private:
  static std::vector<TierSpec> make_stack(const std::vector<const char*>& techs,
                                          double vdd_scale) {
    std::vector<TierSpec> tiers(techs.size());
    for (std::size_t i = 0; i < techs.size(); ++i) {
      tiers[i].tech = techs[i];
      tiers[i].vdd_scale = vdd_scale;
    }
    return tiers;
  }

  static Config config_for(const FlowOptions& o) {
    return o.tiers.size() >= 2 ? Config::ThreeD12T : Config::TwoD12T;
  }

  double scale_;
  unsigned seed_;
  Netlist nl_;
  std::vector<FlowOptions> points_;
  std::vector<FlowCache::ResultPtr> results_;
};

// ---- mesh_structural --------------------------------------------------------

/// The mesh/NoC fabric read back from structural Verilog, through the
/// structural 3D-12T pipeline of bench_scale (global place, 2-way bin FM
/// + legalize, CTS + legalize + latency annotation, route) and a signoff
/// STA at 1.0 ns.
class MeshStructural : public Workload {
 public:
  explicit MeshStructural(std::string path) : path_(std::move(path)) {}

  void setup() override {
    std::ifstream is(path_, std::ios::binary);
    if (!is) throw std::runtime_error("cannot read " + path_);
    std::ostringstream text;
    text << is.rdbuf();
    nl_ = m3d::netlist::parse_verilog(text.str());
  }

  std::vector<Op> run(m3d::exec::Pool& pool, FlowCache&) override {
    std::vector<Op> ops(1);
    ops[0].name = "mesh/pipeline";
    last_.reset();
    guarded(ops[0], [&] {
      auto d = std::make_unique<Design>(
          m3d::core::design_for_config(nl_, Config::ThreeD12T));
      d->set_clock_period_ns(1.0);
      m3d::place::PlaceOptions popt;
      popt.pool = &pool;
      m3d::place::init_floorplan(*d, popt);
      m3d::place::global_place(*d, popt);
      m3d::part::FmOptions fopt;
      fopt.pool = &pool;
      cut_ = m3d::part::bin_fm_partition(*d, fopt);
      m3d::place::legalize(*d);
      m3d::cts::CtsOptions copt;
      copt.pool = &pool;
      m3d::cts::build_clock_tree(*d, copt);
      m3d::place::legalize(*d);
      m3d::cts::annotate_clock_latencies(*d, &pool);
      const auto routes = m3d::route::route_design(*d, {&pool});
      m3d::sta::StaOptions sopt;
      sopt.pool = &pool;
      wns_ = m3d::sta::run_sta(*d, &routes, sopt).wns();
      wirelength_m_ = routes.total_wirelength_um * 1e-6;
      Hasher h;
      h.mix(cut_);
      h.mix(wns_);
      h.mix(wirelength_m_);
      mix_design(h, *d);
      ops[0].digest = h.h;
      if (!std::isfinite(wns_) || !std::isfinite(wirelength_m_))
        ops[0].error = "non-finite metrics";
      last_ = std::move(d);
    });
    return ops;
  }

  std::vector<Metric> qor(m3d::exec::Pool& pool) override {
    std::vector<const Design*> designs;
    if (last_) designs.push_back(last_.get());
    return {{"qor.drc_errors", double(total_drc_errors(pool, designs)), "count"},
            {"qor.wns_ns", wns_, "ns"},
            {"qor.wirelength_m", wirelength_m_, "m"},
            {"qor.cut", double(cut_), "count"}};
  }

  int flows_needed() const override { return 0; }

 private:
  std::string path_;
  Netlist nl_;
  std::unique_ptr<Design> last_;
  int cut_ = 0;
  double wns_ = 0.0;
  double wirelength_m_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, double scale,
                                        unsigned seed,
                                        const std::string& input) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(scale, seed);
  if (name == "explore") return std::make_unique<Explore>(scale, seed);
  if (name == "mesh_structural") return std::make_unique<MeshStructural>(input);
  return nullptr;
}

int write_mesh_verilog(double scale, unsigned seed, const std::string& path) {
  m3d::gen::GenOptions g;
  g.scale = scale;
  g.seed = seed;
  const Netlist nl = m3d::gen::make_design("mesh", g);
  std::ofstream os(path, std::ios::binary);
  m3d::netlist::write_verilog(nl, os);
  os.flush();
  if (!os) throw std::runtime_error("cannot write " + path);
  return nl.stats().cells;
}

int drc_errors(const Design& d) {
  return m3d::netlist::count_violations(m3d::netlist::run_checks(d),
                                        m3d::netlist::CheckSeverity::Error);
}

}  // namespace m3db
