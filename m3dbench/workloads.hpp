#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads, each driven through the program's
///        public API: inputs from a seed, one full pass per run(), and
///        QoR plus design-rule checks over the last pass's outputs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "netlist/design.hpp"

namespace m3db {

/// One named, unit-tagged number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One op of a pass: a flow, a frequency search or a mesh pipeline.
/// `digest` covers the op's result metrics and placement; `error` is
/// non-empty when the op threw or produced non-finite metrics.
struct Op {
  std::string name;
  std::uint64_t digest = 0;
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs (netlists generated or parsed, grids laid out).
  virtual void setup() = 0;

  /// One complete pass over the inputs on `pool`, memoized in `cache`.
  virtual std::vector<Op> run(m3d::exec::Pool& pool,
                              m3d::exec::FlowCache& cache) = 0;

  /// QoR metrics and the run_checks error count over the last pass.
  virtual std::vector<Metric> qor(m3d::exec::Pool& pool) = 0;

  /// Distinct flow results one pass consumes (core.flows_needed).
  virtual int flows_needed() const = 0;
};

/// nullptr for an unknown workload name. `input` is the structural
/// Verilog file mesh_structural reads; the others ignore it.
std::unique_ptr<Workload> make_workload(const std::string& name, double scale,
                                        unsigned seed,
                                        const std::string& input);

/// Generate the mesh fabric and write it as structural Verilog; returns
/// its standard-cell count.
int write_mesh_verilog(double scale, unsigned seed, const std::string& path);

/// Count of Error-severity run_checks findings on a design.
int drc_errors(const m3d::netlist::Design& d);

}  // namespace m3db
