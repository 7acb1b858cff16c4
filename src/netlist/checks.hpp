#pragma once
/// \file checks.hpp
/// \brief Physical/electrical design-rule checks over a Design.
///
/// A severity-tagged, machine-readable violation list covering what a
/// sign-off checklist would flag: placement legality (overlaps, outside
/// die, off-row), tier sanity (2-D designs using the top tier), electrical
/// limits (fanout, estimated slew, load caps), clock-network structure
/// (unclocked flops, data pins on clock nets), and dangling logic.
/// Flow outputs are meant to be error-clean; tests inject violations.
/// (cpu's macro placement still leaves macro-macro overlaps, which the
/// exact overlap scan below reports.)

#include <functional>
#include <string>
#include <vector>

#include "netlist/design.hpp"

namespace m3d::netlist {

enum class CheckSeverity { Warning, Error };

/// One finding.
struct CheckViolation {
  CheckSeverity severity = CheckSeverity::Error;
  std::string rule;     ///< short rule id, e.g. "placement.overlap"
  std::string message;  ///< human-readable detail
  CellId cell = kInvalidId;
  NetId net = kInvalidId;
};

/// Knobs for the electrical rules.
struct CheckOptions {
  double max_fanout = 40;        ///< hard fanout ceiling
  double max_load_ff = 220.0;    ///< ceiling on any net's total load
  bool check_placement = true;   ///< needs a placed design
  bool check_rows = true;        ///< row alignment per tier
};

/// Visit every pair of same-tier, non-port cells whose bounding boxes
/// overlap by more than 1e-9 µm in both x and y exactly once, as
/// fn(a, b, ox, oy) with a < b and the overlap extents ox, oy in µm. Each
/// cell is registered in every grid bucket its box touches (buckets sized
/// for ~2 cells on a spread placement), and a pair is reported from the
/// bucket holding the lower-left corner of its intersection, so the scan
/// is exact for cells of any size and linear on a legal placement.
void for_each_overlap(
    const Design& d,
    const std::function<void(CellId a, CellId b, double ox, double oy)>& fn);

/// Run every check; returns all violations (empty = clean).
std::vector<CheckViolation> run_checks(const Design& d,
                                       const CheckOptions& opt = {});

/// Count violations at a given severity.
int count_violations(const std::vector<CheckViolation>& v,
                     CheckSeverity severity);

/// Render the list as an aligned report.
std::string check_report(const std::vector<CheckViolation>& v);

}  // namespace m3d::netlist
