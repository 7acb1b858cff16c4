// Tests for the design-rule checker: a flow-produced design is clean of
// errors, and each rule fires when its violation is injected.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "gen/designs.hpp"
#include "netlist/checks.hpp"
#include "place/place.hpp"
#include "tech/library_factory.hpp"
#include "util/log.hpp"

namespace mc = m3d::core;
namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mt = m3d::tech;

namespace {

mc::FlowResult flow(mc::Config cfg = mc::Config::Hetero3D) {
  m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  mg::GenOptions g;
  g.scale = 0.06;
  mc::FlowOptions o;
  o.clock_period_ns = 1.2;
  o.opt.max_sizing_rounds = 1;
  o.repart.max_iters = 1;
  return mc::run_flow(mg::make_netcard(g), cfg, o);
}

// The cpu 2D-12T output at the same scale and period.
mc::FlowResult cpu_2d_flow() {
  m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  mg::GenOptions g;
  g.scale = 0.06;
  mc::FlowOptions o;
  o.clock_period_ns = 1.2;
  return mc::run_flow(mg::make_design("cpu", g), mc::Config::TwoD12T, o);
}

bool has_rule(const std::vector<mn::CheckViolation>& v,
              const std::string& rule) {
  for (const auto& x : v)
    if (x.rule == rule) return true;
  return false;
}

// All-pairs reference: every same-tier pair of non-port cells whose boxes
// overlap by more than min_x in x and min_y in y, as (lower id, higher id).
std::vector<std::pair<mn::CellId, mn::CellId>> all_pairs_overlaps(
    const mn::Design& d, double min_x, double min_y) {
  const auto& nl = d.nl();
  std::vector<std::pair<mn::CellId, mn::CellId>> out;
  for (mn::CellId a = 0; a < nl.cell_count(); ++a) {
    if (nl.cell(a).is_port()) continue;
    for (mn::CellId b = a + 1; b < nl.cell_count(); ++b) {
      if (nl.cell(b).is_port() || d.tier(a) != d.tier(b)) continue;
      const double ox =
          std::min(d.pos(a).x + d.cell_width(a) / 2.0,
                   d.pos(b).x + d.cell_width(b) / 2.0) -
          std::max(d.pos(a).x - d.cell_width(a) / 2.0,
                   d.pos(b).x - d.cell_width(b) / 2.0);
      const double oy =
          std::min(d.pos(a).y + d.cell_height(a) / 2.0,
                   d.pos(b).y + d.cell_height(b) / 2.0) -
          std::max(d.pos(a).y - d.cell_height(a) / 2.0,
                   d.pos(b).y - d.cell_height(b) / 2.0);
      if (ox > min_x && oy > min_y) out.emplace_back(a, b);
    }
  }
  return out;
}

// The placement.overlap findings against the all-pairs reference at the
// checker's thresholds: one finding per overlapping pair, each naming the
// pair's lower cell id. Also checks for_each_overlap at its own
// thresholds: every overlapping pair exactly once.
void expect_overlaps_match_all_pairs(const mn::Design& d) {
  const auto ref = all_pairs_overlaps(d, 1e-9, 1e-6);
  std::vector<mn::CellId> want, got;
  for (const auto& [a, b] : ref) want.push_back(a);
  for (const auto& x : mn::run_checks(d))
    if (x.rule == "placement.overlap") got.push_back(x.cell);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);

  std::vector<std::pair<mn::CellId, mn::CellId>> visited;
  mn::for_each_overlap(d, [&](mn::CellId a, mn::CellId b, double, double) {
    visited.emplace_back(a, b);
  });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, all_pairs_overlaps(d, 1e-9, 1e-9));
}

}  // namespace

TEST(Checks, FlowOutputIsErrorClean) {
  const auto r = flow();
  const auto v = mn::run_checks(r.design);
  EXPECT_EQ(mn::count_violations(v, mn::CheckSeverity::Error), 0)
      << mn::check_report(v);
}

TEST(Checks, TwoDFlowAlsoClean) {
  const auto r = flow(mc::Config::TwoD12T);
  const auto v = mn::run_checks(r.design);
  EXPECT_EQ(mn::count_violations(v, mn::CheckSeverity::Error), 0)
      << mn::check_report(v);
}

TEST(Checks, DetectsOverlap) {
  auto r = flow();
  auto& d = r.design;
  // Stack two comb cells of the same tier on top of each other.
  mn::CellId a = mn::kInvalidId, b = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    if (!d.nl().cell(c).is_comb()) continue;
    if (d.tier(c) != mn::kBottomTier) continue;
    if (a == mn::kInvalidId)
      a = c;
    else {
      b = c;
      break;
    }
  }
  ASSERT_NE(b, mn::kInvalidId);
  d.set_pos(b, d.pos(a));
  const auto v = mn::run_checks(d);
  EXPECT_TRUE(has_rule(v, "placement.overlap")) << mn::check_report(v);
}

TEST(Checks, OverlapRuleMatchesAllPairsScan) {
  // cpu's macros are wider than any standard cell; a sweep that stops at
  // the first cell clearing the current cell's right edge never reaches a
  // wider cell whose centre lies further right. The flow output carries
  // macro-macro overlaps that only an exact scan finds.
  auto r = cpu_2d_flow();
  auto& d = r.design;
  EXPECT_GT(m3d::place::max_overlap_um2(d), 0.0);
  expect_overlaps_match_all_pairs(d);

  // A comb cell dropped inside a macro, left of the macro's centre.
  mn::CellId macro = mn::kInvalidId, comb = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c) {
    if (macro == mn::kInvalidId && d.nl().cell(c).is_macro()) macro = c;
    if (comb == mn::kInvalidId && d.nl().cell(c).is_comb()) comb = c;
  }
  ASSERT_NE(macro, mn::kInvalidId);
  ASSERT_NE(comb, mn::kInvalidId);
  ASSERT_EQ(d.tier(macro), d.tier(comb));
  d.set_pos(comb, {d.pos(macro).x - d.cell_width(macro) / 4.0,
                   d.pos(macro).y});
  bool injected = false;
  for (const auto& x : mn::run_checks(d))
    injected |= x.rule == "placement.overlap" &&
                x.message.find(std::string(d.nl().cell(comb).name)) !=
                    std::string::npos;
  EXPECT_TRUE(injected);
  expect_overlaps_match_all_pairs(d);
}

TEST(Checks, DetectsOutsideDieAndOffRow) {
  auto r = flow();
  auto& d = r.design;
  mn::CellId a = mn::kInvalidId;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_comb()) {
      a = c;
      break;
    }
  d.set_pos(a, {d.floorplan().xhi + 50.0, d.floorplan().yhi + 50.0});
  auto v = mn::run_checks(d);
  EXPECT_TRUE(has_rule(v, "placement.outside"));

  d.set_pos(a, {d.floorplan().center().x, d.floorplan().center().y + 0.37});
  v = mn::run_checks(d);
  EXPECT_TRUE(has_rule(v, "placement.off_row"));
}

TEST(Checks, DetectsUnclockedFlop) {
  auto r = flow();
  auto& d = r.design;
  for (mn::CellId c = 0; c < d.nl().cell_count(); ++c)
    if (d.nl().cell(c).is_sequential()) {
      d.nl().disconnect(d.nl().clock_pin(c));
      break;
    }
  const auto v = mn::run_checks(d);
  EXPECT_TRUE(has_rule(v, "clock.unclocked"));
}

TEST(Checks, DetectsExcessFanoutAsWarning) {
  auto r = flow();
  auto& d = r.design;
  mn::CheckOptions opt;
  opt.max_fanout = 1;  // everything with fanout 2+ now trips
  const auto v = mn::run_checks(d, opt);
  EXPECT_TRUE(has_rule(v, "electrical.fanout"));
  EXPECT_GT(mn::count_violations(v, mn::CheckSeverity::Warning), 0);
  // Still no *errors* — fanout is advisory.
  EXPECT_EQ(mn::count_violations(v, mn::CheckSeverity::Error), 0);
}

TEST(Checks, ReportIsReadable) {
  auto r = flow();
  auto& d = r.design;
  mn::CheckOptions opt;
  opt.max_fanout = 1;
  const auto v = mn::run_checks(d, opt);
  const auto rep = mn::check_report(v);
  EXPECT_NE(rep.find("warning"), std::string::npos);
  EXPECT_NE(rep.find("electrical.fanout"), std::string::npos);
}
