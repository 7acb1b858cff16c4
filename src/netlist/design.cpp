#include "netlist/design.hpp"

#include "util/hash.hpp"

namespace m3d::netlist {

Design::Design(Netlist nl, std::shared_ptr<const tech::TechLib> bottom_lib,
               std::shared_ptr<const tech::TechLib> top_lib)
    : nl_(std::move(nl)) {
  M3D_CHECK(bottom_lib != nullptr);
  libs_.push_back(std::move(bottom_lib));
  if (top_lib != nullptr) libs_.push_back(std::move(top_lib));
  sync();
}

Design::Design(Netlist nl,
               std::vector<std::shared_ptr<const tech::TechLib>> tier_libs)
    : nl_(std::move(nl)), libs_(std::move(tier_libs)) {
  M3D_CHECK_MSG(!libs_.empty(), "a design needs at least one tier library");
  for (const auto& l : libs_) M3D_CHECK(l != nullptr);
  sync();
}

const tech::TechLib& Design::lib(int tier) const {
  M3D_CHECK_MSG(tier >= 0 && tier < num_tiers(),
                "design has no tier " << tier);
  return *libs_[static_cast<std::size_t>(tier)];
}

std::shared_ptr<const tech::TechLib> Design::lib_ptr(int tier) const {
  M3D_CHECK(tier >= 0 && tier < num_tiers());
  return libs_[static_cast<std::size_t>(tier)];
}

const tech::LibCell* Design::lib_cell(CellId c) const {
  const Cell& cc = nl_.cell(c);
  if (cc.kind != CellKind::Comb && cc.kind != CellKind::Seq) return nullptr;
  const tech::TechLib& l = lib_of(c);
  const tech::LibCell* lc = l.find(cc.func, cc.drive);
  M3D_CHECK_MSG(lc != nullptr, "cell " << cc.name << " ("
                                       << tech::func_name(cc.func) << "_X"
                                       << cc.drive << ") not in library "
                                       << l.name());
  return lc;
}

const tech::MacroCell* Design::macro(CellId c) const {
  const Cell& cc = nl_.cell(c);
  if (!cc.is_macro()) return nullptr;
  const tech::TechLib& l = lib_of(c);
  const int mi = l.find_macro(cc.macro_name);
  M3D_CHECK_MSG(mi >= 0, "macro " << cc.macro_name << " not in library "
                                  << l.name());
  return &l.macro(mi);
}

double Design::cell_area(CellId c) const {
  const Cell& cc = nl_.cell(c);
  switch (cc.kind) {
    case CellKind::Comb:
    case CellKind::Seq:
      return lib_cell(c)->area_um2(lib_of(c).row_height_um());
    case CellKind::Macro:
      return macro(c)->area_um2();
    case CellKind::PrimaryIn:
    case CellKind::PrimaryOut:
      return 0.0;
  }
  return 0.0;
}

double Design::cell_width(CellId c) const {
  const Cell& cc = nl_.cell(c);
  if (cc.is_macro()) return macro(c)->width_um;
  if (cc.is_port()) return 0.0;
  return lib_cell(c)->width_um;
}

double Design::cell_height(CellId c) const {
  const Cell& cc = nl_.cell(c);
  if (cc.is_macro()) return macro(c)->height_um;
  if (cc.is_port()) return 0.0;
  return lib_of(c).row_height_um();
}

double Design::pin_cap_ff(PinId p) const {
  const Pin& pp = nl_.pin(p);
  if (pp.dir != PinDir::Input) return 0.0;
  const Cell& cc = nl_.cell(pp.cell);
  if (cc.is_port()) return 2.0;  // pad load abstraction
  if (cc.is_macro()) return macro(pp.cell)->pin_cap_ff;
  const tech::LibCell* lc = lib_cell(pp.cell);
  return pp.is_clock ? lc->clock_cap_ff : lc->input_cap_ff;
}

void Design::set_tier(CellId c, int t) {
  M3D_CHECK(t >= 0 && t < num_tiers());
  tier_[idx(c)] = t;
}

void Design::sync(int default_tier) {
  const std::size_t n = static_cast<std::size_t>(nl_.cell_count());
  tier_.resize(n, default_tier);
  pos_.resize(n, util::Point{});
  clock_latency_.resize(n, 0.0);
}

double Design::total_std_cell_area() const {
  double a = 0.0;
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const Cell& cc = nl_.cell(c);
    if (cc.is_comb() || cc.is_sequential()) a += cell_area(c);
  }
  return a;
}

double Design::tier_std_cell_area(int t) const {
  double a = 0.0;
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const Cell& cc = nl_.cell(c);
    if ((cc.is_comb() || cc.is_sequential()) && tier(c) == t)
      a += cell_area(c);
  }
  return a;
}

double Design::total_macro_area() const {
  double a = 0.0;
  for (CellId c = 0; c < nl_.cell_count(); ++c)
    if (nl_.cell(c).is_macro()) a += cell_area(c);
  return a;
}

double Design::density() const {
  const double si = silicon_area();
  if (si <= 0.0) return 0.0;
  return (total_std_cell_area() + total_macro_area()) / si;
}

std::uint64_t state_digest(const Design& d) {
  util::Hasher h;
  for (CellId c = 0; c < d.nl().cell_count(); ++c) {
    h.mix(static_cast<std::uint64_t>(d.tier(c)));
    h.mix(d.pos(c).x);
    h.mix(d.pos(c).y);
    h.mix(d.clock_latency(c));
  }
  return h.h;
}

}  // namespace m3d::netlist
