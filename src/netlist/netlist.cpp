#include "netlist/netlist.hpp"

#include <algorithm>

namespace m3d::netlist {

namespace {

/// Round up to the next power of two, minimum 2 (dovecot's nearest_power
/// idiom): net-pin runs grow 2, 4, 8, ... so total arena copy traffic per
/// net stays O(final size).
int nearest_power(int n) {
  int p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void Netlist::reserve(int cells, int nets, int pins) {
  const auto nc = static_cast<std::size_t>(cells < 0 ? 0 : cells);
  const auto nn = static_cast<std::size_t>(nets < 0 ? 0 : nets);
  const auto np = static_cast<std::size_t>(pins < 0 ? 0 : pins);
  cell_name_.reserve(nc);
  cell_kind_.reserve(nc);
  cell_func_.reserve(nc);
  cell_drive_.reserve(nc);
  cell_macro_.reserve(nc);
  cell_block_.reserve(nc);
  cell_fixed_.reserve(nc);
  cell_pin_off_.reserve(nc);
  cell_pin_cnt_.reserve(nc);
  cell_in_count_.reserve(nc);
  cell_has_clock_.reserve(nc);
  net_name_.reserve(nn);
  net_driver_.reserve(nn);
  net_activity_.reserve(nn);
  net_clock_.reserve(nn);
  net_pin_off_.reserve(nn);
  net_pin_cnt_.reserve(nn);
  net_pin_cap_.reserve(nn);
  pins_.reserve(np);
  pin_iota_.reserve(np);
  // Power-of-two run growth at the arena tail leaves dead runs behind;
  // 2x the final pin count covers the worst case without reallocating.
  net_pin_arena_.reserve(np * 2);
}

BlockId Netlist::add_block(std::string_view block_name) {
  for (std::size_t b = 0; b < blocks_.size(); ++b)
    if (syms_.view(blocks_[b]) == block_name) return static_cast<BlockId>(b);
  blocks_.push_back(syms_.add(block_name));
  return static_cast<BlockId>(blocks_.size() - 1);
}

std::string_view Netlist::block_name(BlockId b) const {
  M3D_CHECK(b >= 0 && b < block_count());
  return syms_.view(blocks_[static_cast<std::size_t>(b)]);
}

CellId Netlist::new_cell(std::string_view name, CellKind kind,
                         tech::CellFunc func, int drive, std::int32_t macro,
                         BlockId block, bool fixed) {
  const CellId id = cell_count();
  cell_name_.push_back(syms_.add(name));
  cell_kind_.push_back(kind);
  cell_func_.push_back(func);
  cell_drive_.push_back(drive);
  cell_macro_.push_back(macro);
  cell_block_.push_back(block);
  cell_fixed_.push_back(fixed ? 1 : 0);
  cell_pin_off_.push_back(pin_count());
  cell_pin_cnt_.push_back(0);
  cell_in_count_.push_back(0);
  cell_has_clock_.push_back(0);
  return id;
}

void Netlist::new_pin(CellId c, PinDir dir, int index, bool is_clock) {
  const PinId id = pin_count();
  Pin p;
  p.cell = c;
  p.dir = dir;
  p.index = index;
  p.is_clock = is_clock;
  pins_.push_back(p);
  pin_iota_.push_back(id);
  const auto i = static_cast<std::size_t>(c);
  ++cell_pin_cnt_[i];
  if (is_clock)
    cell_has_clock_[i] = 1;
  else if (dir == PinDir::Input)
    ++cell_in_count_[i];
}

CellId Netlist::add_comb(std::string_view name, tech::CellFunc func,
                         int drive, BlockId block) {
  M3D_CHECK(!tech::func_is_sequential(func));
  const CellId id = new_cell(name, CellKind::Comb, func, drive, -1, block,
                             /*fixed=*/false);
  const int nin = tech::func_input_count(func);
  for (int i = 0; i < nin; ++i) new_pin(id, PinDir::Input, i, false);
  new_pin(id, PinDir::Output, 0, false);
  return id;
}

CellId Netlist::add_dff(std::string_view name, int drive, BlockId block) {
  const CellId id = new_cell(name, CellKind::Seq, tech::CellFunc::Dff, drive,
                             -1, block, /*fixed=*/false);
  new_pin(id, PinDir::Input, 0, false);   // D
  new_pin(id, PinDir::Input, 0, true);    // CLK
  new_pin(id, PinDir::Output, 0, false);  // Q
  return id;
}

CellId Netlist::add_macro(std::string_view name, std::string_view macro_name,
                          int n_in, int n_out, BlockId block) {
  M3D_CHECK(n_in > 0 && n_out > 0);
  std::int32_t m = -1;
  for (std::size_t k = 0; k < macro_names_.size(); ++k)
    if (syms_.view(macro_names_[k]) == macro_name) {
      m = static_cast<std::int32_t>(k);
      break;
    }
  if (m < 0) {
    m = static_cast<std::int32_t>(macro_names_.size());
    macro_names_.push_back(syms_.add(macro_name));
  }
  const CellId id = new_cell(name, CellKind::Macro, tech::CellFunc::Inv,
                             /*drive=*/1, m, block, /*fixed=*/true);
  for (int i = 0; i < n_in; ++i) new_pin(id, PinDir::Input, i, false);
  new_pin(id, PinDir::Input, 0, true);  // CLK
  for (int i = 0; i < n_out; ++i) new_pin(id, PinDir::Output, i, false);
  return id;
}

CellId Netlist::add_input_port(std::string_view name) {
  const CellId id = new_cell(name, CellKind::PrimaryIn, tech::CellFunc::Inv,
                             /*drive=*/1, -1, /*block=*/0, /*fixed=*/true);
  new_pin(id, PinDir::Output, 0, false);
  return id;
}

CellId Netlist::add_output_port(std::string_view name) {
  const CellId id = new_cell(name, CellKind::PrimaryOut, tech::CellFunc::Inv,
                             /*drive=*/1, -1, /*block=*/0, /*fixed=*/true);
  new_pin(id, PinDir::Input, 0, false);
  return id;
}

NetId Netlist::add_net(std::string_view net_name, bool is_clock) {
  const NetId id = net_count();
  net_name_.push_back(syms_.add(net_name));
  net_driver_.push_back(kInvalidId);
  net_activity_.push_back(is_clock ? 2.0 : 0.1);  // clock: two edges/cycle
  net_clock_.push_back(is_clock ? 1 : 0);
  net_pin_off_.push_back(0);
  net_pin_cnt_.push_back(0);
  net_pin_cap_.push_back(0);
  return id;
}

void Netlist::net_push_pin(std::size_t n, PinId pin_id) {
  if (net_pin_cnt_[n] == net_pin_cap_[n]) {
    const int new_cap = nearest_power(net_pin_cnt_[n] + 1);
    const int new_off = static_cast<int>(net_pin_arena_.size());
    net_pin_arena_.resize(net_pin_arena_.size() +
                          static_cast<std::size_t>(new_cap));
    // Relocate the run to the arena tail; the old run becomes dead space
    // reclaimed only when the netlist is destroyed or copied.
    std::copy_n(net_pin_arena_.begin() + net_pin_off_[n], net_pin_cnt_[n],
                net_pin_arena_.begin() + new_off);
    net_pin_off_[n] = new_off;
    net_pin_cap_[n] = new_cap;
  }
  net_pin_arena_[static_cast<std::size_t>(net_pin_off_[n] +
                                          net_pin_cnt_[n])] = pin_id;
  ++net_pin_cnt_[n];
}

void Netlist::connect(NetId net_id, PinId pin_id) {
  const std::size_t n = check_net(net_id);
  Pin& p = pins_[check_pin(pin_id)];
  M3D_CHECK_MSG(p.net == kInvalidId,
                "pin already connected (cell " << cell_name_view(p.cell)
                                               << ")");
  if (p.dir == PinDir::Output) {
    M3D_CHECK_MSG(net_driver_[n] == kInvalidId,
                  "net " << syms_.view(net_name_[n])
                         << " already has a driver");
    net_driver_[n] = pin_id;
  }
  p.net = net_id;
  net_push_pin(n, pin_id);
}

void Netlist::disconnect(PinId pin_id) {
  Pin& p = pins_[check_pin(pin_id)];
  if (p.net == kInvalidId) return;
  const std::size_t n = check_net(p.net);
  PinId* base = net_pin_arena_.data() + net_pin_off_[n];
  const int cnt = net_pin_cnt_[n];
  // Order-preserving removal (the old std::remove semantics).
  int w = 0;
  for (int r = 0; r < cnt; ++r) {
    if (base[r] == pin_id) continue;
    base[w++] = base[r];
  }
  net_pin_cnt_[n] = w;
  if (net_driver_[n] == pin_id) net_driver_[n] = kInvalidId;
  p.net = kInvalidId;
}

void Netlist::disconnect_all(const std::vector<PinId>& pin_ids) {
  if (pin_ids.empty()) return;
  std::vector<char> drop(pins_.size(), 0);
  std::vector<NetId> nets;
  for (const PinId pid : pin_ids) {
    Pin& p = pins_[check_pin(pid)];
    if (p.net == kInvalidId || drop[static_cast<std::size_t>(pid)]) continue;
    drop[static_cast<std::size_t>(pid)] = 1;
    nets.push_back(p.net);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  for (const NetId net_id : nets) {
    const std::size_t n = check_net(net_id);
    PinId* base = net_pin_arena_.data() + net_pin_off_[n];
    const int cnt = net_pin_cnt_[n];
    int w = 0;
    for (int r = 0; r < cnt; ++r) {
      if (drop[static_cast<std::size_t>(base[r])]) continue;
      base[w++] = base[r];
    }
    net_pin_cnt_[n] = w;
    if (net_driver_[n] != kInvalidId &&
        drop[static_cast<std::size_t>(net_driver_[n])])
      net_driver_[n] = kInvalidId;
  }
  for (const PinId pid : pin_ids)
    pins_[check_pin(pid)].net = kInvalidId;
}

void Netlist::sinks_into(NetId n, std::vector<PinId>& out) const {
  out.clear();
  for_each_sink(n, [&](PinId p) { out.push_back(p); });
}

void Netlist::validate() const {
  for (NetId n = 0; n < net_count(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    const std::string_view nname = syms_.view(net_name_[i]);
    const PinId* base = net_pin_arena_.data() + net_pin_off_[i];
    const int cnt = net_pin_cnt_[i];
    M3D_CHECK_MSG(net_driver_[i] != kInvalidId || cnt == 0,
                  "net " << nname << " has sinks but no driver");
    int drivers = 0;
    for (int k = 0; k < cnt; ++k) {
      const Pin& p = pins_[check_pin(base[k])];
      M3D_CHECK(p.net == n);
      if (p.dir == PinDir::Output) ++drivers;
    }
    M3D_CHECK_MSG(drivers <= 1, "net " << nname << " is multiply driven");
    if (cnt > 0)
      M3D_CHECK_MSG(drivers == 1, "net " << nname << " has no driver pin");
  }
  for (PinId p = 0; p < pin_count(); ++p) {
    const Pin& pp = pins_[static_cast<std::size_t>(p)];
    const std::size_t c = check_cell(pp.cell);
    const bool in_cell =
        p >= cell_pin_off_[c] && p < cell_pin_off_[c] + cell_pin_cnt_[c];
    M3D_CHECK_MSG(in_cell, "pin/cell cross-reference broken at pin " << p);
    const CellKind k = cell_kind_[c];
    const bool is_port =
        k == CellKind::PrimaryIn || k == CellKind::PrimaryOut;
    if (pp.dir == PinDir::Input && !is_port) {
      M3D_CHECK_MSG(pp.net != kInvalidId,
                    "unconnected input pin on cell " << cell_name_view(
                        pp.cell));
    }
  }
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  for (CellKind k : cell_kind_) {
    switch (k) {
      case CellKind::Comb:
        ++s.cells;
        ++s.comb_cells;
        break;
      case CellKind::Seq:
        ++s.cells;
        ++s.seq_cells;
        break;
      case CellKind::Macro:
        ++s.macros;
        break;
      case CellKind::PrimaryIn:
      case CellKind::PrimaryOut:
        ++s.ports;
        break;
    }
  }
  s.nets = net_count();
  s.pins = pin_count();
  long long fo = 0;
  int driven = 0;
  for (NetId n = 0; n < net_count(); ++n) {
    if (net_driver_[static_cast<std::size_t>(n)] == kInvalidId) continue;
    fo += fanout(n);
    ++driven;
  }
  s.avg_fanout = driven ? static_cast<double>(fo) / driven : 0.0;
  return s;
}

}  // namespace m3d::netlist
