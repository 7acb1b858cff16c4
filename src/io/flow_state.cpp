/// \file flow_state.cpp
/// \brief See flow_state.hpp. Compiled into m3d_core (its consumers — the
///        flow cache disk tier and the checkpoint layer — live there, and
///        m3d_io itself links m3d_core, so building it into m3d_io would
///        be a dependency cycle).

#include "io/flow_state.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "exec/flow_cache.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/publish.hpp"

namespace m3d::io {

namespace {

constexpr std::uint64_t kMagic = 0x4d33445354415445ull;  // "M3DSTATE"
// Covers the envelope and every record inside it. Bump it whenever one
// changes, so older files read as invalid. 4: one format for the flow
// cache (formerly "M3DFCACH" v3) and checkpoints ("M3DCKPT1" v2).
constexpr std::uint32_t kStateVersion = 4;

std::uint64_t checksum(std::string_view bytes) {
  util::Hasher h;
  h.mix(bytes);
  return h.h;
}

void write_netlist(BinWriter& w, const netlist::Netlist& nl) {
  w.str(nl.name());
  w.i32(nl.block_count());
  for (netlist::BlockId b = 1; b < nl.block_count(); ++b)
    w.str(nl.block_name(b));
  w.i32(nl.cell_count());
  for (netlist::CellId c = 0; c < nl.cell_count(); ++c) {
    const netlist::Cell& cell = nl.cell(c);
    w.u8(static_cast<std::uint8_t>(cell.kind));
    w.str(cell.name);
    switch (cell.kind) {
      case netlist::CellKind::Comb:
        w.i32(static_cast<int>(cell.func));
        w.i32(cell.drive);
        w.i32(cell.block);
        break;
      case netlist::CellKind::Seq:
        w.i32(cell.drive);
        w.i32(cell.block);
        break;
      case netlist::CellKind::Macro: {
        int n_in = 0, n_out = 0;
        for (netlist::PinId p : cell.pins) {
          const netlist::Pin& pin = nl.pin(p);
          if (pin.is_clock) continue;
          (pin.dir == netlist::PinDir::Output ? n_out : n_in)++;
        }
        w.str(cell.macro_name);
        w.i32(n_in);
        w.i32(n_out);
        w.i32(cell.block);
        break;
      }
      case netlist::CellKind::PrimaryIn:
      case netlist::CellKind::PrimaryOut:
        break;
    }
    w.u8(cell.fixed ? 1 : 0);
  }
  w.i32(nl.pin_count());  // replay sanity check
  w.i32(nl.net_count());
  for (netlist::NetId n = 0; n < nl.net_count(); ++n) {
    const netlist::Net& net = nl.net(n);
    w.str(net.name);
    w.u8(net.is_clock ? 1 : 0);
    w.f64(net.activity);
    w.i32(static_cast<int>(net.pins.size()));
    for (netlist::PinId p : net.pins) w.i32(p);
  }
}

/// Replay a netlist written by write_netlist; throws util::Error when the
/// bytes do not replay cleanly (wrong ids, truncation, bad counts).
netlist::Netlist read_netlist(BinReader& r) {
  netlist::Netlist nl(r.str());
  const int blocks = r.i32();
  for (int b = 1; b < blocks; ++b) nl.add_block(r.str());
  const int cells = r.i32();
  for (int c = 0; c < cells; ++c) {
    const auto kind = static_cast<netlist::CellKind>(r.u8());
    const std::string name = r.str();
    netlist::CellId id = netlist::kInvalidId;
    switch (kind) {
      case netlist::CellKind::Comb: {
        const auto func = static_cast<tech::CellFunc>(r.i32());
        const int drive = r.i32();
        const int block = r.i32();
        id = nl.add_comb(name, func, drive, block);
        break;
      }
      case netlist::CellKind::Seq: {
        const int drive = r.i32();
        const int block = r.i32();
        id = nl.add_dff(name, drive, block);
        break;
      }
      case netlist::CellKind::Macro: {
        const std::string macro_name = r.str();
        const int n_in = r.i32();
        const int n_out = r.i32();
        const int block = r.i32();
        // Pins cost no bytes of their own, so bound them by what is left:
        // a damaged count must not build millions of pins.
        M3D_CHECK_MSG(n_in >= 0 && n_out >= 0 &&
                          static_cast<std::uint64_t>(n_in) + n_out <=
                              r.in.size(),
                      "flow state macro pin count out of range");
        id = nl.add_macro(name, macro_name, n_in, n_out, block);
        break;
      }
      case netlist::CellKind::PrimaryIn:
        id = nl.add_input_port(name);
        break;
      case netlist::CellKind::PrimaryOut:
        id = nl.add_output_port(name);
        break;
    }
    M3D_CHECK_MSG(id == c, "flow state replay produced wrong cell id");
    nl.set_fixed(id, r.u8() != 0);
  }
  M3D_CHECK_MSG(r.i32() == nl.pin_count(),
                "flow state replay produced wrong pin count");
  const int nets = r.i32();
  for (int n = 0; n < nets; ++n) {
    const std::string name = r.str();
    const bool is_clock = r.u8() != 0;
    const double activity = r.f64();
    const netlist::NetId id = nl.add_net(name, is_clock);
    M3D_CHECK_MSG(id == n, "flow state replay produced wrong net id");
    nl.set_activity(id, activity);
    const int npins = r.i32();
    for (int i = 0; i < npins; ++i) {
      const netlist::PinId p = r.i32();
      M3D_CHECK_MSG(p >= 0 && p < nl.pin_count(),
                    "flow state pin id out of range");
      nl.connect(id, p);
    }
  }
  return nl;
}

// The clock latencies ARE stored, not re-derived: mid-flow they can be
// stale relative to the current placement on purpose — e.g. during the
// repartition ECO, which times against the latencies annotated before the
// loop started — so recomputing them on load would change the state.
void write_design_state(BinWriter& w, const netlist::Design& d) {
  const util::Rect& fp = d.floorplan();
  w.f64(fp.xlo);
  w.f64(fp.ylo);
  w.f64(fp.xhi);
  w.f64(fp.yhi);
  w.f64(d.clock_period_ns());
  w.i32(d.clock_net());
  for (netlist::CellId c = 0; c < d.nl().cell_count(); ++c) {
    w.u8(static_cast<std::uint8_t>(d.tier(c)));
    const util::Point p = d.pos(c);
    w.f64(p.x);
    w.f64(p.y);
    w.f64(d.clock_latency(c));
  }
}

void read_design_state(BinReader& r, netlist::Design& d) {
  const double xlo = r.f64(), ylo = r.f64();
  const double xhi = r.f64(), yhi = r.f64();
  d.set_floorplan({xlo, ylo, xhi, yhi});
  d.set_clock_period_ns(r.f64());
  const netlist::NetId clock_net = r.i32();
  M3D_CHECK_MSG(clock_net == netlist::kInvalidId ||
                    (clock_net >= 0 && clock_net < d.nl().net_count()),
                "flow state clock net out of range");
  d.set_clock_net(clock_net);
  for (netlist::CellId c = 0; c < d.nl().cell_count(); ++c) {
    d.set_tier(c, r.u8());
    const double x = r.f64(), y = r.f64();
    d.set_pos(c, {x, y});
    d.set_clock_latency(c, r.f64());
  }
}

void write_flow_stats(BinWriter& w, const core::FlowResult& res) {
  w.i32(res.timing_part.pinned_cells);
  w.f64(res.timing_part.pinned_area);
  w.i32(res.timing_part.cut);
  w.f64(res.timing_part.worst_pinned_slack);
  write_repart_result(w, res.repart);
  w.i32(res.opt.buffers_added);
  w.i32(res.opt.cells_upsized);
  w.i32(res.opt.cells_downsized);
  w.f64(res.opt.wns_before);
  w.f64(res.opt.wns_after);
}

void read_flow_stats(BinReader& r, core::FlowResult& res) {
  res.timing_part.pinned_cells = r.i32();
  res.timing_part.pinned_area = r.f64();
  res.timing_part.cut = r.i32();
  res.timing_part.worst_pinned_slack = r.f64();
  read_repart_result(r, res.repart);
  res.opt.buffers_added = r.i32();
  res.opt.cells_upsized = r.i32();
  res.opt.cells_downsized = r.i32();
  res.opt.wns_before = r.f64();
  res.opt.wns_after = r.f64();
}

void write_clock_report(BinWriter& w, const cts::ClockTreeReport& c) {
  w.i32(c.buffer_count);
  w.i32(c.buffer_count_tier[0]);
  w.i32(c.buffer_count_tier[1]);
  w.f64(c.buffer_area_um2);
  w.f64(c.wirelength_um);
  w.f64(c.max_latency_ns);
  w.f64(c.min_latency_ns);
  w.f64(c.max_skew_ns);
  w.i32(c.sink_count);
}

void read_clock_report(BinReader& r, cts::ClockTreeReport& c) {
  c.buffer_count = r.i32();
  c.buffer_count_tier[0] = r.i32();
  c.buffer_count_tier[1] = r.i32();
  c.buffer_area_um2 = r.f64();
  c.wirelength_um = r.f64();
  c.max_latency_ns = r.f64();
  c.min_latency_ns = r.f64();
  c.max_skew_ns = r.f64();
  c.sink_count = r.i32();
}

}  // namespace

void BinWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void BinReader::raw(void* p, std::size_t n) {
  M3D_CHECK_MSG(n <= in.size(), "flow state truncated");
  if (n > 0) std::memcpy(p, in.data(), n);
  in.remove_prefix(n);
}
std::string BinReader::str() {
  const std::uint32_t n = u32();
  M3D_CHECK_MSG(n <= in.size(), "flow state string runs past the end");
  std::string s(in.substr(0, n));
  in.remove_prefix(n);
  return s;
}
void BinReader::expect_end() const {
  M3D_CHECK_MSG(in.empty(), "flow state has " << in.size()
                                               << " unread trailing bytes");
}

bool write_state_file(const std::string& path, const StateKey& key,
                      std::string_view payload) {
  std::string file;
  BinWriter w{file};
  w.u64(kMagic);
  w.u32(kStateVersion);
  w.u64(key.netlist_fp);
  w.i32(key.config);
  w.u64(key.opt_hash);
  w.i32(key.stage);
  w.i32(key.iter);
  w.u64(payload.size());
  w.u64(checksum(payload));
  file.append(payload);
  return util::publish_file(path, file);
}

std::optional<std::string> read_state_file(const std::string& path,
                                           const StateKey& key) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream contents(std::ios::binary);
  contents << is.rdbuf();
  std::string bytes = std::move(contents).str();

  BinReader r{bytes};
  M3D_CHECK_MSG(r.u64() == kMagic, path << ": not a flow-state file");
  M3D_CHECK_MSG(r.u32() == kStateVersion,
                path << ": flow-state version is not " << kStateVersion);
  const StateKey found{r.u64(), r.i32(), r.u64(), r.i32(), r.i32()};
  M3D_CHECK_MSG(found == key, path << ": flow state of another run");
  const std::uint64_t size = r.u64();
  const std::uint64_t sum = r.u64();
  // The size field is only ever compared, never allocated: the payload is
  // exactly the rest of the file, with nothing after it.
  M3D_CHECK_MSG(size == r.in.size(), path << ": payload size field says "
                                          << size << " bytes, file holds "
                                          << r.in.size());
  M3D_CHECK_MSG(checksum(r.in) == sum, path << ": payload checksum mismatch");
  bytes.erase(0, bytes.size() - r.in.size());
  return bytes;
}

void write_snapshot(BinWriter& w, const core::FlowResult& res) {
  const netlist::Design& d = res.design;
  write_netlist(w, d.nl());
  w.u64(exec::FlowCache::fingerprint(d.nl()));
  write_design_state(w, d);
  write_flow_stats(w, res);
  write_clock_report(w, res.clock);
}

core::FlowResult read_snapshot(BinReader& r, core::Config cfg,
                               const core::FlowOptions& opt) {
  netlist::Netlist nl = read_netlist(r);
  M3D_CHECK_MSG(exec::FlowCache::fingerprint(nl) == r.u64(),
                "flow state netlist does not replay to its fingerprint");
  nl.validate();
  core::FlowResult res(core::design_for_flow(nl, cfg, opt));
  read_design_state(r, res.design);
  read_flow_stats(r, res);
  read_clock_report(r, res.clock);
  return res;
}

void write_repart_result(BinWriter& w, const part::RepartitionResult& rr) {
  w.i32(rr.iterations);
  w.i32(rr.cells_moved);
  w.i32(rr.moves_undone);
  w.f64(rr.wns_before);
  w.f64(rr.wns_after);
  w.f64(rr.tns_before);
  w.f64(rr.tns_after);
  w.f64(rr.final_unbalance);
}

void read_repart_result(BinReader& r, part::RepartitionResult& rr) {
  rr.iterations = r.i32();
  rr.cells_moved = r.i32();
  rr.moves_undone = r.i32();
  rr.wns_before = r.f64();
  rr.wns_after = r.f64();
  rr.tns_before = r.f64();
  rr.tns_after = r.f64();
  rr.final_unbalance = r.f64();
}

}  // namespace m3d::io
