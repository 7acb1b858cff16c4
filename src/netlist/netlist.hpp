#pragma once
/// \file netlist.hpp
/// \brief Gate-level netlist data model: cells, pins, nets, RTL blocks.
///
/// The netlist is technology-*relative*: cells carry a logic function and a
/// drive strength, and are bound to a concrete LibCell through the library
/// of whichever tier they sit on (see design.hpp). That is exactly what
/// makes heterogeneous tier remapping (12-track → 9-track) a pure tier
/// reassignment instead of a netlist rewrite.
///
/// Storage layout (struct-of-arrays, arena-backed)
/// -----------------------------------------------
/// Cells and nets are not stored as objects. Every attribute lives in its
/// own parallel array indexed by id, names are interned into a chunked
/// character arena (SymbolTable), and connectivity is held directly in the
/// CSR form the traversal API exposes:
///
///  - A cell's pins are created together and contiguously at add_* time,
///    in the fixed order [non-clock inputs][clock?][outputs], so the
///    per-cell pin "lists" are just (offset, counts) into pin-id space —
///    `input_pins_of` / `output_pins_of` / `clock_pin` are O(1) arithmetic,
///    and there is no index to rebuild.
///  - A net's pin list is a (offset, count, capacity) run inside one shared
///    PinId arena. connect() grows a run by power-of-two reallocation at
///    the arena tail (dovecot-style bulk allocation: dead runs are
///    reclaimed only when the netlist itself is destroyed or copied).
///
/// `cell(c)` / `net(n)` return lightweight *value views* (Cell / Net) that
/// gather the column entries; existing `const Cell& cc = nl.cell(c)` call
/// sites keep compiling (lifetime extension). The views' string_views and
/// PinSpans point into the netlist's arenas: name storage is chunk-stable
/// (never moves), but a Net view's pin span is invalidated by a connect()
/// to any net — re-fetch views after mutating, as with the old AoS refs.
///
/// Field mutation goes through explicit setters (set_drive / set_fixed /
/// set_activity); everything else is builder-only, which is what keeps the
/// replayable-netlist serialization exact.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tech/lib_cell.hpp"
#include "util/check.hpp"

namespace m3d::netlist {

using CellId = int;
using NetId = int;
using PinId = int;
using BlockId = int;

inline constexpr int kInvalidId = -1;

/// What a cell *is* in the physical design.
enum class CellKind : std::uint8_t {
  Comb,       ///< combinational standard cell
  Seq,        ///< flip-flop
  Macro,      ///< hard macro (SRAM)
  PrimaryIn,  ///< chip input port (zero-area, fixed at the boundary)
  PrimaryOut, ///< chip output port
};

/// Pin direction as seen from the cell.
enum class PinDir : std::uint8_t { Input, Output };

/// A pin instance. Pins are the nodes of the timing graph. Pins are flat
/// POD and stay in one contiguous array (already the SoA-friendly shape),
/// so pin(p) still hands out a stable const reference.
struct Pin {
  CellId cell = kInvalidId;
  NetId net = kInvalidId;
  int index = 0;        ///< input index within the cell (arc selector)
  PinDir dir = PinDir::Input;
  bool is_clock = false;
};

/// Lightweight non-owning view over a contiguous run of pin ids (a row of
/// the Netlist's pin CSR). Iterable and indexable like a span.
struct PinSpan {
  const PinId* ptr = nullptr;
  std::size_t count = 0;

  const PinId* begin() const { return ptr; }
  const PinId* end() const { return ptr + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  PinId operator[](std::size_t i) const { return ptr[i]; }
  PinId front() const { return ptr[0]; }
  PinId back() const { return ptr[count - 1]; }

  friend bool operator==(const PinSpan& a, const PinSpan& b) {
    if (a.count != b.count) return false;
    for (std::size_t i = 0; i < a.count; ++i)
      if (a.ptr[i] != b.ptr[i]) return false;
    return true;
  }
  friend bool operator!=(const PinSpan& a, const PinSpan& b) {
    return !(a == b);
  }
};

/// Value view of one cell, gathered from the SoA columns. Cheap to build,
/// safe to bind to `const Cell&` (lifetime extension); do not hold across
/// netlist mutation.
struct Cell {
  std::string_view name;
  std::string_view macro_name;                ///< Macro only (else empty)
  PinSpan pins;
  CellKind kind = CellKind::Comb;
  tech::CellFunc func = tech::CellFunc::Inv;  ///< Comb/Seq only
  int drive = 1;                              ///< Comb/Seq only
  BlockId block = 0;
  bool fixed = false;   ///< immovable (macros after floorplanning, ports)

  bool is_macro() const { return kind == CellKind::Macro; }
  bool is_port() const {
    return kind == CellKind::PrimaryIn || kind == CellKind::PrimaryOut;
  }
  bool is_sequential() const { return kind == CellKind::Seq; }
  bool is_comb() const { return kind == CellKind::Comb; }
};

/// Value view of one signal or clock net. Same lifetime rules as Cell.
struct Net {
  std::string_view name;
  PinSpan pins;  ///< all connected pins; driver cached below
  PinId driver = kInvalidId;
  double activity = 0.1;  ///< output toggles per clock cycle (0..2)
  bool is_clock = false;
};

/// Flat interned-name table: append-only character arena in fixed-size
/// chunks. Chunk capacity is reserved up front and never exceeded, so the
/// characters never move — string_views into the table stay valid for the
/// table's lifetime. Copying the table copies the chunks; refs (chunk,
/// offset, length) stay valid across the copy.
class SymbolTable {
 public:
  struct Ref {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t chunk = 0;
  };

  Ref add(std::string_view s) {
    if (chunks_.empty() ||
        chunks_.back().size() + s.size() > chunks_.back().capacity())
      new_chunk(s.size());
    std::string& c = chunks_.back();
    Ref r{static_cast<std::uint32_t>(c.size()),
          static_cast<std::uint32_t>(s.size()),
          static_cast<std::uint32_t>(chunks_.size() - 1)};
    c.append(s.data(), s.size());
    return r;
  }

  std::string_view view(Ref r) const {
    return {chunks_[r.chunk].data() + r.off, r.len};
  }

  /// Total characters stored (diagnostics).
  std::size_t bytes() const {
    std::size_t n = 0;
    for (const std::string& c : chunks_) n += c.size();
    return n;
  }

 private:
  static constexpr std::size_t kChunkBytes = 1u << 16;

  void new_chunk(std::size_t need) {
    chunks_.emplace_back();
    chunks_.back().reserve(need > kChunkBytes ? need : kChunkBytes);
  }

  std::vector<std::string> chunks_;
};

/// Aggregate statistics used by reports and generators.
struct NetlistStats {
  int cells = 0;        ///< standard cells (comb + seq)
  int comb_cells = 0;
  int seq_cells = 0;
  int macros = 0;
  int ports = 0;
  int nets = 0;
  int pins = 0;
  double avg_fanout = 0.0;
};

/// The netlist container and builder.
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {
    blocks_.push_back(syms_.add("top"));
  }

  const std::string& name() const { return name_; }

  /// Pre-size every column and arena for a known design size. Generators
  /// call this once so construction never reallocates per cell. `pins` is
  /// the expected pin count; the net-pin arena reserves 2x that to cover
  /// power-of-two run growth without a mid-build reallocation.
  void reserve(int cells, int nets, int pins);

  // ---- blocks ----------------------------------------------------------
  /// Register (or look up) an RTL block tag. Block 0 is "top".
  BlockId add_block(std::string_view block_name);
  int block_count() const { return static_cast<int>(blocks_.size()); }
  std::string_view block_name(BlockId b) const;

  // ---- construction ----------------------------------------------------
  /// Add a combinational cell; creates input pins and one output pin.
  CellId add_comb(std::string_view name, tech::CellFunc func, int drive,
                  BlockId block = 0);

  /// Add a flip-flop; creates D (input 0), CLK (clock), Q (output).
  CellId add_dff(std::string_view name, int drive, BlockId block = 0);

  /// Add a macro with n_in input pins, n_out output pins and a clock pin.
  CellId add_macro(std::string_view name, std::string_view macro_name,
                   int n_in, int n_out, BlockId block = 0);

  /// Add a primary input port (single output pin driving into the chip).
  CellId add_input_port(std::string_view name);

  /// Add a primary output port (single input pin).
  CellId add_output_port(std::string_view name);

  /// Create an (initially empty) net.
  NetId add_net(std::string_view name, bool is_clock = false);

  /// Attach a pin to a net. Output pins become the net's driver (only one
  /// driver per net is allowed).
  void connect(NetId net, PinId pin);

  /// Detach a pin from its net (used by buffer insertion / ECO moves).
  void disconnect(PinId pin);

  /// Detach every pin in `pins` at once. Equivalent to calling
  /// disconnect() on each in order, but compacts each affected net's pin
  /// list in a single order-preserving pass — O(total fanout) instead of
  /// O(fanout²) when many pins leave one big net (CTS detaching every
  /// flop from the raw clock net). The resulting netlist state is
  /// bit-identical to the sequential calls.
  void disconnect_all(const std::vector<PinId>& pins);

  // ---- field mutation ---------------------------------------------------
  void set_drive(CellId c, int drive) { cell_drive_[check_cell(c)] = drive; }
  void set_fixed(CellId c, bool fixed) {
    cell_fixed_[check_cell(c)] = fixed ? 1 : 0;
  }
  void set_activity(NetId n, double activity) {
    net_activity_[check_net(n)] = activity;
  }

  // ---- pin helpers ------------------------------------------------------
  // A cell's pins are contiguous in pin-id space in the fixed order
  // [inputs][clock?][outputs], so all of these are O(1).

  /// Output pin of a cell (first output); checks existence.
  PinId output_pin(CellId c, int nth = 0) const {
    const std::size_t i = check_cell(c);
    const int base = cell_in_count_[i] + cell_has_clock_[i];
    M3D_CHECK_MSG(nth >= 0 && base + nth < cell_pin_cnt_[i],
                  "cell " << cell_name_view(c) << " has no output pin "
                          << nth);
    return cell_pin_off_[i] + base + nth;
  }
  /// nth input pin of a cell (excludes the clock pin).
  PinId input_pin(CellId c, int nth) const {
    const std::size_t i = check_cell(c);
    M3D_CHECK_MSG(nth >= 0 && nth < cell_in_count_[i],
                  "cell " << cell_name_view(c) << " has no input pin "
                          << nth);
    return cell_pin_off_[i] + nth;
  }
  /// Clock pin of a sequential/macro cell; kInvalidId otherwise.
  PinId clock_pin(CellId c) const {
    const std::size_t i = check_cell(c);
    if (!cell_has_clock_[i]) return kInvalidId;
    return cell_pin_off_[i] + cell_in_count_[i];
  }

  // ---- pin CSR -----------------------------------------------------------
  // The per-cell pin CSR *is* the storage — there is no cache and nothing
  // to rebuild, so reads are safe from any thread while the netlist is not
  // being mutated.

  /// Non-clock input pins of a cell, in pin order (no allocation).
  PinSpan input_pins_of(CellId c) const {
    const std::size_t i = check_cell(c);
    return {pin_iota_.data() + cell_pin_off_[i],
            static_cast<std::size_t>(cell_in_count_[i])};
  }
  /// Output pins of a cell, in pin order (no allocation).
  PinSpan output_pins_of(CellId c) const {
    const std::size_t i = check_cell(c);
    const int base = cell_in_count_[i] + cell_has_clock_[i];
    return {pin_iota_.data() + cell_pin_off_[i] + base,
            static_cast<std::size_t>(cell_pin_cnt_[i] - base)};
  }

  // ---- access -----------------------------------------------------------
  int cell_count() const { return static_cast<int>(cell_kind_.size()); }
  int net_count() const { return static_cast<int>(net_driver_.size()); }
  int pin_count() const { return static_cast<int>(pins_.size()); }

  /// Value view of a cell (see file comment for lifetime rules).
  Cell cell(CellId c) const {
    const std::size_t i = check_cell(c);
    Cell v;
    v.name = syms_.view(cell_name_[i]);
    if (cell_macro_[i] >= 0)
      v.macro_name =
          syms_.view(macro_names_[static_cast<std::size_t>(cell_macro_[i])]);
    v.pins = {pin_iota_.data() + cell_pin_off_[i],
              static_cast<std::size_t>(cell_pin_cnt_[i])};
    v.kind = cell_kind_[i];
    v.func = cell_func_[i];
    v.drive = cell_drive_[i];
    v.block = cell_block_[i];
    v.fixed = cell_fixed_[i] != 0;
    return v;
  }

  /// Value view of a net.
  Net net(NetId n) const {
    const std::size_t i = check_net(n);
    Net v;
    v.name = syms_.view(net_name_[i]);
    v.pins = {net_pin_arena_.data() + net_pin_off_[i],
              static_cast<std::size_t>(net_pin_cnt_[i])};
    v.driver = net_driver_[i];
    v.activity = net_activity_[i];
    v.is_clock = net_clock_[i] != 0;
    return v;
  }

  const Pin& pin(PinId p) const { return pins_[check_pin(p)]; }

  // Scalar column reads for hot loops that need one field, not a view.
  NetId pin_net(PinId p) const { return pins_[check_pin(p)].net; }
  PinId net_driver(NetId n) const { return net_driver_[check_net(n)]; }
  bool net_is_clock(NetId n) const { return net_clock_[check_net(n)] != 0; }
  double net_activity(NetId n) const { return net_activity_[check_net(n)]; }
  CellKind cell_kind(CellId c) const { return cell_kind_[check_cell(c)]; }
  bool cell_fixed(CellId c) const { return cell_fixed_[check_cell(c)] != 0; }

  /// Fanout (sink count) of a net.
  int fanout(NetId n) const {
    const std::size_t i = check_net(n);
    return net_pin_cnt_[i] - (net_driver_[i] != kInvalidId ? 1 : 0);
  }

  /// Sink pins of a net (everything but the driver), in net pin order:
  /// clears `out` and fills it. Hot loops reuse one buffer across nets.
  void sinks_into(NetId n, std::vector<PinId>& out) const;

  /// Visit every sink pin of a net in sinks_into() order without
  /// materializing a vector.
  template <typename F>
  void for_each_sink(NetId n, F&& f) const {
    const std::size_t i = check_net(n);
    const PinId* base = net_pin_arena_.data() + net_pin_off_[i];
    const PinId drv = net_driver_[i];
    const int cnt = net_pin_cnt_[i];
    for (int k = 0; k < cnt; ++k)
      if (base[k] != drv) f(base[k]);
  }

  /// Validate structural invariants: every net driven exactly once, every
  /// input pin connected, pin/cell cross-references consistent.
  /// Throws util::Error on violation.
  void validate() const;

  NetlistStats stats() const;

 private:
  std::size_t check_cell(CellId c) const {
    M3D_CHECK_MSG(c >= 0 && c < cell_count(), "bad cell id " << c);
    return static_cast<std::size_t>(c);
  }
  std::size_t check_net(NetId n) const {
    M3D_CHECK_MSG(n >= 0 && n < net_count(), "bad net id " << n);
    return static_cast<std::size_t>(n);
  }
  std::size_t check_pin(PinId p) const {
    M3D_CHECK_MSG(p >= 0 && p < pin_count(), "bad pin id " << p);
    return static_cast<std::size_t>(p);
  }

  std::string_view cell_name_view(CellId c) const {
    return syms_.view(cell_name_[static_cast<std::size_t>(c)]);
  }

  /// Append one cell's column entries (pins are added by the caller).
  CellId new_cell(std::string_view name, CellKind kind, tech::CellFunc func,
                  int drive, std::int32_t macro, BlockId block, bool fixed);

  void new_pin(CellId c, PinDir dir, int index, bool is_clock);

  /// Append `pin_id` to a net's arena run, growing the run at the arena
  /// tail (power-of-two capacities) when full.
  void net_push_pin(std::size_t n, PinId pin_id);

  std::string name_;
  SymbolTable syms_;

  // ---- cell columns (indexed by CellId) ----
  std::vector<SymbolTable::Ref> cell_name_;
  std::vector<CellKind> cell_kind_;
  std::vector<tech::CellFunc> cell_func_;
  std::vector<int> cell_drive_;
  std::vector<std::int32_t> cell_macro_;     ///< index into macro_names_, -1
  std::vector<BlockId> cell_block_;
  std::vector<std::uint8_t> cell_fixed_;
  std::vector<int> cell_pin_off_;            ///< first pin id
  std::vector<int> cell_pin_cnt_;            ///< total pins
  std::vector<int> cell_in_count_;           ///< non-clock inputs
  std::vector<std::uint8_t> cell_has_clock_;

  /// Interned macro type names (handful of distinct values, deduped).
  std::vector<SymbolTable::Ref> macro_names_;

  // ---- net columns (indexed by NetId) ----
  std::vector<SymbolTable::Ref> net_name_;
  std::vector<PinId> net_driver_;
  std::vector<double> net_activity_;
  std::vector<std::uint8_t> net_clock_;
  std::vector<int> net_pin_off_;  ///< run start in net_pin_arena_
  std::vector<int> net_pin_cnt_;
  std::vector<int> net_pin_cap_;
  std::vector<PinId> net_pin_arena_;

  // ---- pins (flat POD array; ids are dense) ----
  std::vector<Pin> pins_;
  /// Identity table (pin_iota_[i] == i): backing store for the per-cell
  /// pin spans, which are contiguous id ranges.
  std::vector<PinId> pin_iota_;

  std::vector<SymbolTable::Ref> blocks_;
};

}  // namespace m3d::netlist
