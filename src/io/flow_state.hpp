#pragma once
/// \file flow_state.hpp
/// \brief The one persisted flow-state format, a checksummed envelope
///        around a flow snapshot, in which the exec::FlowCache disk tier
///        stores finished flows and flow::Checkpoint stage boundaries.
///
/// Envelope (host-endian: local working state, not an interchange format):
/// magic "M3DSTATE" (bytes 0–7), format version (bytes 8–11), the
/// StateKey, the payload size and util::Hasher checksum, the payload, and
/// nothing after it. Files are published atomically (util::publish_file).
/// The reader compares the size field with the bytes actually left before
/// trusting it, so a damaged size never drives an allocation.
///
/// Snapshot (a cache entry's payload, the head of a checkpoint's): the
/// *replayable netlist* — cells in id order with their construction
/// arguments, then nets with their connection order, so replaying it
/// through the Netlist builders reproduces every id — and its
/// exec::FlowCache::fingerprint, the mutable Design state (floorplan,
/// clock binding, per-cell tier / position / clock latency), and the
/// per-stage result structs and ClockTreeReport of core::FlowResult.
/// Metrics are not stored; core::finalize recomputes them.
///
/// Every reader throws util::Error, and nothing else, on any damage; both
/// consumers turn that into "invalid, recompute" (a persisted file can go
/// stale, never wrong).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/flow.hpp"
#include "part/repartition.hpp"

namespace m3d::io {

/// Fixed-width primitive writer appending to a byte buffer.
struct BinWriter {
  std::string& out;
  template <typename T>
  void put(T v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void u64(std::uint64_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void u8(std::uint8_t v) { put(v); }
  void f64(double v) { put(v); }
  void str(std::string_view s);
};

/// Reader over a byte buffer; `in` holds the bytes not yet consumed. Every
/// read is bounds-checked against them and throws util::Error when they
/// run out.
struct BinReader {
  std::string_view in;
  void raw(void* p, std::size_t n);
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::int32_t i32() { std::int32_t v; raw(&v, sizeof v); return v; }
  std::uint8_t u8() { std::uint8_t v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }
  std::string str();
  /// Throws util::Error unless every byte was consumed.
  void expect_end() const;
};

/// Which flow state a file holds. Checkpoints use their boundary's stage
/// and iteration; flow-cache entries use stage flow::kStageCount, which no
/// boundary uses, and iteration 0.
struct StateKey {
  std::uint64_t netlist_fp = 0;
  int config = 0;
  std::uint64_t opt_hash = 0;
  int stage = 0;
  int iter = 0;
  bool operator==(const StateKey&) const = default;
};

/// Wrap `payload` in the envelope for `key` and publish it at `path`.
/// Returns whether the file landed (failures are logged by the publisher).
bool write_state_file(const std::string& path, const StateKey& key,
                      std::string_view payload);

/// The payload of the envelope at `path`; nullopt when no file can be
/// opened there. Throws util::Error when the file is not one intact
/// envelope for exactly `key`: wrong magic or version, another key, a size
/// field that disagrees with the bytes left, a checksum mismatch.
std::optional<std::string> read_state_file(const std::string& path,
                                           const StateKey& key);

/// Append the snapshot of `res` (see file comment).
void write_snapshot(BinWriter& w, const core::FlowResult& res);

/// Decode a snapshot into a FlowResult whose Design is rebuilt for `cfg`
/// and `opt.tiers` exactly as run_flow starts one. Throws util::Error on
/// truncation, a netlist that does not replay to the stored fingerprint,
/// or out-of-range design state.
core::FlowResult read_snapshot(BinReader& r, core::Config cfg,
                               const core::FlowOptions& opt);

/// part::RepartitionResult record (the checkpoint's ECO loop state
/// embeds one).
void write_repart_result(BinWriter& w, const part::RepartitionResult& rr);
void read_repart_result(BinReader& r, part::RepartitionResult& rr);

}  // namespace m3d::io
