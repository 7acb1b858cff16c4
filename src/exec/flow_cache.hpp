#pragma once
/// \file flow_cache.hpp
/// \brief Keyed, thread-safe memoization of core::run_flow results.
///
/// Every headline sweep re-runs identical flows: the iso-performance
/// methodology runs a 12-track 2-D frequency search whose winning
/// candidate *is* the 2D-12T data point of the comparison tables, and the
/// ablations share their baseline run. The FlowCache turns those into
/// lookups.
///
/// Key: (netlist fingerprint, config, options hash) — a structural hash of
/// the full netlist (cells, nets, pins, connectivity, activities) plus a
/// field-wise hash of every FlowOptions knob, clock period included. Flows
/// are deterministic functions of exactly this tuple (see rng.hpp), so a
/// hit is semantically identical to a re-run.
///
/// Concurrency: get_or_run() is safe from any thread. Concurrent requests
/// for the *same* key are deduplicated — the first requester computes, the
/// others block on a shared future of the same entry. Distinct keys never
/// block each other.
///
/// Progress: an entry's owner runs the flow on its own thread, and inside
/// it waits only on chunks of its own parallel_for loops that have already
/// started (Pool::parallel_for never runs a foreign task), so an owner can
/// never be parked on another entry and every joiner's future resolves.
///
/// Eviction: LRU over completed entries, bounded by `capacity` entries
/// (default M3D_FLOW_CACHE_CAP or 64). In-flight entries are never
/// evicted. Results are handed out as shared_ptr<const FlowResult>, so an
/// evicted result stays alive for holders.
///
/// Disk tier: when M3D_FLOW_CACHE_DIR names a directory, every computed
/// flow is also persisted there (one file per key, published atomically)
/// and a memory miss first tries to load the keyed file — so sweeps
/// survive process restarts and parallel drivers share work. The file is
/// the io::flow_state snapshot of the finished flow in its checksummed
/// envelope; loading runs core::finalize on the restored design, so the
/// metrics match the original run exactly (flows are deterministic). A
/// file that fails any check is a miss: the flow reruns and rewrites it.
///
/// NOTE: flow_cache.cpp is compiled into m3d_core (it calls run_flow);
/// the header lives with the rest of the exec subsystem it belongs to.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/flow.hpp"
#include "exec/pool.hpp"

namespace m3d::exec {

struct FlowCacheStats {
  std::uint64_t hits = 0;        ///< served from a completed entry
  std::uint64_t joins = 0;       ///< attached to an in-flight computation
  std::uint64_t misses = 0;      ///< computed here
  std::uint64_t bypasses = 0;    ///< always 0; kept for existing readers
  std::uint64_t evictions = 0;
  std::uint64_t disk_hits = 0;   ///< deserialized from M3D_FLOW_CACHE_DIR
  std::uint64_t disk_writes = 0; ///< persisted to M3D_FLOW_CACHE_DIR
};

class FlowCache {
 public:
  using ResultPtr = std::shared_ptr<const core::FlowResult>;

  explicit FlowCache(std::size_t capacity = default_capacity());

  /// Return the memoized flow result for (nl, cfg, opt), running the flow
  /// on the calling thread on a miss. Exceptions from run_flow propagate
  /// to every waiter of that key; the entry is dropped so a later call
  /// retries.
  ResultPtr get_or_run(const netlist::Netlist& nl, core::Config cfg,
                       const core::FlowOptions& opt = {});

  /// Completed-entry lookup without computing; nullptr on miss/in-flight.
  ResultPtr lookup(const netlist::Netlist& nl, core::Config cfg,
                   const core::FlowOptions& opt = {}) const;

  void clear();
  std::size_t size() const;          ///< completed + in-flight entries
  std::size_t capacity() const { return capacity_; }

  /// Lock-free snapshot of the counters (relaxed atomic loads). Safe to
  /// poll from monitoring threads — the m3dd `stats` verb calls this per
  /// request — without contending the cache mutex that get_or_run holds.
  /// The fields are loaded independently, so the snapshot is coherent per
  /// counter, not across counters (a concurrent hit may be visible in
  /// `hits` before the entry's LRU bump lands).
  FlowCacheStats stats_snapshot() const;
  FlowCacheStats stats() const { return stats_snapshot(); }

  /// Process-wide cache used by core::find_max_frequency and the benches.
  static FlowCache& global();

  /// M3D_FLOW_CACHE_CAP if set and positive, else 64. A malformed value
  /// throws util::Error (util::env_int).
  static std::size_t default_capacity();

  /// M3D_FLOW_CACHE_DIR, or empty when disk persistence is disabled.
  static std::string disk_dir();

  /// Structural hash of a netlist: name, blocks, cells (function, drive,
  /// kind, block), nets (pins, driver, activity, clock flag) and pins.
  static std::uint64_t fingerprint(const netlist::Netlist& nl);

  /// Field-wise hash of every FlowOptions knob run_flow reads (including
  /// nested place / opt / partition / cts / sta options). Pool pointers
  /// and the fields run_flow overwrites before reading stay out. Keep in
  /// sync when adding fields to any of those structs.
  static std::uint64_t options_hash(const core::FlowOptions& opt);

 private:
  struct Key {
    std::uint64_t netlist_fp;
    int config;
    std::uint64_t opt_hash;
    bool operator<(const Key& o) const {
      if (netlist_fp != o.netlist_fp) return netlist_fp < o.netlist_fp;
      if (config != o.config) return config < o.config;
      return opt_hash < o.opt_hash;
    }
  };
  struct Entry {
    std::shared_future<ResultPtr> future;
    bool ready = false;            ///< future resolved successfully
    std::uint64_t last_used = 0;   ///< LRU stamp (completed entries)
  };

  void evict_locked();

  // Disk tier (flow_cache_disk.cpp). disk_load returns nullptr on a miss
  // or an invalid file; it needs `opt` to rebuild the Design (tier stack)
  // and to run core::finalize. disk_store returns whether a file landed.
  ResultPtr disk_load(const Key& key, core::Config cfg,
                      const core::FlowOptions& opt) const;
  bool disk_store(const Key& key, const core::FlowResult& res) const;

  /// Counters behind FlowCacheStats, kept as relaxed atomics so
  /// stats_snapshot() never takes mu_ (increments happen both under the
  /// lock and — disk_hits/disk_writes — outside it).
  struct AtomicStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> joins{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> disk_hits{0};
    std::atomic<std::uint64_t> disk_writes{0};
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::uint64_t use_counter_ = 0;
  AtomicStats stats_;
};

/// Execution context threaded through flow-level APIs: which pool to fan
/// out on and which cache to memoize in. Null members mean "use the
/// process-wide default" — resolve through the accessors.
struct Ctx {
  Pool* pool = nullptr;
  FlowCache* cache = nullptr;

  Pool& pool_or_global() const { return exec::pool_or_global(pool); }
  FlowCache& cache_or_global() const {
    return cache ? *cache : FlowCache::global();
  }
};

}  // namespace m3d::exec
