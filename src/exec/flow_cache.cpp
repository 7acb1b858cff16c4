#include "exec/flow_cache.hpp"

#include <bit>
#include <cstdlib>

#include "util/check.hpp"
#include "util/trace.hpp"

namespace m3d::exec {

namespace {

/// Number of FlowCache computations live on this thread's call stack.
/// Non-zero means the thread is inside run_flow for some claimed entry
/// (possibly picked up while *helping* its pool) — such a thread must
/// never block on another in-flight entry (see the header's deadlock
/// note), so get_or_run consults this before joining.
thread_local int t_compute_depth = 0;

struct ComputeDepthGuard {
  ComputeDepthGuard() { ++t_compute_depth; }
  ~ComputeDepthGuard() { --t_compute_depth; }
};

/// FNV-1a-style 64-bit accumulator with a SplitMix64 finisher per word —
/// cheap, deterministic across platforms, and good enough for cache keys
/// (a collision needs two *different* 64-bit digests to collide, and keys
/// also separate by config and netlist fingerprint).
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;

  void mix(std::uint64_t v) {
    // splitmix64 round over (h ^ v).
    std::uint64_t z = h ^ v;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(unsigned v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(std::string_view s) {
    mix(static_cast<std::uint64_t>(s.size()));
    std::uint64_t word = 0;
    int n = 0;
    for (unsigned char c : s) {
      word = (word << 8) | c;
      if (++n == 8) {
        mix(word);
        word = 0;
        n = 0;
      }
    }
    if (n > 0) mix(word);
  }
};

void mix_corners(Hasher& h, const tech::CornerSpec& c) {
  h.mix(c.count);
  h.mix(c.derate[0]);
  h.mix(c.derate[1]);
  h.mix(c.sigma[0]);
  h.mix(c.sigma[1]);
  h.mix(c.seed);
}

void mix_sta(Hasher& h, const sta::StaOptions& o) {
  h.mix(o.input_slew_ns);
  h.mix(o.input_delay_ns);
  h.mix(o.output_margin_ns);
  h.mix(o.boundary_derates);
  h.mix(o.ideal_clock);
  h.mix(o.hold_analysis);
  h.mix(o.compensate_port_latency);
  mix_corners(h, o.corners);
}

void mix_fm(Hasher& h, const part::FmOptions& o) {
  h.mix(o.balance_tol);
  h.mix(o.max_passes);
  h.mix(o.bins);
  h.mix(o.seed);
  // Per-tier and cost-aware knobs. cost_model stays unmixed: it is a borrowed
  // pointer whose assumptions are mirrored in tier_process and the
  // flow-level TierSpecs, which are mixed.
  h.mix(o.cost_weight);
  h.mix(o.utilization);
  h.mix(static_cast<std::uint64_t>(o.tier_share.size()));
  for (double s : o.tier_share) h.mix(s);
  h.mix(static_cast<std::uint64_t>(o.tier_area_cap_um2.size()));
  for (double c : o.tier_area_cap_um2) h.mix(c);
  h.mix(static_cast<std::uint64_t>(o.tier_process.size()));
  for (const cost::TierProcess& p : o.tier_process) {
    h.mix(p.feol_fraction);
    h.mix(p.beol_fraction);
  }
}

}  // namespace

std::uint64_t FlowCache::fingerprint(const netlist::Netlist& nl) {
  Hasher h;
  h.mix(nl.name());
  h.mix(nl.block_count());
  for (netlist::BlockId b = 0; b < nl.block_count(); ++b)
    h.mix(nl.block_name(b));
  h.mix(nl.cell_count());
  for (netlist::CellId c = 0; c < nl.cell_count(); ++c) {
    const netlist::Cell& cell = nl.cell(c);
    h.mix(cell.name);
    h.mix(static_cast<int>(cell.kind));
    h.mix(static_cast<int>(cell.func));
    h.mix(cell.drive);
    h.mix(cell.macro_name);
    h.mix(cell.block);
    h.mix(cell.fixed);
    h.mix(static_cast<std::uint64_t>(cell.pins.size()));
  }
  h.mix(nl.net_count());
  for (netlist::NetId n = 0; n < nl.net_count(); ++n) {
    const netlist::Net& net = nl.net(n);
    h.mix(net.name);
    h.mix(net.driver);
    h.mix(net.activity);
    h.mix(net.is_clock);
    for (netlist::PinId p : net.pins) h.mix(p);
  }
  h.mix(nl.pin_count());
  for (netlist::PinId p = 0; p < nl.pin_count(); ++p) {
    const netlist::Pin& pin = nl.pin(p);
    h.mix(pin.cell);
    h.mix(static_cast<int>(pin.dir));
    h.mix(pin.index);
    h.mix(pin.is_clock);
    h.mix(pin.net);
  }
  return h.h;
}

std::uint64_t FlowCache::options_hash(const core::FlowOptions& o) {
  // Pool pointers (FlowOptions::pool and the nested place/fm/sta pools)
  // are deliberately NOT mixed: flow results are byte-identical for any
  // pool size, so two runs differing only in worker pool share one entry.
  Hasher h;
  h.mix(o.clock_period_ns);
  h.mix(o.utilization);
  // place
  h.mix(o.place.utilization);
  h.mix(o.place.aspect);
  h.mix(o.place.relax_iters);
  h.mix(o.place.spread_iters);
  h.mix(o.place.grid);
  h.mix(o.place.seed);
  // opt
  h.mix(o.opt.max_sizing_rounds);
  h.mix(o.opt.power_recovery_rounds);
  h.mix(o.opt.target_slack_ns);
  h.mix(o.opt.recovery_slack_frac);
  h.mix(o.opt.max_fanout);
  h.mix(o.opt.buffer_drive);
  h.mix(o.opt.max_wire_um);
  h.mix(o.opt.max_transition_fo4);
  mix_sta(h, o.opt.sta);
  h.mix(o.opt.routed);
  // partitioning
  h.mix(o.timing_part.area_cap);
  mix_fm(h, o.timing_part.fm);
  mix_fm(h, o.fm);
  // repartitioning ECO
  h.mix(o.repart.unbalance_th);
  h.mix(o.repart.d0);
  h.mix(o.repart.n_paths);
  h.mix(o.repart.crit_th);
  h.mix(o.repart.alpha);
  h.mix(o.repart.wns_th);
  h.mix(o.repart.tns_th);
  h.mix(o.repart.max_iters);
  mix_sta(h, o.repart.sta);
  // cts
  h.mix(o.cts.max_sinks_per_buffer);
  h.mix(o.cts.leaf_drive);
  h.mix(o.cts.trunk_drive);
  h.mix(static_cast<int>(o.cts.mode));
  h.mix(o.cts.prefer_low_power_trunk);
  h.mix(o.cts.balance_skew);
  h.mix(o.cts.max_pad_buffers);
  // hetero enhancements
  h.mix(o.enable_timing_partition);
  h.mix(o.enable_repartition);
  h.mix(o.enable_cover_cts);
  h.mix(o.path_based_criticality);
  h.mix(o.path_based_paths);
  // multi-corner signoff spec — a corner sweep changes the ECO's accept
  // decisions and the signoff metrics, so different specs must not share
  // a cached flow.
  mix_corners(h, o.sta_corners);
  // explicit tier stack + cost-aware partition weight
  h.mix(o.part_cost_weight);
  h.mix(static_cast<std::uint64_t>(o.tiers.size()));
  for (const core::TierSpec& t : o.tiers) {
    h.mix(t.tech);
    h.mix(t.vdd_scale);
    h.mix(t.area_cap_um2);
    h.mix(t.process.feol_fraction);
    h.mix(t.process.beol_fraction);
  }
  return h.h;
}

std::size_t FlowCache::default_capacity() {
  if (const char* s = std::getenv("M3D_FLOW_CACHE_CAP")) {
    const long n = std::atol(s);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 64;
}

FlowCache::FlowCache(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

FlowCache& FlowCache::global() {
  static FlowCache cache;
  return cache;
}

FlowCache::ResultPtr FlowCache::get_or_run(const netlist::Netlist& nl,
                                           core::Config cfg,
                                           const core::FlowOptions& opt) {
  const Key key{fingerprint(nl), static_cast<int>(cfg), options_hash(opt)};

  std::promise<ResultPtr> promise;
  std::shared_future<ResultPtr> existing;
  bool bypass = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.ready) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        it->second.last_used = ++use_counter_;
        util::trace_instant("flow_cache_hit");
        existing = it->second.future;
      } else if (t_compute_depth == 0) {
        stats_.joins.fetch_add(1, std::memory_order_relaxed);
        util::trace_instant("flow_cache_join");
        existing = it->second.future;
      } else {
        // This thread is already computing an entry (it got here by
        // helping its pool mid-run_flow). Joining could wait on itself —
        // the in-flight owner may be this very thread lower in the same
        // stack, or another owner symmetrically waiting on us. Compute
        // uncached instead; determinism makes the result identical.
        stats_.bypasses.fetch_add(1, std::memory_order_relaxed);
        util::trace_instant("flow_cache_bypass");
        bypass = true;
      }
    } else {
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      util::trace_instant("flow_cache_miss");
      Entry entry;
      entry.future = promise.get_future().share();
      entries_.emplace(key, std::move(entry));
    }
  }
  // Ready entries return immediately; in-flight ones block until the
  // computing thread resolves the promise (flows are coarse enough that
  // parking this thread is fine — other workers keep the pool busy, and
  // owners never block here, so every in-flight entry resolves).
  if (existing.valid()) return existing.get();

  if (bypass) {
    ResultPtr result = disk_load(key, cfg, opt);
    if (result) return result;
    return std::make_shared<core::FlowResult>(core::run_flow(nl, cfg, opt));
  }

  // Compute outside the lock; concurrent same-key requesters join on the
  // shared future. The disk tier is consulted first: a persisted entry
  // from an earlier process deserializes in a fraction of a flow run.
  try {
    ComputeDepthGuard nested;
    ResultPtr result = disk_load(key, cfg, opt);
    const bool from_disk = result != nullptr;
    bool wrote_disk = false;
    if (!result) {
      result =
          std::make_shared<core::FlowResult>(core::run_flow(nl, cfg, opt));
      wrote_disk = disk_store(key, *result);
    }
    promise.set_value(result);
    if (from_disk) stats_.disk_hits.fetch_add(1, std::memory_order_relaxed);
    if (wrote_disk) stats_.disk_writes.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.ready = true;
      it->second.last_used = ++use_counter_;
    }
    evict_locked();
    util::trace_counter(
        "flow_cache_entries", static_cast<double>(entries_.size()));
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(key);
    throw;
  }
}

FlowCache::ResultPtr FlowCache::lookup(const netlist::Netlist& nl,
                                       core::Config cfg,
                                       const core::FlowOptions& opt) const {
  const Key key{fingerprint(nl), static_cast<int>(cfg), options_hash(opt)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.ready) return nullptr;
  return it->second.future.get();
}

void FlowCache::evict_locked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready) continue;  // never evict in-flight entries
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == entries_.end()) return;  // everything in flight
    entries_.erase(victim);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void FlowCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // In-flight computations keep their shared state alive through their
  // own promise/future pair; dropping entries is safe.
  entries_.clear();
}

std::size_t FlowCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

FlowCacheStats FlowCache::stats_snapshot() const {
  FlowCacheStats s;
  s.hits = stats_.hits.load(std::memory_order_relaxed);
  s.joins = stats_.joins.load(std::memory_order_relaxed);
  s.misses = stats_.misses.load(std::memory_order_relaxed);
  s.bypasses = stats_.bypasses.load(std::memory_order_relaxed);
  s.evictions = stats_.evictions.load(std::memory_order_relaxed);
  s.disk_hits = stats_.disk_hits.load(std::memory_order_relaxed);
  s.disk_writes = stats_.disk_writes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace m3d::exec
