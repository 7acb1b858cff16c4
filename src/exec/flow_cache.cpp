#include "exec/flow_cache.hpp"

#include "util/check.hpp"
#include "util/env.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace m3d::exec {

std::uint64_t FlowCache::fingerprint(const netlist::Netlist& nl) {
  util::Hasher h;
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

std::size_t FlowCache::default_capacity() {
  if (const auto n = util::env_int("M3D_FLOW_CACHE_CAP"); n && *n > 0)
    return static_cast<std::size_t>(*n);
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
  const Key key{fingerprint(nl), static_cast<int>(cfg), core::options_hash(opt)};

  std::promise<ResultPtr> promise;
  std::shared_future<ResultPtr> existing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.ready) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        it->second.last_used = ++use_counter_;
        util::trace_instant("flow_cache_hit");
        existing = it->second.future;
      } else {
        stats_.joins.fetch_add(1, std::memory_order_relaxed);
        util::trace_instant("flow_cache_join");
        existing = it->second.future;
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
  // an owner waits only on chunks of its own loops, so every in-flight
  // entry resolves).
  if (existing.valid()) return existing.get();

  // Compute outside the lock; concurrent same-key requesters join on the
  // shared future. The disk tier is consulted first: a persisted entry
  // from an earlier process deserializes in a fraction of a flow run.
  try {
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
  const Key key{fingerprint(nl), static_cast<int>(cfg), core::options_hash(opt)};
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

FlowCacheStats FlowCache::stats() const {
  FlowCacheStats s;
  s.hits = stats_.hits.load(std::memory_order_relaxed);
  s.joins = stats_.joins.load(std::memory_order_relaxed);
  s.misses = stats_.misses.load(std::memory_order_relaxed);
  s.evictions = stats_.evictions.load(std::memory_order_relaxed);
  s.disk_hits = stats_.disk_hits.load(std::memory_order_relaxed);
  s.disk_writes = stats_.disk_writes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace m3d::exec
