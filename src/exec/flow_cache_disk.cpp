/// \file flow_cache_disk.cpp
/// \brief Disk tier of exec::FlowCache (see flow_cache.hpp).
///
/// One file per key, `<netlist-fp>-c<cfg>-<opt-hash>.m3dflow`: the
/// io::flow_state snapshot of the finished flow at stage flow::kStageCount,
/// in the envelope the checkpoint layer uses too. Loading replays it and
/// runs core::finalize, the analysis that ends run_flow; flows are
/// deterministic, so the result equals the original run's. Any validation
/// failure is a miss: a cache file can go stale, never wrong.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/checkpoint.hpp"
#include "exec/flow_cache.hpp"
#include "io/flow_state.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace m3d::exec {

namespace {

std::string entry_path(const std::string& dir, const io::StateKey& k) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx-c%d-%016llx.m3dflow",
                static_cast<unsigned long long>(k.netlist_fp), k.config,
                static_cast<unsigned long long>(k.opt_hash));
  return dir + "/" + buf;
}

}  // namespace

std::string FlowCache::disk_dir() {
  if (const char* s = std::getenv("M3D_FLOW_CACHE_DIR"))
    if (*s != '\0') return s;
  return {};
}

FlowCache::ResultPtr FlowCache::disk_load(
    const Key& key, core::Config cfg,
    const core::FlowOptions& opt) const {
  const std::string dir = disk_dir();
  if (dir.empty()) return nullptr;
  const io::StateKey skey{key.netlist_fp, key.config, key.opt_hash,
                          flow::kStageCount, 0};
  try {
    const auto payload = io::read_state_file(entry_path(dir, skey), skey);
    if (!payload) return nullptr;
    io::BinReader r{*payload};
    auto res = std::make_shared<core::FlowResult>(
        io::read_snapshot(r, cfg, opt));
    r.expect_end();
    core::finalize(*res, cfg, opt);
    util::trace_instant("flow_cache_disk_hit");
    return res;
  } catch (const util::Error& e) {
    util::log_warn("flow cache: discarding invalid disk entry (", e.what(),
                   ")");
    return nullptr;
  }
}

bool FlowCache::disk_store(const Key& key,
                           const core::FlowResult& res) const {
  const std::string dir = disk_dir();
  if (dir.empty()) return false;
  const io::StateKey skey{key.netlist_fp, key.config, key.opt_hash,
                          flow::kStageCount, 0};
  std::string payload;
  io::BinWriter w{payload};
  io::write_snapshot(w, res);
  if (!io::write_state_file(entry_path(dir, skey), skey, payload))
    return false;
  util::trace_instant("flow_cache_disk_write");
  return true;
}

}  // namespace m3d::exec
