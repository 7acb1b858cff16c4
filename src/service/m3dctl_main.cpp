/// \file m3dctl_main.cpp
/// \brief m3dd's client: single-verb commands, a local `direct` runner for
///        digest cross-checks, and a multi-client load generator.
///
///   m3dctl [--socket PATH | --port N] <command> [options]
///
///   ping | stats | shutdown
///   submit  [spec flags]             → prints the job id
///   status  <id> | result <id> | cancel <id>
///   run     [spec flags]             → submit, wait, print digest line
///   direct  [spec flags]             → run_flow locally, same digest line
///   bench   --clients N --requests M [--distinct K] [spec flags]
///           → drives N concurrent connections, honors backpressure,
///             writes bench_artifacts/BENCH_service.json (with the
///             client host's core count as `nproc`)
///
/// Spec flags: --design aes|ldpc|netcard|cpu  --scale F  --seed N
///             --config 2d9t|2d12t|3d9t|3d12t|hetero3d  --period F
///             --rounds N  --eco N
///
/// `run` and `direct` print identical "digest <label> <hex>" lines for
/// identical specs — that equality IS the service's correctness claim
/// (daemon result == local run_flow), and the CI smoke job asserts it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace {

using m3d::service::Client;
using m3d::service::JobSpec;
using m3d::service::Json;

struct Args {
  std::string socket = "/tmp/m3dd.sock";
  int port = 0;
  std::string cmd;
  std::string id;
  JobSpec spec;
  int clients = 4;
  int requests = 8;
  int distinct = 4;  ///< bench cycles through this many distinct seeds
  int timeout_ms = 600000;
  std::string out = "bench_artifacts/BENCH_service.json";
};

[[noreturn]] void usage_exit() {
  std::fprintf(stderr,
               "usage: m3dctl [--socket PATH | --port N] <command>\n"
               "commands: ping stats shutdown submit status result cancel\n"
               "          run direct bench (see file header for flags)\n");
  std::exit(2);
}

/// The whole of flag `flag`'s value `v` as a T; anything else exits 2.
template <typename T>
T flag_number(const std::string& flag, const char* v) {
  try {
    return m3d::util::parse_token<T>(flag, v, v);
  } catch (const m3d::util::Error& e) {
    std::fprintf(stderr, "m3dctl: %s\n", e.what());
    std::exit(2);
  }
}

Client connect(const Args& a) {
  return a.port > 0 ? Client::connect_tcp(a.port)
                    : Client::connect_unix(a.socket);
}

bool parse_args(int argc, char** argv, Args* a) {
  const char* env_sock = std::getenv("M3D_SERVICE_SOCKET");
  if (env_sock && *env_sock) a->socket = env_sock;
  int i = 1;
  auto value = [&]() -> const char* {
    if (i + 1 >= argc) usage_exit();
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_value = [&] { return flag_number<int>(arg, value()); };
    auto real_value = [&] { return flag_number<double>(arg, value()); };
    if (arg == "--socket") a->socket = value();
    else if (arg == "--port") a->port = int_value();
    else if (arg == "--design") a->spec.design = value();
    else if (arg == "--scale") a->spec.scale = real_value();
    else if (arg == "--seed") a->spec.seed = int_value();
    else if (arg == "--config") {
      if (!m3d::service::parse_config(value(), &a->spec.config)) return false;
    } else if (arg == "--period") a->spec.period_ns = real_value();
    else if (arg == "--rounds") a->spec.max_sizing_rounds = int_value();
    else if (arg == "--eco") a->spec.eco_iters = int_value();
    else if (arg == "--clients") a->clients = int_value();
    else if (arg == "--requests") a->requests = int_value();
    else if (arg == "--distinct") a->distinct = int_value();
    else if (arg == "--timeout-ms") a->timeout_ms = int_value();
    else if (arg == "--out") a->out = value();
    else if (arg == "--help" || arg == "-h") usage_exit();
    else if (!arg.empty() && arg[0] == '-') usage_exit();
    else if (a->cmd.empty()) a->cmd = arg;
    else if (a->id.empty()) a->id = arg;
    else usage_exit();
  }
  return !a->cmd.empty();
}

int print_response(const Json& resp) {
  std::printf("%s\n", resp.dump(2).c_str());
  return resp.bool_or("ok", false) ? 0 : 1;
}

/// The digest line both `run` and `direct` print — one comparable record.
void print_digest_line(const JobSpec& spec, const std::string& digest) {
  std::printf("digest %s %s\n", spec.label().c_str(), digest.c_str());
}

int cmd_run(const Args& a) {
  Client c = connect(a);
  const Json resp = c.submit_and_wait(a.spec);
  const std::string state = resp.str_or("state", "?");
  if (state != "done") {
    std::fprintf(stderr, "m3dctl: job ended %s: %s\n", state.c_str(),
                 resp.dump().c_str());
    return 1;
  }
  print_digest_line(a.spec, resp.str_or("digest", ""));
  std::fprintf(stderr, "cache_hit=%d queued_ms=%.1f run_ms=%.1f\n",
               resp.bool_or("cache_hit", false) ? 1 : 0,
               resp.num_or("queued_ms", 0), resp.num_or("run_ms", 0));
  return 0;
}

int cmd_direct(const Args& a) {
  const m3d::netlist::Netlist nl = a.spec.make_netlist();
  const m3d::core::FlowResult res =
      m3d::core::run_flow(nl, a.spec.config, a.spec.flow_options());
  print_digest_line(a.spec, m3d::service::result_digest(res));
  return 0;
}

// ---- bench ---------------------------------------------------------------

struct BenchSample {
  double latency_ms = 0;
  double queued_ms = 0;
  double run_ms = 0;
  bool done = false;
  bool cache_hit = false;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * (static_cast<double>(v.size()) - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

int cmd_bench(const Args& a) {
  using Clock = std::chrono::steady_clock;
  const int n_clients = std::max(a.clients, 1);
  const int n_requests = std::max(a.requests, 1);
  const int n_distinct = std::max(a.distinct, 1);

  std::mutex mu;
  std::vector<BenchSample> samples;
  std::atomic<int> rejections{0};
  std::atomic<int> errors{0};

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_clients));
  for (int ci = 0; ci < n_clients; ++ci) {
    threads.emplace_back([&, ci] {
      try {
        Client c = connect(a);
        for (int ri = 0; ri < n_requests; ++ri) {
          JobSpec spec = a.spec;
          // Cycle a small distinct-spec set: later laps re-request specs
          // the shared FlowCache has already computed — the warm-hit path
          // the bench is measuring.
          spec.seed = a.spec.seed + (ci * n_requests + ri) % n_distinct;
          const auto s0 = Clock::now();
          int rej = 0;
          const Json resp = c.submit_and_wait(spec, &rej);
          rejections.fetch_add(rej);
          BenchSample smp;
          smp.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - s0)
                  .count();
          smp.done = resp.str_or("state", "") == "done";
          smp.cache_hit = resp.bool_or("cache_hit", false);
          smp.queued_ms = resp.num_or("queued_ms", 0);
          smp.run_ms = resp.num_or("run_ms", 0);
          if (!smp.done) errors.fetch_add(1);
          std::lock_guard<std::mutex> lock(mu);
          samples.push_back(smp);
        }
      } catch (const std::exception& e) {
        errors.fetch_add(1);
        std::fprintf(stderr, "bench client %d: %s\n", ci, e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> lat;
  double lat_sum = 0, queued_sum = 0, run_sum = 0;
  int done = 0, hits = 0;
  for (const BenchSample& s : samples) {
    lat.push_back(s.latency_ms);
    lat_sum += s.latency_ms;
    queued_sum += s.queued_ms;
    run_sum += s.run_ms;
    if (s.done) ++done;
    if (s.cache_hit) ++hits;
  }
  const double n = std::max<double>(1.0, static_cast<double>(samples.size()));

  Json j = Json::object();
  j["bench"] = Json("service");
  j["nproc"] = Json(static_cast<int>(std::thread::hardware_concurrency()));
  j["clients"] = Json(n_clients);
  j["requests_per_client"] = Json(n_requests);
  j["distinct_specs"] = Json(n_distinct);
  j["spec"] = a.spec.to_json();
  j["wall_s"] = Json(wall_s);
  j["throughput_jobs_per_s"] =
      Json(static_cast<double>(done) / std::max(wall_s, 1e-9));
  Json l = Json::object();
  l["mean"] = Json(lat_sum / n);
  l["p50"] = Json(percentile(lat, 0.50));
  l["p90"] = Json(percentile(lat, 0.90));
  l["p99"] = Json(percentile(lat, 0.99));
  l["max"] = Json(lat.empty() ? 0.0 : *std::max_element(lat.begin(),
                                                        lat.end()));
  j["latency_ms"] = std::move(l);
  j["queued_ms_mean"] = Json(queued_sum / n);
  j["run_ms_mean"] = Json(run_sum / n);
  j["jobs_done"] = Json(done);
  j["jobs_failed_or_errored"] = Json(errors.load());
  j["client_cache_hits"] = Json(hits);
  j["client_hit_rate"] = Json(static_cast<double>(hits) / n);
  j["rejections_absorbed"] = Json(rejections.load());
  try {
    Client c = connect(a);
    j["daemon"] = c.stats();
  } catch (const std::exception&) {
    // Daemon may already be draining; the client-side numbers stand alone.
  }

  const std::filesystem::path out(a.out);
  if (out.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(out.parent_path(), ec);
  }
  std::ofstream os(out);
  os << j.dump(2) << "\n";
  std::printf("%s\n", j.dump(2).c_str());
  std::fprintf(stderr, "bench: wrote %s\n", a.out.c_str());
  return errors.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) usage_exit();
  try {
    if (a.cmd == "ping") return print_response(connect(a).ping());
    if (a.cmd == "stats") return print_response(connect(a).stats());
    if (a.cmd == "shutdown") return print_response(connect(a).shutdown());
    if (a.cmd == "submit") {
      Client c = connect(a);
      std::printf("%s\n", c.submit(a.spec).c_str());
      return 0;
    }
    if (a.cmd == "status" || a.cmd == "result" || a.cmd == "cancel") {
      if (a.id.empty()) usage_exit();
      Client c = connect(a);
      Json req = Json::object();
      req["cmd"] = Json(a.cmd);
      req["id"] = Json(a.id);
      if (a.cmd == "result") req["timeout_ms"] = Json(a.timeout_ms);
      return print_response(c.request(req));
    }
    if (a.cmd == "run") return cmd_run(a);
    if (a.cmd == "direct") return cmd_direct(a);
    if (a.cmd == "bench") return cmd_bench(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  usage_exit();
}
