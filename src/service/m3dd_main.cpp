/// \file m3dd_main.cpp
/// \brief The m3dd daemon: flows as a service over a Unix-domain socket.
///
///   m3dd --socket /tmp/m3dd.sock --state-dir /tmp/m3dd [--listen 9333]
///
/// Signals: SIGTERM/SIGINT begin a graceful drain (in-flight flows stop at
/// their next checkpoint boundary with state flushed; queued + interrupted
/// jobs are journaled for the next daemon to resume), SIGHUP re-reads
/// --config. The handlers only poke a self-pipe — all real work happens on
/// the main thread.

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_pending_signal{0};

extern "C" void m3dd_signal_handler(int sig) {
  g_pending_signal.store(sig, std::memory_order_relaxed);
  const char b = static_cast<char>(sig);
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

const char* env_or(const char* name, const char* def) {
  const char* v = std::getenv(name);
  return v && *v ? v : def;
}

/// The whole of flag `flag`'s value `v` as an int; anything else exits 2.
int flag_int(const std::string& flag, const char* v) {
  try {
    return m3d::util::parse_token<int>(flag, v, v);
  } catch (const m3d::util::Error& e) {
    std::fprintf(stderr, "m3dd: %s\n", e.what());
    std::exit(2);
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: m3dd [options]\n"
      "  --socket PATH     Unix socket (default $M3D_SERVICE_SOCKET or\n"
      "                    /tmp/m3dd.sock)\n"
      "  --listen PORT     additionally listen on 127.0.0.1:PORT\n"
      "  --state-dir DIR   job journal + flow checkpoints (enables\n"
      "                    drain-and-resume; default: ephemeral)\n"
      "  --config FILE     key=value file re-read on SIGHUP\n"
      "  --executors N     concurrent flows (default 2)\n"
      "  --quiet           log warnings and errors only\n");
}

}  // namespace

int main(int argc, char** argv) {
  using m3d::service::Server;
  using m3d::service::ServerOptions;

  ServerOptions opt;
  opt.socket_path = env_or("M3D_SERVICE_SOCKET", "/tmp/m3dd.sock");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "m3dd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") opt.socket_path = value();
    else if (arg == "--listen") opt.tcp_port = flag_int(arg, value());
    else if (arg == "--state-dir") opt.state_dir = value();
    else if (arg == "--config") opt.config_file = value();
    else if (arg == "--executors") opt.executors = flag_int(arg, value());
    else if (arg == "--quiet")
      m3d::util::set_log_level(m3d::util::LogLevel::Warn);
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "m3dd: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("m3dd: pipe");
    return 1;
  }

  Server server(opt);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (!opt.config_file.empty()) server.reload_config();

  std::signal(SIGTERM, m3dd_signal_handler);
  std::signal(SIGINT, m3dd_signal_handler);
  std::signal(SIGHUP, m3dd_signal_handler);
  std::signal(SIGPIPE, SIG_IGN);

  // The main thread is the signal dispatcher; sessions/executors never
  // touch process-wide state.
  for (;;) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 500);
    if (rc > 0) {
      char buf[16];
      [[maybe_unused]] ssize_t n = ::read(g_signal_pipe[0], buf, sizeof buf);
      const int sig = g_pending_signal.exchange(0, std::memory_order_relaxed);
      if (sig == SIGHUP) {
        server.reload_config();
        continue;
      }
      if (sig == SIGTERM || sig == SIGINT) break;
    }
    if (server.draining()) break;  // a client sent the shutdown verb
  }

  server.begin_drain();
  server.wait_drained();
  return 0;
}
