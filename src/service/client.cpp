#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

namespace m3d::service {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), rdbuf_(std::move(other.rdbuf_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rdbuf_ = std::move(other.rdbuf_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rdbuf_.clear();
}

Client Client::connect_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("m3dctl: socket path too long: " + socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("m3dctl: socket(AF_UNIX) failed");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    throw std::runtime_error("m3dctl: cannot connect to " + socket_path +
                             ": " + std::strerror(e));
  }
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("m3dctl: socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    throw std::runtime_error("m3dctl: cannot connect to 127.0.0.1:" +
                             std::to_string(port) + ": " + std::strerror(e));
  }
  return Client(fd);
}

Json Client::request(const Json& req) {
  if (fd_ < 0) throw std::runtime_error("m3dctl: not connected");
  const std::string line = req.dump() + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("m3dctl: send failed (daemon gone?)");
    }
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = rdbuf_.find('\n');
    if (nl != std::string::npos) {
      const std::string reply = rdbuf_.substr(0, nl);
      rdbuf_.erase(0, nl + 1);
      Json resp;
      std::string err;
      if (!Json::parse(reply, &resp, &err))
        throw std::runtime_error("m3dctl: malformed reply: " + err);
      return resp;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw std::runtime_error("m3dctl: connection closed by daemon");
    rdbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Json Client::request_cmd(const char* cmd) {
  Json req = Json::object();
  req["cmd"] = Json(std::string(cmd));
  return request(req);
}

std::string Client::submit(const JobSpec& spec, int max_retries,
                           int* rejections) {
  Json req = spec.to_json();
  req["cmd"] = Json("submit");
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    const Json resp = request(req);
    if (resp.bool_or("ok", false)) return resp.str_or("id", "");
    const std::string err = resp.str_or("error", "");
    if (err == "queue_full" || err == "client_limit") {
      if (rejections) ++*rejections;
      int wait = 100;
      std::string bad;
      if (!resp.int_field("retry_after_ms", 0,
                          std::numeric_limits<int>::max(), &wait, &bad))
        throw std::runtime_error("m3dctl: daemon reply: " + bad);
      wait = std::max(wait, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      continue;
    }
    throw std::runtime_error("m3dctl: submit rejected: " +
                             (err.empty() ? resp.dump() : err));
  }
  throw std::runtime_error("m3dctl: submit retry budget exhausted");
}

Json Client::wait_result(const std::string& id, int timeout_ms) {
  Json req = Json::object();
  req["cmd"] = Json("result");
  req["id"] = Json(id);
  req["timeout_ms"] = Json(timeout_ms);
  return request(req);
}

Json Client::submit_and_wait(const JobSpec& spec, int* rejections) {
  return wait_result(submit(spec, 1000, rejections));
}

}  // namespace m3d::service
