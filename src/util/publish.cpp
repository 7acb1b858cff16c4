#include "util/publish.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "util/log.hpp"

namespace m3d::util {

bool publish_file(const std::string& path, std::string_view bytes) {
  namespace fs = std::filesystem;
  // pid + per-process sequence: concurrent publishers of one path (two
  // processes sharing a cache directory, or two threads) never share a
  // temporary.
  static std::atomic<unsigned> seq{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  bool written = false;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    written = os.good();  // false when the open failed or a write fell short
  }
  if (written) {
    fs::rename(tmp, path, ec);
    if (!ec) return true;
  }
  log_warn("publish: cannot write ", path,
           written ? " (" + ec.message() + ")" : std::string(),
           ", keeping the previous file");
  fs::remove(tmp, ec);
  return false;
}

}  // namespace m3d::util
