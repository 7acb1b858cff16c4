#include "util/main.hpp"

#include <cstdio>
#include <string_view>

#include "util/check.hpp"

namespace m3d::util {

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    std::string_view program = argc > 0 && argv[0] != nullptr ? argv[0] : "";
    if (const auto slash = program.rfind('/'); slash != std::string_view::npos)
      program.remove_prefix(slash + 1);
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
                 program.data(), e.what());
    return 2;
  }
}

}  // namespace m3d::util
