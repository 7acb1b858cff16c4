#pragma once
/// \file main.hpp
/// \brief The one main() of the bench and example programs.

namespace m3d::util {

/// Runs body(argc, argv) and returns its status. A util::Error escaping
/// it (a malformed argument or M3D_* knob, a failed check) prints
/// "<program>: <message>" on stderr, <program> being argv[0]'s file name,
/// and returns 2, as m3dd and m3dctl do for a malformed flag. Other
/// exceptions still terminate the process.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace m3d::util
