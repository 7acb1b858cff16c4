#pragma once
/// \file publish.hpp
/// \brief Crash-safe whole-file replacement, used for flow-cache entries,
///        checkpoints and the m3dd job journal: a reader sees the previous
///        complete file or the new one, never a torn one.

#include <string>
#include <string_view>

namespace m3d::util {

/// Replace `path` with `bytes`: write them to a temporary file beside
/// `path` (creating the directory if needed), flush and check the stream,
/// then rename the temporary over `path`. On any failure — the temporary
/// cannot be opened, a short write such as a full disk, or the rename
/// fails — the temporary is removed, `path` keeps its previous content, a
/// warning is logged and false is returned.
bool publish_file(const std::string& path, std::string_view bytes);

}  // namespace m3d::util
