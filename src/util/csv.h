#pragma once

#include <string>

namespace cloudmedia::util {

/// Quote a CSV field per RFC 4180 when it contains a comma, quote or
/// newline (what the sweep outputs write); other fields pass through.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Create directory (and parents) if missing; returns true on success or if
/// it already existed.
bool ensure_directory(const std::string& path);

/// Create the parent directory of `file_path` (and its ancestors) if
/// missing. A bare filename has no parent and is a no-op. Throws
/// std::runtime_error naming the directory when it cannot be created —
/// e.g. a path component is an existing regular file.
void ensure_parent_directory(const std::string& file_path);

}  // namespace cloudmedia::util
