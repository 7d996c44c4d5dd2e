#include "util/csv.h"

#include <filesystem>
#include <stdexcept>

namespace cloudmedia::util {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

bool ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec || std::filesystem::exists(path);
}

void ensure_parent_directory(const std::string& file_path) {
  const std::size_t slash = file_path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return;
  const std::string parent = file_path.substr(0, slash);
  if (!ensure_directory(parent)) {
    throw std::runtime_error("cannot create output directory '" + parent +
                             "' for '" + file_path +
                             "' (a path component may be an existing file)");
  }
}

}  // namespace cloudmedia::util
