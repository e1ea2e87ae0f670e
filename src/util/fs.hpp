// Filesystem helpers shared by every writer of result artifacts.
#pragma once

#include <filesystem>
#include <string_view>

namespace dsa::util {

/// Atomically replaces `path` with `contents`: writes `<path>.tmp`, flushes,
/// then renames over the target, so readers never see a torn or partial
/// file. Creates parent directories as needed. Throws std::runtime_error on
/// any I/O failure (with the path in the message). This is the one
/// write-then-rename implementation behind result CSVs, provenance
/// sidecars, bench JSON, and the obs trace/metrics files.
void atomic_write(const std::filesystem::path& path, std::string_view contents);

}  // namespace dsa::util
