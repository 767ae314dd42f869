// Small file helpers: whole-file read/write, line splitting, and temp-dir
// management (tests and harnesses; the fabric itself writes no scratch
// files). All failures throw std::runtime_error naming the path.
#pragma once

#include <string>
#include <vector>

namespace hs {

/// Reads the whole file; throws std::runtime_error when it cannot be opened.
std::string ReadTextFile(const std::string& path);

/// Writes (truncates) the whole file; throws std::runtime_error on failure.
void WriteTextFile(const std::string& path, const std::string& content);

/// Splits `text` into lines ('\n'; a trailing newline does not produce an
/// empty final line).
std::vector<std::string> SplitLines(const std::string& text);

/// ReadTextFile + SplitLines.
std::vector<std::string> ReadLines(const std::string& path);

/// Creates a fresh, uniquely named directory under TMPDIR (default /tmp)
/// with the given name prefix and returns its path.
std::string MakeTempDir(const std::string& prefix);

/// Recursively removes `path` if it exists; errors are ignored (cleanup of
/// scratch space must never mask the real failure).
void RemoveTreeBestEffort(const std::string& path);

}  // namespace hs
