// Artefact input and output shared by every command-line tool.
//
// Checking a std::ofstream only after opening it misses every later
// failure: a full disk or /dev/full accepts the open, loses the bytes on
// flush, and the tool exits 0 having written nothing. write_file writes,
// closes (which flushes) and only then checks the stream, so a lost write
// is reported; every tool turns a false return into exit code 2. Large
// line-oriented artefacts (asa-trace/1 JSONL) stream into the file through
// write_file_with instead of being built in memory first.
#pragma once

#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>

namespace asa_repro::cli {

/// Write `path`, replacing the file, by calling `fill` with the open
/// stream. Returns false, with a message on stderr, when the file cannot
/// be opened or written in full.
template <typename Fill>
bool write_file_with(const std::string& path, Fill&& fill) {
  std::ofstream out(path);
  fill(static_cast<std::ostream&>(out));
  out.close();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  return true;
}

/// Write `content` to `path`, replacing the file (see write_file_with).
inline bool write_file(const std::string& path, std::string_view content) {
  return write_file_with(path,
                         [content](std::ostream& out) { out << content; });
}

/// The whole of `path`, or nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace asa_repro::cli
