// Artefact output shared by every command-line tool.
//
// Checking a std::ofstream only after opening it misses every later
// failure: a full disk or /dev/full accepts the open, loses the bytes on
// flush, and the tool exits 0 having written nothing. write_file writes,
// closes (which flushes) and only then checks the stream, so a lost write
// is reported; every tool turns a false return into exit code 2.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

namespace asa_repro::cli {

/// Write `content` to `path`, replacing the file. Returns false, with a
/// message on stderr, when the file cannot be opened or written in full.
inline bool write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path);
  out << content;
  out.close();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace asa_repro::cli
