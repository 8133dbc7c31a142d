// Append-through line logs: the one crash discipline under every campaign
// file (the result store, `<store>.metrics.csv` and `<store>.failed.csv`).
//
// A log is a text file of '\n'-terminated lines. LogWriter appends whole
// lines and flushes once per call, so a writer killed mid-append leaves at
// most one final line without its newline. read_log() sets that torn tail
// aside, so no reader ever parses it. Whole-file writes (a fresh header, a
// rewrite without the torn tail, a sorted final form) go through
// replace_log(): a temp file and a rename, so a crash mid-rewrite leaves
// either the old file or the new one, never a mix.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace sehc {

/// A log file's contents, split at its newlines.
struct LogLines {
  /// The complete ('\n'-terminated) lines, without their newlines.
  std::vector<std::string> lines;
  /// The final line when it has no '\n': what a writer killed mid-append
  /// left. Empty when the file ends on a line boundary.
  std::string torn_tail;
};

/// Reads `path`; nullopt when it cannot be opened (e.g. it does not exist).
std::optional<LogLines> read_log(const std::string& path);

/// Replaces `path` with `lines`, each followed by '\n': written and flushed
/// to `path + ".tmp"`, then renamed over `path`. Throws sehc::Error when a
/// step fails.
void replace_log(const std::string& path, const std::vector<std::string>& lines);

/// Appends lines to an existing log.
class LogWriter {
 public:
  /// Opens `path` for appending; throws sehc::Error when it cannot.
  explicit LogWriter(std::string path);

  /// Writes each line and its '\n', flushes once, and throws sehc::Error
  /// when the stream failed.
  void append(const std::vector<std::string>& lines);
  void append(const std::string& line) { append(std::vector{line}); }

  /// Writes the first `bytes` bytes of `line` and its '\n' (so `bytes` =
  /// line length + 1 persists the whole line) and flushes: the file a writer
  /// killed mid-append leaves behind. For crash-injection tests.
  void tear(const std::string& line, std::size_t bytes);

 private:
  std::string path_;
  std::unique_ptr<std::ostream> out_;
};

}  // namespace sehc
