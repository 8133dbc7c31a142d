// Minimal command-line / environment option handling for the example and
// bench executables.
//
// Supported syntax: --key=value, --key value, --flag. Unknown keys and
// malformed values raise UsageError so typos fail loudly, and --help raises
// one that asks for the usage text. run_driver is the drivers' shared
// main(): it turns those into usage output and exit codes 0 and 2.
// `scale_from_env` implements the SEHC_SCALE contract used by every figure
// bench: a multiplicative factor on iteration budgets so the whole suite can
// be shrunk for smoke runs or grown for full reproductions.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.h"

namespace sehc {

/// A command line the driver does not accept, or a request for --help.
/// Carries the accepted option keys, from which run_driver builds a usage
/// text when the driver has none of its own.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what,
                      std::vector<std::string> known = {}, bool help = false)
      : Error(what), known_(std::move(known)), help_(help) {}

  /// The --help request (not an error: run_driver exits 0).
  static UsageError help_request(std::vector<std::string> known = {}) {
    return UsageError("help requested", std::move(known), true);
  }

  const std::vector<std::string>& known() const { return known_; }
  bool help() const { return help_; }

 private:
  std::vector<std::string> known_;
  bool help_;
};

/// `text` as a T when std::from_chars consumes all of it: no leading
/// whitespace or '+', no trailing suffix ("10k", "1.5s"), and no sign at
/// all for an unsigned T. Every numeric command-line value parses by it.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

class Options {
 public:
  /// Parses argv; `known` lists the accepted keys (without leading dashes).
  /// --help is accepted unless listed, and throws UsageError::help_request.
  Options(int argc, const char* const* argv, std::vector<std::string> known);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t get_seed(const std::string& key, std::uint64_t fallback) const;

  /// Throws the UsageError for a malformed value of --key:
  /// "--key expects <expected>, got <value>".
  [[noreturn]] void reject(const std::string& key,
                           const std::string& expected) const;

 private:
  std::vector<std::string> known_;
  std::map<std::string, std::string> values_;
};

/// The shared main() of the command-line drivers. Returns body(argc, argv),
/// except that a UsageError for --help prints the usage on stdout and exits
/// 0, any other UsageError prints the error and the usage on stderr and
/// exits 2, and any other exception prints "<program>: <what>" on stderr and
/// exits 1. `usage` is the driver's usage text; when it is empty, the usage
/// lists the options the driver's Options accepts.
int run_driver(int argc, char** argv, int (*body)(int, char**),
               std::string_view usage = {});

/// Reads SEHC_SCALE (positive float, default 1.0). All figure benches
/// multiply their iteration / time budgets by this.
double scale_from_env();

/// Scales `base` by scale_from_env(), with a floor of `min_value`.
std::size_t scaled(std::size_t base, std::size_t min_value = 1);

}  // namespace sehc
