#include "core/options.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "core/error.h"

namespace sehc {

namespace {

/// `text` as a T when std::from_chars consumes all of it: no leading
/// whitespace or '+', no trailing suffix ("10k", "1.5s"), and no sign at
/// all for an unsigned T.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

Options::Options(int argc, const char* const* argv,
                 std::vector<std::string> known)
    : known_(std::move(known)) {
  auto is_known = [&](const std::string& k) {
    return std::find(known_.begin(), known_.end(), k) != known_.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw UsageError("expected --key[=value], got " + arg, known_);
    }
    arg = arg.substr(2);
    std::string key, value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      // --key value form: consume the next token if it is not another option.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "1";  // bare flag
      }
    }
    if (!is_known(key)) {
      if (key == "help") throw UsageError::help_request(known_);
      throw UsageError("unknown option --" + key, known_);
    }
    values_[key] = value;
  }
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (const auto v = parse_whole<double>(it->second)) return *v;
  throw UsageError("--" + key + " expects a number, got " + it->second,
                   known_);
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (const auto v = parse_whole<std::int64_t>(it->second)) return *v;
  throw UsageError("--" + key + " expects an integer, got " + it->second,
                   known_);
}

std::uint64_t Options::get_seed(const std::string& key,
                                std::uint64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (const auto v = parse_whole<std::uint64_t>(it->second)) return *v;
  throw UsageError("--" + key + " expects a seed, got " + it->second,
                   known_);
}

int run_driver(int argc, char** argv, int (*body)(int, char**),
               std::string_view usage) {
  std::string program = argc > 0 ? argv[0] : "sehc";
  program = program.substr(program.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const UsageError& e) {
    std::string text(usage);
    if (text.empty()) {
      text = "usage: " + program + " [options]\n";
      if (!e.known().empty()) {
        text += "options:";
        for (const std::string& key : e.known()) text += " --" + key;
        text += '\n';
      }
    }
    if (e.help()) {
      std::cout << text;
      return 0;
    }
    std::cerr << program << ": " << e.what() << '\n' << text;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 1;
  }
}

double scale_from_env() {
  const char* env = std::getenv("SEHC_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  const auto v = parse_whole<double>(env);
  SEHC_CHECK(v.has_value(), "SEHC_SCALE is not a number");
  SEHC_CHECK(*v > 0.0, "SEHC_SCALE must be positive");
  return *v;
}

std::size_t scaled(std::size_t base, std::size_t min_value) {
  const double v = static_cast<double>(base) * scale_from_env();
  auto out = static_cast<std::size_t>(v);
  return std::max(out, min_value);
}

}  // namespace sehc
