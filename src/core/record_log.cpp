#include "core/record_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/error.h"

namespace sehc {

std::optional<LogLines> read_log(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  LogLines log;
  std::string::size_type pos = 0;
  for (auto nl = text.find('\n'); nl != std::string::npos;
       nl = text.find('\n', pos)) {
    log.lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  log.torn_tail = text.substr(pos);
  return log;
}

void replace_log(const std::string& path,
                 const std::vector<std::string>& lines) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    SEHC_CHECK(static_cast<bool>(os), "cannot write '" + tmp + "'");
    for (const std::string& line : lines) os << line << '\n';
    os.flush();
    SEHC_CHECK(static_cast<bool>(os), "write to '" + tmp + "' failed");
  }
  SEHC_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "rename '" + tmp + "' -> '" + path +
                 "' failed: " + std::strerror(errno));
}

LogWriter::LogWriter(std::string path)
    : path_(std::move(path)),
      out_(std::make_unique<std::ofstream>(path_,
                                           std::ios::binary | std::ios::app)) {
  SEHC_CHECK(static_cast<bool>(*out_),
             "cannot open '" + path_ + "' for appending");
}

void LogWriter::append(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) *out_ << line << '\n';
  out_->flush();
  SEHC_CHECK(static_cast<bool>(*out_), "write to '" + path_ + "' failed");
}

void LogWriter::tear(const std::string& line, std::size_t bytes) {
  const std::string text = line + '\n';
  out_->write(text.data(),
              static_cast<std::streamsize>(std::min(bytes, text.size())));
  out_->flush();
}

}  // namespace sehc
