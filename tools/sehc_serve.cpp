// The scheduling-service daemon: binds a Unix-domain socket and answers
// schedule requests until SIGTERM/SIGINT, then drains gracefully (finishes
// every admitted solve, writes its response, prints final counters).
//
//   sehc_serve --socket PATH [--threads T] [--queue N] [--cache N]
//              [--max-connections N] [--default-deadline-ms MS] [--quiet]
//
// Protocol, caching and admission semantics: src/serve/server.h and the
// README "Serving" section. Exit 0 after a clean drain.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>

#include "core/error.h"
#include "core/options.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

constexpr std::string_view kUsage =
    "usage: sehc_serve --socket PATH [--threads T] [--queue N]\n"
    "                  [--cache N] [--max-connections N]\n"
    "                  [--default-deadline-ms MS] [--quiet]\n";

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv,
                     {"socket", "threads", "queue", "cache",
                      "max-connections", "default-deadline-ms", "quiet"});
  if (!opts.has("socket")) throw UsageError("--socket PATH is required");
  const bool quiet = opts.has("quiet");

  ServeOptions so;
  so.socket_path = opts.get("socket", "");
  so.threads = static_cast<std::size_t>(opts.get_int("threads", 2));
  so.queue_capacity = static_cast<std::size_t>(opts.get_int("queue", 64));
  so.cache_capacity = static_cast<std::size_t>(opts.get_int("cache", 512));
  so.max_connections =
      static_cast<std::size_t>(opts.get_int("max-connections", 128));
  so.default_deadline_seconds =
      opts.get_double("default-deadline-ms", 0.0) / 1000.0;

  // Signal handling must be installed before threads spawn so every
  // thread inherits the disposition; the handler only flips a flag — the
  // main thread does the actual drain.
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  Server server(so);
  server.start();
  if (!quiet) {
    std::fprintf(stderr,
                 "sehc_serve: listening on %s (threads=%zu queue=%zu "
                 "cache=%zu)\n",
                 so.socket_path.c_str(), so.threads, so.queue_capacity,
                 so.cache_capacity);
  }

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (!quiet) std::fprintf(stderr, "sehc_serve: draining...\n");
  server.request_drain();
  server.join();

  const ServerStats s = server.stats_snapshot();
  std::fprintf(stderr,
               "sehc_serve: drained (requests=%llu completed=%llu "
               "shed=%llu errors=%llu timeouts=%llu protocol_errors=%llu "
               "cache_hits=%llu cache_misses=%llu coalesced=%llu "
               "queue_peak=%zu)\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.shed),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.timeouts),
               static_cast<unsigned long long>(s.protocol_errors),
               static_cast<unsigned long long>(s.cache_hits),
               static_cast<unsigned long long>(s.cache_misses),
               static_cast<unsigned long long>(s.coalesced),
               s.queue_peak);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run, kUsage);
}
