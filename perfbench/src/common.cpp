#include "common.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/content_hash.h"
#include "sched/bounds.h"
#include "sched/simd.h"
#include "sched/validate.h"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();

/// Relative slack for the lower-bound check: the work bound divides a sum
/// accumulated in another order than the schedule's, so the two may differ
/// in the last bits.
constexpr double kBoundSlack = 1e-9;
}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point process_start() { return kProcessStart; }

void Report::fail(std::size_t op, const std::string& why) {
  failed_.insert(op);
  if (notes_.size() < 8) notes_.push_back("op " + std::to_string(op) + ": " + why);
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::meta(const std::string& key, std::string json) {
  meta_.emplace_back(key, std::move(json));
}

Tail tail_latency(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= 10) {
    tail.value = samples.back();
    return tail;
  }
  // Nearest rank r = ceil(p n / 100) leaves n - r samples beyond; the
  // largest whole p with r <= n - 10.
  tail.percentile = static_cast<int>(100 * (n - 10) / n);
  const std::size_t rank = (static_cast<std::size_t>(tail.percentile) * n + 99) / 100;
  tail.value = samples[std::max<std::size_t>(rank, 1) - 1];
  tail.beyond = n - std::max<std::size_t>(rank, 1);
  return tail;
}

std::string bits_digest(const std::vector<double>& values) {
  const std::uint64_t h = sehc::content_hash64(std::string_view(
      reinterpret_cast<const char*>(values.data()), values.size() * sizeof(double)));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string inputs_digest(const std::vector<const sehc::Workload*>& instances) {
  std::vector<double> values;
  for (const sehc::Workload* w : instances) {
    values.push_back(static_cast<double>(w->num_tasks()));
    values.push_back(static_cast<double>(w->num_machines()));
    values.push_back(static_cast<double>(w->num_items()));
    for (sehc::MachineId m = 0; m < w->num_machines(); ++m) {
      for (sehc::TaskId t = 0; t < w->num_tasks(); ++t) values.push_back(w->exec(m, t));
    }
  }
  return bits_digest(values);
}

std::string check_schedule(const sehc::Workload& w, const sehc::Schedule& s,
                           double reported) {
  const auto violations = sehc::validate_schedule(w, s);
  if (!violations.empty()) return "invalid schedule: " + violations.front();
  if (std::bit_cast<std::uint64_t>(s.makespan) !=
      std::bit_cast<std::uint64_t>(reported)) {
    return "reported makespan " + json_number(reported) +
           " differs from its schedule's " + json_number(s.makespan);
  }
  const double lb = sehc::makespan_lower_bound(w);
  if (reported < lb * (1.0 - kBoundSlack)) {
    return "makespan " + json_number(reported) + " below the lower bound " +
           json_number(lb);
  }
  return {};
}

double corrupted(double makespan) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(makespan) ^ 1u);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string host_fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  const char* simd = sehc::kernel_name(
      sehc::resolve_kernel(sehc::kernel_choice_from_env()));
  std::ostringstream os;
  os << "{\"cpu\": " << json_string(cpu)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"kernel\": " << json_string(kernel)
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"simd\": " << json_string(simd) << "}";
  return os.str();
}

}  // namespace perfbench
