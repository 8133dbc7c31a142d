// Shared plumbing of the benchmark: command-line options, the per-run
// report (metrics, failure accounting, run metadata), latency statistics,
// result checks and the host fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hc/workload.h"
#include "sched/schedule.h"
#include "workload/params.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Captured during static initialisation, before main(): the origin of
/// setup_s ("from process start to the first timed op") and of span times.
Clock::time_point process_start();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed op list (ops = seconds x a nominal rate of a 4-core
  /// x86-64 guest); the list itself never depends on elapsed time.
  int seconds = 10;
  bool trace = false;
  /// Span files go here; stores and sockets go to a per-run `rundir`
  /// inside it, removed when the run ends.
  std::string workdir = ".bench_build/work";
  std::string rundir;
  /// Self-test knobs: paper-scale instances swapped for tiny ones, and a
  /// deliberately corrupted result.
  bool tiny = false;
  long corrupt_op = -1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Failure accounting is per op: an op fails when any
/// check on it fails, and is counted once however many checks it fails.
class Report {
 public:
  void set_attempted(std::size_t ops) { attempted_ = ops; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_.size(); }

  /// Marks op `op` failed; the first few reasons are kept for the log.
  void fail(std::size_t op, const std::string& why);
  const std::vector<std::string>& failure_notes() const { return notes_; }

  void add(std::string name, double value, std::string unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Run metadata, printed on its own line before the result. `json` is a
  /// complete JSON value.
  void meta(const std::string& key, std::string json);
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }

  /// Free text for the log (tables, cross-checks), printed before the
  /// metadata line.
  void log(std::string text) { log_ += std::move(text); }
  const std::string& log() const { return log_; }

 private:
  std::size_t attempted_ = 0;
  std::set<std::size_t> failed_;
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::string log_;
};

// --- Statistics --------------------------------------------------------------

/// The highest whole percentile that still has at least 10 samples beyond
/// it (nearest rank). With 10 samples or fewer it is the maximum.
struct Tail {
  int percentile = 100;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_latency(std::vector<double> samples);

/// content_hash64 over the bit patterns of `values`, in order. Over the
/// result makespans, a behaviour change shows as a different digest beside
/// the timings.
std::string bits_digest(const std::vector<double>& values);

/// bits_digest of every instance's shape and execution-time matrix: shows
/// that a seed changed the generated inputs.
std::string inputs_digest(const std::vector<const sehc::Workload*>& instances);

// --- Checks --------------------------------------------------------------------

/// Empty when `s` is a valid schedule of `w` whose makespan is bit-equal to
/// `reported` and not below makespan_lower_bound(w); otherwise the first
/// violation.
std::string check_schedule(const sehc::Workload& w, const sehc::Schedule& s,
                           double reported);

/// The self-test corruption: flips the low mantissa bit.
double corrupted(double makespan);

// --- Host ----------------------------------------------------------------------

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// CPU model, nproc, kernel release, compiler, build type and the SIMD
/// backend the evaluator resolves, as a JSON object.
std::string host_fingerprint_json();

std::string json_string(const std::string& text);
std::string json_number(double value);

}  // namespace perfbench
