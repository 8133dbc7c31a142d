#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "core/error.h"
#include "core/table.h"

namespace sehc {

namespace {

std::size_t bucket_index(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

/// Milliseconds with fixed 3-decimal formatting — the one volatile field.
std::string format_ms(double seconds) {
  return format_fixed(seconds * 1e3, 3);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::uint64_t LogHistogram::bucket_floor(std::size_t b) {
  if (b == 0) return 0;
  return std::uint64_t{1} << (b - 1);
}

void LogHistogram::record(std::uint64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  buckets_[bucket_index(value)] += weight;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += weight;
  sum_ += value * weight;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Nearest rank: the smallest rank r with r >= q * count, at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return bucket_floor(b);
  }
  return bucket_floor(kBuckets - 1);  // unreachable with count_ > 0
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Shard& MetricsRegistry::local_shard() const {
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Shard>& slot = shards_[tid];
  if (!slot) slot = std::make_unique<Shard>();
  return *slot;
}

void MetricsRegistry::counter_add(std::string_view name, std::uint64_t delta) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    shard.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::gauge_max(std::string_view name, std::uint64_t value) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    shard.gauges.emplace(std::string(name), value);
  } else if (value > it->second) {
    it->second = value;
  }
}

void MetricsRegistry::hist_record(std::string_view name, std::uint64_t value,
                                  std::uint64_t weight) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms.emplace(std::string(name), LogHistogram{}).first;
  }
  it->second.record(value, weight);
}

void MetricsRegistry::phase_record(std::string_view path, std::uint64_t visits,
                                   std::uint64_t rounds, double seconds) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.phases.find(path);
  if (it == shard.phases.end()) {
    it = shard.phases.emplace(std::string(path), PhaseStats{}).first;
  }
  it->second.visits += visits;
  it->second.rounds += rounds;
  it->second.seconds += seconds;
}

void MetricsRegistry::span_enter(std::string_view name) {
  Shard& shard = local_shard();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.stack.push_back(Frame{std::string(name), now, 0});
}

void MetricsRegistry::span_rounds(std::uint64_t n) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  SEHC_CHECK(!shard.stack.empty(), "span_rounds: no open span on this thread");
  shard.stack.back().rounds += n;
}

void MetricsRegistry::span_leave() {
  Shard& shard = local_shard();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(shard.mu);
  SEHC_CHECK(!shard.stack.empty(), "span_leave: no open span on this thread");
  std::string path;
  for (const Frame& f : shard.stack) {
    if (!path.empty()) path += '/';
    path += f.name;
  }
  const Frame frame = std::move(shard.stack.back());
  shard.stack.pop_back();
  const double seconds =
      std::chrono::duration<double>(now - frame.start).count();
  PhaseStats& node = shard.phases[path];
  node.visits += 1;
  node.rounds += frame.rounds;
  node.seconds += seconds;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // std::map accumulators give the canonical (sorted) key order for free;
  // every merge operator is commutative over exact integers, so the
  // deterministic fields do not depend on shard (= thread) decomposition.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, LogHistogram> histograms;
  std::map<std::string, PhaseStats> phases;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tid, shard] : shards_) {
    (void)tid;
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, value] : shard->counters) counters[name] += value;
    for (const auto& [name, value] : shard->gauges) {
      auto it = gauges.find(name);
      if (it == gauges.end()) {
        gauges.emplace(name, value);
      } else if (value > it->second) {
        it->second = value;
      }
    }
    for (const auto& [name, hist] : shard->histograms) {
      histograms[name].merge(hist);
    }
    for (const auto& [path, stats] : shard->phases) {
      PhaseStats& node = phases[path];
      node.visits += stats.visits;
      node.rounds += stats.rounds;
      node.seconds += stats.seconds;
    }
  }
  MetricsSnapshot snap;
  snap.counters.assign(counters.begin(), counters.end());
  snap.gauges.assign(gauges.begin(), gauges.end());
  snap.histograms.assign(histograms.begin(), histograms.end());
  snap.phases.assign(phases.begin(), phases.end());
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot emission

std::string MetricsSnapshot::canonical() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge " << name << ' ' << value << '\n';
  }
  for (const auto& [name, hist] : histograms) {
    os << "hist " << name << " count=" << hist.count()
       << " sum=" << hist.sum() << " min=" << hist.min()
       << " max=" << hist.max() << " buckets=";
    bool first = true;
    for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b) {
      if (hist.buckets()[b] == 0) continue;
      if (!first) os << ',';
      first = false;
      os << b << ':' << hist.buckets()[b];
    }
    os << '\n';
  }
  for (const auto& [path, stats] : phases) {
    os << "phase " << path << " visits=" << stats.visits
       << " rounds=" << stats.rounds << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  const auto object = [&](const char* key, std::size_t n,
                          const auto& emit_entry, bool last) {
    os << pad << "  \"" << key << "\": {";
    if (n == 0) {
      os << "}";
    } else {
      os << "\n";
      emit_entry();
      os << pad << "  }";
    }
    os << (last ? "\n" : ",\n");
  };
  object("counters", counters.size(), [&] {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      os << pad << "    \"" << json_escape(counters[i].first)
         << "\": " << counters[i].second
         << (i + 1 < counters.size() ? ",\n" : "\n");
    }
  }, false);
  object("gauges", gauges.size(), [&] {
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      os << pad << "    \"" << json_escape(gauges[i].first)
         << "\": " << gauges[i].second
         << (i + 1 < gauges.size() ? ",\n" : "\n");
    }
  }, false);
  object("histograms", histograms.size(), [&] {
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      const LogHistogram& h = histograms[i].second;
      os << pad << "    \"" << json_escape(histograms[i].first) << "\": "
         << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
         << ", \"min\": " << h.min() << ", \"max\": " << h.max()
         << ", \"p50\": " << h.quantile(0.50)
         << ", \"p90\": " << h.quantile(0.90)
         << ", \"p99\": " << h.quantile(0.99) << "}"
         << (i + 1 < histograms.size() ? ",\n" : "\n");
    }
  }, false);
  object("phases", phases.size(), [&] {
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseStats& p = phases[i].second;
      os << pad << "    \"" << json_escape(phases[i].first) << "\": "
         << "{\"visits\": " << p.visits << ", \"rounds\": " << p.rounds
         << ", \"ms\": " << format_ms(p.seconds) << "}"
         << (i + 1 < phases.size() ? ",\n" : "\n");
    }
  }, true);
  os << pad << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Ambient registry

namespace {
thread_local MetricsRegistry* t_ambient_metrics = nullptr;
}  // namespace

MetricsRegistry* ambient_metrics() { return t_ambient_metrics; }

MetricsScope::MetricsScope(MetricsRegistry* registry)
    : previous_(t_ambient_metrics) {
  t_ambient_metrics = registry;
}

MetricsScope::~MetricsScope() { t_ambient_metrics = previous_; }

}  // namespace sehc
