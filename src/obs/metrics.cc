#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace payg::obs {

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target recording, 1-based; ceil so p100 hits the last one.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] < rank) {
      seen += buckets[b];
      continue;
    }
    // Bucket b covers [lo, hi]; place the rank linearly within it.
    const double lo = b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (b - 1));
    const double hi = b == 0 ? 0.0
                             : static_cast<double>(uint64_t{1} << (b - 1)) * 2.0;
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(buckets[b]);
    return lo + frac * (hi - lo);
  }
  return 0.0;  // unreachable when count > 0
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (int b = 0; b < kNumBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static auto* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

}  // namespace

std::string MetricsRegistry::TextDump() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    Append(&out, "counter   %-32s %" PRIu64 "\n", name.c_str(), c->value());
  }
  for (const auto& [name, g] : gauges_) {
    Append(&out, "gauge     %-32s %" PRId64 "\n", name.c_str(), g->value());
  }
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->snapshot();
    Append(&out,
           "histogram %-32s count=%" PRIu64 " sum=%" PRIu64
           " mean=%.1f p50=%.1f p95=%.1f p99=%.1f\n",
           name.c_str(), s.count, s.sum, s.mean(), s.p50(), s.p95(), s.p99());
  }
  return out;
}

std::string MetricsRegistry::JsonDump() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    Append(&out, "%s\"%s\":%" PRIu64, first ? "" : ",", name.c_str(),
           c->value());
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    Append(&out, "%s\"%s\":%" PRId64, first ? "" : ",", name.c_str(),
           g->value());
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    Histogram::Snapshot s = h->snapshot();
    Append(&out,
           "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
           ",\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,"
           "\"buckets\":[",
           first ? "" : ",", name.c_str(), s.count, s.sum, s.mean(), s.p50(),
           s.p95(), s.p99());
    // Trailing zero buckets are elided to keep dumps small; consumers index
    // from bucket 0.
    int last = Histogram::kNumBuckets - 1;
    while (last > 0 && s.buckets[last] == 0) --last;
    for (int b = 0; b <= last; ++b) {
      Append(&out, "%s%" PRIu64, b == 0 ? "" : ",", s.buckets[b]);
    }
    out += "]}";
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

// "cache.shard0.pages" -> "payg_cache_shard0_pages". Registry names are
// lowercase dotted paths (analyzer-enforced), so dots-to-underscores already
// yields a legal Prometheus metric name.
std::string PromName(const std::string& name) {
  std::string out = "payg_";
  out.reserve(out.size() + name.size());
  for (char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

}  // namespace

std::string MetricsRegistry::PrometheusDump() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string n = PromName(name);
    Append(&out, "# TYPE %s counter\n", n.c_str());
    Append(&out, "%s_total %" PRIu64 "\n", n.c_str(), c->value());
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = PromName(name);
    Append(&out, "# TYPE %s gauge\n", n.c_str());
    Append(&out, "%s %" PRId64 "\n", n.c_str(), g->value());
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = PromName(name);
    Histogram::Snapshot s = h->snapshot();
    Append(&out, "# TYPE %s histogram\n", n.c_str());
    // Cumulative counts at the log2 bucket upper bounds: bucket 0 is {0}
    // (le="0"), bucket i >= 1 is [2^(i-1), 2^i - 1] (le = 2^i - 1).
    // Trailing empty buckets are elided; +Inf always closes the series.
    int last = Histogram::kNumBuckets - 1;
    while (last > 0 && s.buckets[last] == 0) --last;
    uint64_t cumulative = 0;
    for (int b = 0; b <= last; ++b) {
      cumulative += s.buckets[b];
      const uint64_t le =
          b == 0 ? 0 : (b == 64 ? ~uint64_t{0} : (uint64_t{1} << b) - 1);
      Append(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", n.c_str(),
             le, cumulative);
    }
    // +Inf and _count repeat the bucket total (not the count_ word): the
    // snapshot's fields are loaded one relaxed atomic at a time, so under
    // concurrent recording count_ can disagree with the bucket sum by a few
    // in-flight events — deriving both from the buckets keeps the series
    // monotone and self-consistent, which scrapers validate.
    Append(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", n.c_str(),
           cumulative);
    Append(&out, "%s_sum %" PRIu64 "\n", n.c_str(), s.sum);
    Append(&out, "%s_count %" PRIu64 "\n", n.c_str(), cumulative);
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace payg::obs
