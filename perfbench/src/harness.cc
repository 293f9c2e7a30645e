#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <system_error>

namespace perfbench {

namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

// Registry names the per-layer figures are derived from.
constexpr const char* kCounters[] = {
    "server.shed",
    "cache.hits",
    "cache.misses",
    "cache.prefetch_issued",
    "cache.prefetch_hits",
    "rm.evictions.reactive",
    "rm.evictions.proactive",
    "rm.evicted.bytes",
    "storage.read.pages",
    "storage.write.bytes",
    "io.syscalls",
    "codec.kernel_native",
    "codec.kernel_fallback",
    "codec.bytes.plain",
    "codec.bytes.for",
    "codec.bytes.rle",
    "query.rows_scanned",
    "query.index_lookups",
    "query.pages_pinned",
    "query.page_hit_count",
    "query.page_hit_us",
    "query.page_cold_count",
    "query.page_cold_us",
};
constexpr const char* kHistograms[] = {
    "server.queue_wait_us",
    "server.request_latency_us",
    "server.batch_size",
    "exec.queue_wait_us",
    "exec.query.latency_us",
    "cache.lock_wait",
    "rm.sweep.duration_us",
    "storage.read.latency_us",
    "io.batch_pages",
};

std::atomic<int> g_reported{0};

}  // namespace

std::string ParseOptions(int argc, char** argv, Options* out) {
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      out->corrupt_reference = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--scale" && flag != "--dir" &&
        flag != "--trace-out") {
      return "unknown argument '" + flag + "'";
    }
    if (i + 1 >= argc) return flag + " needs a value";
    if (seen.count(flag) != 0) return flag + " given twice";
    seen[flag] = argv[++i];
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--dir"}) {
    if (seen.count(required) == 0) return std::string(required) + " is required";
  }
  out->workload = seen["--workload"];
  if (out->workload != "wire_lookup" && out->workload != "erp_audit" &&
      out->workload != "ingest_age") {
    return "unknown workload '" + out->workload + "'";
  }
  if (!ParseU64(seen["--seed"], &out->seed)) {
    return "--seed must be a non-negative decimal integer";
  }
  if (!ParseDouble(seen["--seconds"], &out->seconds) || out->seconds <= 0 ||
      out->seconds > 3600) {
    return "--seconds must be a number in (0, 3600]";
  }
  if (seen.count("--trace") != 0) {
    const std::string& t = seen["--trace"];
    if (t != "0" && t != "1") return "--trace must be 0 or 1";
    out->trace = t == "1";
  }
  if (seen.count("--scale") != 0) {
    const std::string& s = seen["--scale"];
    if (s != "tiny" && s != "full") return "--scale must be tiny or full";
    out->scale = s == "tiny" ? Scale::kTiny : Scale::kFull;
  }
  out->dir = seen["--dir"];
  if (out->dir.empty()) return "--dir must not be empty";
  out->trace_out = seen.count("--trace-out") != 0
                       ? seen["--trace-out"]
                       : out->dir + ".spans.csv";
  return "";
}

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

std::optional<double> Samples::Percentile(double q) const {
  const size_t n = v_.size();
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - std::min(rank, n) < 10) return std::nullopt;
  Sort();
  return v_[rank - 1];
}

std::optional<double> Samples::TailPercent() const {
  if (v_.size() < 20) return std::nullopt;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(v_.size()));
}

double Samples::Median() const {
  if (v_.empty()) return 0;
  Sort();
  const size_t n = v_.size();
  return n % 2 == 1 ? v_[n / 2] : (v_[n / 2 - 1] + v_[n / 2]) / 2;
}

double Samples::Max() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

double Samples::Mean() const {
  return v_.empty() ? 0
                    : std::accumulate(v_.begin(), v_.end(), 0.0) /
                          static_cast<double>(v_.size());
}

void Window::Merge(const Window& other) {
  wall_s += other.wall_s;
  attempted += other.attempted;
  queries += other.queries;
  failed += other.failed;
  wrong += other.wrong;
  latency_us.Append(other.latency_us);
  for (const auto& [name, samples] : other.op_us) op_us[name].Append(samples);
  peak_resident_bytes.insert(peak_resident_bytes.end(),
                             other.peak_resident_bytes.begin(),
                             other.peak_resident_bytes.end());
  disk_bytes.insert(disk_bytes.end(), other.disk_bytes.begin(),
                    other.disk_bytes.end());
  matched_rows += other.matched_rows;
  rows_ingested += other.rows_ingested;
  write_s += other.write_s;
  user_bytes_ingested += other.user_bytes_ingested;
}

void Window::Wrong(const std::string& what) {
  ++wrong;
  if (g_reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "wrong answer: %s\n", what.c_str());
  }
}

void Window::Failed(const std::string& what, const payg::Status& status) {
  ++failed;
  if (g_reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "failed: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
}

RegistrySnapshot RegistrySnapshot::Take() {
  auto& reg = payg::obs::MetricsRegistry::Global();
  RegistrySnapshot s;
  for (const char* name : kCounters) s.counters[name] = reg.counter(name)->value();
  for (const char* name : kHistograms) {
    s.histograms[name] = reg.histogram(name)->snapshot();
  }
  return s;
}

RegistrySnapshot RegistrySnapshot::DeltaSince(
    const RegistrySnapshot& before) const {
  RegistrySnapshot d;
  for (const auto& [name, v] : counters) d.counters[name] = v - before.counter(name);
  for (const auto& [name, h] : histograms) {
    const auto& b = before.histogram(name);
    auto& out = d.histograms[name];
    out.count = h.count - b.count;
    out.sum = h.sum - b.sum;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      out.buckets[i] = h.buckets[i] - b.buckets[i];
    }
  }
  return d;
}

void RegistrySnapshot::Accumulate(const RegistrySnapshot& delta) {
  for (const auto& [name, v] : delta.counters) counters[name] += v;
  for (const auto& [name, h] : delta.histograms) {
    auto& acc = histograms[name];
    acc.count += h.count;
    acc.sum += h.sum;
    for (size_t i = 0; i < h.buckets.size(); ++i) acc.buckets[i] += h.buckets[i];
  }
}

uint64_t RegistrySnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const payg::obs::Histogram::Snapshot& RegistrySnapshot::histogram(
    const std::string& name) const {
  static const payg::obs::Histogram::Snapshot kEmpty;
  auto it = histograms.find(name);
  return it == histograms.end() ? kEmpty : it->second;
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
