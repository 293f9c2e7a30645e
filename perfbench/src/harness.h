#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark: argument parsing, latency samples with
// honest percentiles, the measured-window record every workload fills, the
// registry snapshots per-layer metrics are taken from, and the Workload
// interface the three workloads implement.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

enum class Scale { kTiny, kFull };

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Scale scale = Scale::kFull;
  // Self-test only: perturb the reference so the answer check must fail.
  bool corrupt_reference = false;
  // Working directory for stores and sockets (relative paths keep the unix
  // socket path short).
  std::string dir;
  // Where a --trace 1 run writes its spans.
  std::string trace_out;
};

// Strict parse of the command line. Returns an error message, or an empty
// string when every argument was well-formed and every required one given.
std::string ParseOptions(int argc, char** argv, Options* out);

// Latency samples in microseconds.
class Samples {
 public:
  void Add(double us) {
    v_.push_back(us);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t size() const { return v_.size(); }

  // Nearest-rank percentile (q in (0, 1)). Empty unless at least ten
  // samples lie beyond the rank: a percentile the sample cannot support is
  // reported as missing, never as a number.
  std::optional<double> Percentile(double q) const;
  // The highest percentile (in percent, e.g. 99.9) with at least ten
  // samples beyond it; empty below 20 samples.
  std::optional<double> TailPercent() const;
  double Median() const;
  double Max() const;
  double Mean() const;

 private:
  void Sort() const;
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

// Everything one measured window produced. Workloads fill it; windows of
// successive epochs are merged.
struct Window {
  double wall_s = 0;
  uint64_t attempted = 0;  // every call into the program
  uint64_t queries = 0;    // the read/query calls among them
  uint64_t failed = 0;     // non-OK status, shed or refused
  uint64_t wrong = 0;      // answers that disagree with the reference
  Samples latency_us;      // read/query operations, caller-observed
  // Benchmark-side spans per operation type, keyed by metric stem
  // ("table.insert_us", "wire.sum_range_us", ...).
  std::map<std::string, Samples> op_us;
  std::vector<double> peak_resident_bytes;  // one per set-up measured
  std::vector<double> disk_bytes;           // one per set-up measured
  uint64_t matched_rows = 0;  // rows the checked queries matched (reference)
  uint64_t rows_ingested = 0;
  double write_s = 0;  // time inside Insert/MergeAll/AddColdPartition/AgeRows
  uint64_t user_bytes_ingested = 0;

  void Merge(const Window& other);
  // Counts one answer-check failure and reports the first few.
  void Wrong(const std::string& what);
  void Failed(const std::string& what, const payg::Status& status);
};

// Tracks the peak of a sampled level across threads.
class PeakTracker {
 public:
  void Observe(uint64_t v) {
    uint64_t cur = peak_.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> peak_{0};
};

struct SetupStats {
  double seconds = 0;        // the whole set-up, wall clock
  uint64_t rows_loaded = 0;  // rows the set-up handed to the program
  double load_s = 0;         // time inside the program's load calls
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds a fresh store (and server) under `dir`.
  virtual payg::Status Setup(const std::string& dir, SetupStats* stats) = 0;
  // Stops what Setup started and removes its directory.
  virtual void Teardown() = 0;
  // Runs the load for `seconds` or, for an epoch workload, runs its fixed
  // sequence once. Returns early when a traced window's span budget is
  // spent. A non-OK status means the run cannot continue.
  virtual payg::Status Measure(double seconds, Window* w) = 0;
  // True when each Measure needs a fresh Setup.
  virtual bool epochs() const { return false; }
  // "model" (simulated device latency) or "real-files".
  virtual const char* latency_model() const = 0;
};

std::unique_ptr<Workload> MakeWireLookup(const Options& options);
std::unique_ptr<Workload> MakeErpAudit(const Options& options);
std::unique_ptr<Workload> MakeIngestAge(const Options& options);

// Delta-able copy of the registry metrics the per-layer figures use.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, payg::obs::Histogram::Snapshot> histograms;

  static RegistrySnapshot Take();
  RegistrySnapshot DeltaSince(const RegistrySnapshot& before) const;
  // Adds a delta (another measured stretch) to this one.
  void Accumulate(const RegistrySnapshot& delta);
  uint64_t counter(const std::string& name) const;
  const payg::obs::Histogram::Snapshot& histogram(
      const std::string& name) const;
};

// Bytes in regular files under `dir` (0 when it does not exist).
uint64_t DirectoryBytes(const std::string& dir);

double Median(std::vector<double> v);

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
