// payg_perfbench: the repository benchmark. Runs one workload from a seed,
// checks every answer against a reference kept beside the generated inputs,
// and prints every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones.
//
//   payg_perfbench --workload wire_lookup|erp_audit|ingest_age --seed N
//                  --seconds S --dir D [--trace 0|1] [--scale tiny|full]
//                  [--trace-out FILE] [--corrupt-reference]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "encoding/simd_dispatch.h"
#include "harness.h"
#include "obs/trace.h"
#include "paged/page_cache.h"
#include "spans.h"
#include "storage/io_backend.h"

namespace perfbench {
namespace {

using payg::Status;
namespace obs = payg::obs;

// An untraced run sets up at least kSetups times, and keeps setting up
// until the set-ups took kSetupSeconds; setup_s is their median.
constexpr size_t kSetups = 3;
constexpr double kSetupSeconds = 2.0;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  Window window;  // every operation the run issued (both phases if traced)
  std::vector<Metric> metrics;
};

std::string FormatNumber(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("null");
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

// Host and configuration facts, read from the program (never set here), so
// a change of default shows up beside the numbers it moves.
std::string HostFacts(const Workload& workload) {
  payg::CurrentIoBackend();
  payg::IoQueueDepth();
  auto& reg = obs::MetricsRegistry::Global();
  const int64_t backend = reg.gauge("io.backend")->value();
  std::string out = "{";
  out += "\"cores\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + Quote(__VERSION__);
  out += ",\"simd\":" + Quote(payg::SimdLevelName(payg::ActiveSimdLevel()));
  out += ",\"io_backend\":" + Quote(backend == 1 ? "uring" : "sync");
  out += ",\"io_depth\":" + std::to_string(reg.gauge("io.depth")->value());
  out += ",\"readahead\":" + std::to_string(payg::DefaultReadaheadWindow());
  out += ",\"cache_shards\":" + std::to_string(payg::DefaultCacheShards());
  out += ",\"latency_model\":" + Quote(workload.latency_model());
  out += "}";
  return out;
}

// One set-up, timed. `span` names it in a traced run.
Status TimedSetup(Workload& workload, const Options& opt, size_t index,
                  std::vector<SetupStats>* setups) {
  workload.Teardown();
  SetupStats stats;
  const auto t0 = Clock::now();
  Status s;
  {
    obs::TraceSpan span("bench", "setup", index);
    s = workload.Setup(opt.dir + "/s" + std::to_string(index), &stats);
  }
  stats.seconds = SecondsSince(t0);
  if (s.ok()) setups->push_back(stats);
  return s;
}

Status RunEndToEnd(Workload& workload, const Options& opt, Outcome* out) {
  std::vector<SetupStats> setups;
  Window& w = out->window;
  if (workload.epochs()) {
    while (w.wall_s < opt.seconds || setups.size() < kSetups) {
      Status s = TimedSetup(workload, opt, setups.size(), &setups);
      if (s.ok()) s = workload.Measure(opt.seconds, &w);
      if (!s.ok()) return s;
    }
  } else {
    double spent = 0;
    while (setups.size() < kSetups || spent < kSetupSeconds) {
      Status s = TimedSetup(workload, opt, setups.size(), &setups);
      if (!s.ok()) return s;
      spent += setups.back().seconds;
    }
    Status s = workload.Measure(opt.seconds, &w);
    if (!s.ok()) return s;
  }
  workload.Teardown();

  std::vector<double> setup_s, load_rate;
  for (const SetupStats& st : setups) {
    setup_s.push_back(st.seconds);
    if (st.load_s > 0) {
      load_rate.push_back(static_cast<double>(st.rows_loaded) / st.load_s);
    }
  }
  std::printf("# setup_s samples:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");

  // A wrong answer fails the run; its figures would describe a broken
  // program, so none are reported.
  if (w.wrong > 0) return Status::OK();
  const auto p50 = w.latency_us.Percentile(0.50);
  const auto p99 = w.latency_us.Percentile(0.99);
  if (!p50 || !p99 || w.queries == 0 || w.wall_s <= 0) {
    return Status::FailedPrecondition(
        "too few query samples for p99 (" +
        std::to_string(w.latency_us.size()) + "; need at least 1000)");
  }
  std::printf("# latency n=%zu p50=%.1fus p99=%.1fus tail=p%.3f max=%.1fus\n",
              w.latency_us.size(), *p50, *p99, *w.latency_us.TailPercent(),
              w.latency_us.Max());
  // Epoch workloads ingest inside the measured window; the others ingest
  // only while setting up, so their rate is the set-up load rate.
  const double ingest = workload.epochs() && w.write_s > 0
                            ? static_cast<double>(w.rows_ingested) / w.write_s
                            : Median(load_rate);
  out->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", static_cast<double>(w.queries - std::min(w.queries, w.failed)) /
                        w.wall_s,
       "1/s"},
      {"latency_p50_us", *p50, "us"},
      {"latency_p99_us", *p99, "us"},
      {"resident_mb", Median(w.peak_resident_bytes) / kMiB, "MiB"},
      {"ingest_rows_per_s", ingest, "rows/s"},
      {"disk_mb", Median(w.disk_bytes) / kMiB, "MiB"},
  };
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Median (or max) of one operation type's samples; 0 when the workload
// never issued it.
double OpMedian(const Window& w, const std::string& stem, double scale = 1) {
  auto it = w.op_us.find(stem);
  return it == w.op_us.end() ? 0 : it->second.Median() * scale;
}
double OpMax(const Window& w, const std::string& stem, double scale = 1) {
  auto it = w.op_us.find(stem);
  return it == w.op_us.end() ? 0 : it->second.Max() * scale;
}

std::vector<Metric> PerLayer(const RegistrySnapshot& d, const Window& a,
                             const Window& b, const TraceSummary& trace) {
  const double ops = static_cast<double>(std::max<uint64_t>(a.queries, 1));
  auto hist = [&](const char* name) -> const obs::Histogram::Snapshot& {
    return d.histogram(name);
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(d.counter(name));
  };
  const auto& service = hist("server.request_latency_us");
  const bool served = service.count > 0;
  const double client_p50 = a.latency_us.Percentile(0.5).value_or(0);
  const double hits = counter("cache.hits");
  const double lookups = hits + counter("cache.misses");
  const double native = counter("codec.kernel_native");
  const double a_rate = Ratio(static_cast<double>(a.attempted), a.wall_s);
  const double b_rate = Ratio(static_cast<double>(b.attempted), b.wall_s);

  std::vector<Metric> m = {
      // server: wire decode, admission queue, batcher.
      {"server.queue_wait_us.p99", hist("server.queue_wait_us").Quantile(0.99), "us"},
      {"server.service_us.p50", service.Quantile(0.50), "us"},
      {"wire.overhead_us.p50", served ? client_p50 - service.Quantile(0.50) : 0, "us"},
      {"wire.overhead_us.mean", served ? a.latency_us.Mean() - service.mean() : 0, "us"},
      {"server.batch_size.mean", hist("server.batch_size").mean(), "count"},
      {"server.shed", counter("server.shed"), "count"},
      {"wire.count_by_value_us.p50", OpMedian(a, "wire.count_by_value_us"), "us"},
      {"wire.select_by_value_us.p50", OpMedian(a, "wire.select_by_value_us"), "us"},
      {"wire.count_prefix_us.p50", OpMedian(a, "wire.count_prefix_us"), "us"},
      {"wire.sum_range_us.p50", OpMedian(a, "wire.sum_range_us"), "us"},
      // exec: partition fan-out.
      {"exec.queue_wait_us.p50", hist("exec.queue_wait_us").Quantile(0.50), "us"},
      {"exec.query_us.p50", hist("exec.query.latency_us").Quantile(0.50), "us"},
      // table: query templates, insert, merge, aging.
      {"table.select_pk_all_us.p50", OpMedian(a, "table.select_pk_all_us"), "us"},
      {"table.select_pk_str_us.p50", OpMedian(a, "table.select_pk_str_us"), "us"},
      {"table.count_num_us.p50", OpMedian(a, "table.count_num_us"), "us"},
      {"table.insert_us.p50", OpMedian(a, "table.insert_us"), "us"},
      {"table.sum_range_us.p50", OpMedian(a, "table.sum_range_us"), "us"},
      {"table.select_range_us.p50", OpMedian(a, "table.select_range_us"), "us"},
      {"table.merge_ms.p50", OpMedian(a, "table.merge_us", 1e-3), "ms"},
      {"table.merge_ms.max", OpMax(a, "table.merge_us", 1e-3), "ms"},
      {"table.age_ms.p50", OpMedian(a, "table.age_us", 1e-3), "ms"},
      {"table.rows_scanned_per_result",
       Ratio(counter("query.rows_scanned"), static_cast<double>(a.matched_rows)),
       "ratio"},
      {"table.results", static_cast<double>(a.matched_rows), "count"},
      {"table.index_lookups_per_op", counter("query.index_lookups") / ops, "ratio"},
      // paged: data vector, dictionary, inverted index, PageCache.
      {"paged.cache_hit_ratio", Ratio(hits, lookups), "ratio"},
      {"paged.cache_lookups", lookups, "count"},
      {"paged.hit_us_per_pin",
       Ratio(counter("query.page_hit_us"), counter("query.page_hit_count")), "us"},
      {"paged.cold_us_per_page",
       Ratio(counter("query.page_cold_us"), counter("query.page_cold_count")), "us"},
      {"paged.pages_pinned_per_op", counter("query.pages_pinned") / ops, "count"},
      {"paged.prefetch_useful_ratio",
       Ratio(counter("cache.prefetch_hits"), counter("cache.prefetch_issued")),
       "ratio"},
      {"paged.prefetch_issued", counter("cache.prefetch_issued"), "count"},
      {"paged.lock_wait_us.p99", hist("cache.lock_wait").Quantile(0.99), "us"},
      // buffer: ResourceManager eviction.
      {"buffer.evictions_per_op",
       (counter("rm.evictions.reactive") + counter("rm.evictions.proactive")) / ops,
       "count"},
      {"buffer.evicted_mb", counter("rm.evicted.bytes") / kMiB, "MiB"},
      {"buffer.sweep_us.p99", hist("rm.sweep.duration_us").Quantile(0.99), "us"},
      // storage: PageFile and the I/O backend.
      {"storage.read_pages_per_op", counter("storage.read.pages") / ops, "count"},
      {"storage.read_us.p50", hist("storage.read.latency_us").Quantile(0.50), "us"},
      {"storage.write_bytes_per_user_byte",
       Ratio(counter("storage.write.bytes"),
             static_cast<double>(a.user_bytes_ingested)),
       "ratio"},
      {"storage.io_syscalls_per_op", counter("io.syscalls") / ops, "count"},
      {"storage.io_batch_pages.mean", hist("io.batch_pages").mean(), "count"},
      // encoding: codecs and SIMD kernels.
      {"encoding.native_kernel_ratio",
       Ratio(native, native + counter("codec.kernel_fallback")), "ratio"},
      {"encoding.codec_mb.plain", counter("codec.bytes.plain") / kMiB, "MiB"},
      {"encoding.codec_mb.for", counter("codec.bytes.for") / kMiB, "MiB"},
      {"encoding.codec_mb.rle", counter("codec.bytes.rle") / kMiB, "MiB"},
      // traced window: self time per layer and what tracing cost.
      {"trace.spans", static_cast<double>(trace.spans), "count"},
      {"trace.overhead_pct", b_rate > 0 ? (a_rate / b_rate - 1) * 100 : 0, "%"},
  };
  const double calls = static_cast<double>(std::max<uint64_t>(trace.bench_calls, 1));
  for (const std::string& layer : TraceLayers()) {
    auto it = trace.self_us.find(layer);
    m.push_back({"self_us_per_op." + layer,
                 it == trace.self_us.end() ? 0 : it->second / calls, "us"});
  }
  return m;
}

Status RunPerLayer(Workload& workload, const Options& opt, Outcome* out) {
  auto& tracer = obs::Tracer::Global();
  std::vector<SetupStats> setups;
  std::vector<std::pair<std::string, std::vector<obs::TraceEvent>>> windows;

  // Traced set-up into a small ring of its own.
  auto traced_setup = [&]() -> Status {
    tracer.Enable(kSetupTraceCapacity);
    Status s = TimedSetup(workload, opt, setups.size(), &setups);
    tracer.Disable();
    windows.emplace_back("setup", tracer.Collect());
    return s;
  };

  // Phase A, untraced: registry deltas around each measured stretch.
  const double half = opt.seconds / 2;
  Window a;
  RegistrySnapshot delta;
  auto measure_a = [&]() -> Status {
    const RegistrySnapshot before = RegistrySnapshot::Take();
    Status s = workload.Measure(half, &a);
    delta.Accumulate(RegistrySnapshot::Take().DeltaSince(before));
    return s;
  };
  if (workload.epochs()) {
    while (a.wall_s < half) {
      Status s = TimedSetup(workload, opt, setups.size(), &setups);
      if (s.ok()) s = measure_a();
      if (!s.ok()) return s;
    }
    Status s = traced_setup();
    if (!s.ok()) return s;
  } else {
    Status s = traced_setup();
    if (s.ok()) s = measure_a();
    if (!s.ok()) return s;
  }

  // Phase B, traced.
  Window b;
  tracer.Enable(kTraceCapacity);
  Status s = workload.Measure(half, &b);
  tracer.Disable();
  windows.emplace_back("measure", tracer.Collect());
  workload.Teardown();
  if (!s.ok()) return s;

  const TraceSummary trace = Summarize(windows.back().second);
  Status written = WriteSpans(opt.trace_out, windows);
  if (!written.ok()) return written;
  std::printf("# trace: %llu spans (%llu dropped) over %llu benchmark calls, "
              "written to %s\n",
              static_cast<unsigned long long>(trace.spans),
              static_cast<unsigned long long>(trace.dropped),
              static_cast<unsigned long long>(trace.bench_calls),
              opt.trace_out.c_str());
  std::printf("# untraced window: %llu queries in %.3fs; traced window: %llu "
              "queries in %.3fs\n",
              static_cast<unsigned long long>(a.queries), a.wall_s,
              static_cast<unsigned long long>(b.queries), b.wall_s);
  if (a.queries == 0 || b.attempted == 0) {
    return Status::FailedPrecondition("a per-layer window issued no queries");
  }
  out->window = a;
  out->window.Merge(b);
  if (out->window.wrong == 0) out->metrics = PerLayer(delta, a, b, trace);
  return Status::OK();
}

int Main(int argc, char** argv) {
  Options opt;
  const std::string err = ParseOptions(argc, argv, &opt);
  if (!err.empty()) {
    std::fprintf(stderr,
                 "payg_perfbench: %s\nusage: payg_perfbench --workload "
                 "wire_lookup|erp_audit|ingest_age --seed N --seconds S "
                 "--dir D [--trace 0|1] [--scale tiny|full] [--trace-out F] "
                 "[--corrupt-reference]\n",
                 err.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload =
      opt.workload == "wire_lookup" ? MakeWireLookup(opt)
      : opt.workload == "erp_audit" ? MakeErpAudit(opt)
                                    : MakeIngestAge(opt);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              opt.scale == Scale::kTiny ? "tiny" : "full");

  Outcome outcome;
  const Status s = opt.trace ? RunPerLayer(*workload, opt, &outcome)
                             : RunEndToEnd(*workload, opt, &outcome);
  workload->Teardown();
  std::error_code ec;
  std::filesystem::remove_all(opt.dir, ec);
  if (!s.ok()) {
    std::fprintf(stderr, "payg_perfbench: run failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  const Window& w = outcome.window;
  const uint64_t bad = w.failed + w.wrong;
  std::printf("# facts %s\n", HostFacts(*workload).c_str());
  std::printf("# error_ratio=%.6g (failed=%llu wrong=%llu attempted=%llu)\n",
              Ratio(static_cast<double>(bad), static_cast<double>(w.attempted)),
              static_cast<unsigned long long>(w.failed),
              static_cast<unsigned long long>(w.wrong),
              static_cast<unsigned long long>(w.attempted));
  std::string json = "{\"correct\": ";
  json += w.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(w.attempted);
  json += ", \"failed\": " + std::to_string(bad);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "payg_perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("# %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
    json += (i > 0 ? ", " : "") + Quote(m.name) + ": {\"value\": " +
            FormatNumber(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return w.wrong == 0 && w.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
