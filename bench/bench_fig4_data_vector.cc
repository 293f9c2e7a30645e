// Fig. 4: single read of a numeric column through the paged data vector.
// Workload Q_pk^num — SELECT C_num FROM T WHERE C_pk = value for random
// rows — on T_p (all non-pk columns page loadable) vs. T_b (§6.2.1).
//
// The query exercises only the paged data vector code path: the pk (not
// paged in T_p) is probed through its index, then one vid of the numeric
// column is decoded; the numeric dictionary is memory resident.
//
// Cold-scan section: a full-column mget over a cold paged data vector with
// iterator readahead off vs. on, at a simulated page latency high enough
// that the PageFile sleeps (≥1 ms) and the prefetch pool can overlap I/O
// with decode. scripts/bench_snapshot.sh records this as BENCH_fig4.json;
// PAYG_SCAN_ONLY=1 skips the (slower) Q_pk^num figure run.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/resource_manager.h"
#include "common/random.h"
#include "encoding/codec.h"
#include "exec/exec_context.h"
#include "paged/page_cache.h"
#include "paged/paged_data_vector.h"
#include "storage/io_backend.h"

namespace payg::bench {
namespace {

struct ScanStats {
  std::vector<double> ms;
  double mean_ms = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
};

ScanStats ColdScan(PagedDataVector* dv, uint32_t readahead, int reps) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* issued = reg.counter("cache.prefetch_issued");
  obs::Counter* hits = reg.counter("cache.prefetch_hits");
  obs::Counter* wasted = reg.counter("cache.prefetch_wasted");
  const uint64_t issued0 = issued->value();
  const uint64_t hits0 = hits->value();
  const uint64_t wasted0 = wasted->value();
  ScanStats st;
  const RowPos rows = static_cast<RowPos>(dv->row_count());
  for (int r = 0; r < reps; ++r) {
    dv->Unload();  // cold: every data page pays the simulated read latency
    ExecContext ctx;
    PagedDataVectorIterator it(dv, &ctx);
    it.set_readahead(readahead);
    std::vector<ValueId> out;
    out.reserve(rows);
    Stopwatch timer;
    Status s = it.MGet(0, rows, &out);
    if (!s.ok() || out.size() != rows) {
      std::fprintf(stderr, "cold scan failed: %s\n", s.ToString().c_str());
      std::abort();
    }
    st.ms.push_back(timer.ElapsedMillis());
  }
  dv->cache()->WaitForPrefetchIdle();
  st.mean_ms = Summarize(st.ms).mean;
  st.prefetch_issued = issued->value() - issued0;
  st.prefetch_hits = hits->value() - hits0;
  st.prefetch_wasted = wasted->value() - wasted0;
  return st;
}

void AppendJsonRuns(std::string* out, const ScanStats& st) {
  char buf[64];
  out->append("[");
  for (size_t i = 0; i < st.ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i == 0 ? "" : ", ", st.ms[i]);
    out->append(buf);
  }
  out->append("]");
}

// Compressed-scan section (S22): the same cold full-column scan once per
// storage codec, over a column whose vid stream has both run structure
// (runs of ~12) and a high floor (no vid below 2^16 occurs), so FOR cuts
// the packed width and RLE cuts the decoded work. Records bytes on disk
// (meta + data pages) and the cold scan time per codec; returns the
// "codec_scan" JSON array for the committed BENCH_fig4.json.
std::string RunCodecScanComparison(const BenchEnv& env) {
  const uint32_t latency_us =
      static_cast<uint32_t>(EnvU64("PAYG_SCAN_LATENCY_US", 1000));
  const int reps = static_cast<int>(EnvU64("PAYG_SCAN_REPS", 5));
  const uint32_t window = DefaultReadaheadWindow();

  StorageOptions opts;
  opts.page_size = static_cast<uint32_t>(EnvU64("PAYG_PAGE_SIZE", 8 * 1024));
  opts.simulated_read_latency_us = latency_us;
  const std::string dir = env.dir + "_codec";
  std::filesystem::remove_all(dir);
  auto storage = StorageManager::Open(dir, opts);
  BENCH_CHECK_OK(storage);
  ResourceManager rm;

  std::vector<ValueId> vids(env.rows);
  for (uint64_t i = 0; i < env.rows; ++i) {
    vids[i] = static_cast<ValueId>((1u << 16) + (i / 12) % 1000);
  }

  std::printf("# fig4 codec scan — rows=%llu latency_us=%u "
              "readahead_window=%u reps=%d\n",
              static_cast<unsigned long long>(env.rows), latency_us, window,
              reps);
  std::string json = "[";
  for (CodecId id : {CodecId::kPlain, CodecId::kFor, CodecId::kRle}) {
    const CodecChoice choice = MakeCodecChoice(id, vids);
    auto dv = PagedDataVector::Build(storage->get(), &rm, PoolId::kPagedPool,
                                     std::string("codec_col_") + CodecName(id),
                                     vids, choice);
    BENCH_CHECK_OK(dv);
    const uint64_t pages = (*dv)->data_page_count();
    const uint64_t bytes = (1 + pages) * opts.page_size;
    ScanStats st = ColdScan(dv->get(), window, reps);
    std::printf("fig4_codec: %-5s bits=%u pages=%llu bytes_on_disk=%llu "
                "mean_ms=%.2f\n",
                CodecName(id), choice.params.bits,
                static_cast<unsigned long long>(pages),
                static_cast<unsigned long long>(bytes), st.mean_ms);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"codec\": \"%s\", \"bits\": %u, "
                  "\"data_pages\": %llu, \"bytes_on_disk\": %llu, "
                  "\"scan_ms\": ",
                  id == CodecId::kPlain ? "" : ",", CodecName(id),
                  choice.params.bits, static_cast<unsigned long long>(pages),
                  static_cast<unsigned long long>(bytes));
    json += buf;
    AppendJsonRuns(&json, st);
    std::snprintf(buf, sizeof(buf), ", \"mean_ms\": %.3f}", st.mean_ms);
    json += buf;
  }
  json += "\n  ]";

  storage->reset();
  std::filesystem::remove_all(dir);
  return json;
}

// I/O backend sweep (S24): the same cold sequential scan swept over
// backend × readahead window × queue depth at a simulated latency of one
// device round trip per... round trip. The sync backend charges one round
// trip per page no matter how the batch is shaped, so its depth legs are
// flat; the uring backend charges one per submission wave (up to
// PAYG_IO_DEPTH vectored commands in flight), so wide windows and deep
// queues collapse many page latencies into one. Each uring row records its
// speedup over the sync row with the same window and depth; returns the
// "io_sweep" JSON array for the committed BENCH_fig4.json.
std::string RunIoSweep(const BenchEnv& env) {
  const uint32_t latency_us =
      static_cast<uint32_t>(EnvU64("PAYG_SCAN_LATENCY_US", 1000));
  const int reps = static_cast<int>(EnvU64("PAYG_SCAN_REPS", 5));

  StorageOptions opts;
  opts.page_size = static_cast<uint32_t>(EnvU64("PAYG_PAGE_SIZE", 8 * 1024));
  opts.simulated_read_latency_us = latency_us;
  const std::string dir = env.dir + "_io";
  std::filesystem::remove_all(dir);
  auto storage = StorageManager::Open(dir, opts);
  BENCH_CHECK_OK(storage);
  ResourceManager rm;

  Random rng(505);
  std::vector<ValueId> vids(env.rows);
  for (uint64_t i = 0; i < env.rows; ++i) {
    vids[i] = static_cast<ValueId>(rng.Uniform(1000));
  }
  auto dv = PagedDataVector::Build(storage->get(), &rm, PoolId::kPagedPool,
                                   "io_col", vids);
  BENCH_CHECK_OK(dv);

  const std::string prev_backend = CurrentIoBackend()->name();
  const uint32_t prev_depth = IoQueueDepth();
  const bool have_uring = IoUringAvailable();
  std::printf("# fig4 io sweep — rows=%llu pages=%llu latency_us=%u reps=%d "
              "uring_available=%d\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>((*dv)->data_page_count()),
              latency_us, reps, have_uring ? 1 : 0);

  struct Leg {
    const char* backend;
    uint32_t window;
    uint32_t depth;
  };
  std::vector<Leg> legs;
  for (const char* backend : {"sync", "uring"}) {
    if (!have_uring && std::string(backend) == "uring") continue;
    for (uint32_t window : {4u, 16u}) {
      for (uint32_t depth : {1u, 8u}) {
        legs.push_back({backend, window, depth});
      }
    }
  }

  std::map<std::pair<uint32_t, uint32_t>, double> sync_mean;
  std::string json = "[";
  bool first = true;
  for (const Leg& leg : legs) {
    (*dv)->cache()->WaitForPrefetchIdle();
    Status s = SetIoBackend(leg.backend);
    if (!s.ok()) {
      std::fprintf(stderr, "SetIoBackend(%s): %s\n", leg.backend,
                   s.ToString().c_str());
      std::abort();
    }
    SetIoQueueDepth(leg.depth);
    ScanStats st = ColdScan(dv->get(), leg.window, reps);
    double speedup;
    if (std::string(leg.backend) == "sync") {
      sync_mean[{leg.window, leg.depth}] = st.mean_ms;
      speedup = 1.0;
    } else {
      const double base = sync_mean[{leg.window, leg.depth}];
      speedup = st.mean_ms > 0 ? base / st.mean_ms : 0;
    }
    std::printf("fig4_io: backend=%-5s readahead=%-2u depth=%-3u "
                "mean_ms=%.2f speedup_vs_sync=%.2fx\n",
                leg.backend, leg.window, leg.depth, st.mean_ms, speedup);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"backend\": \"%s\", \"readahead\": %u, "
                  "\"depth\": %u, \"scan_ms\": ",
                  first ? "" : ",", leg.backend, leg.window, leg.depth);
    first = false;
    json += buf;
    AppendJsonRuns(&json, st);
    std::snprintf(buf, sizeof(buf),
                  ", \"mean_ms\": %.3f, \"speedup_vs_sync\": %.3f}",
                  st.mean_ms, speedup);
    json += buf;
  }
  json += "\n  ]";

  if (!SetIoBackend(prev_backend.c_str()).ok()) std::abort();
  SetIoQueueDepth(prev_depth);
  dv->reset();
  storage->reset();
  std::filesystem::remove_all(dir);
  return json;
}

void RunColdScanComparison(const BenchEnv& env, const std::string& codec_json,
                           const std::string& io_json) {
  // Run this section at a latency where PageFile sleeps instead of spinning
  // (1 ms threshold) so prefetch reads genuinely overlap with decode even on
  // small machines; overridable for experiments on faster "devices".
  const uint32_t latency_us =
      static_cast<uint32_t>(EnvU64("PAYG_SCAN_LATENCY_US", 1000));
  const int reps = static_cast<int>(EnvU64("PAYG_SCAN_REPS", 5));
  const uint32_t window = DefaultReadaheadWindow();

  StorageOptions opts;
  opts.page_size = static_cast<uint32_t>(EnvU64("PAYG_PAGE_SIZE", 8 * 1024));
  opts.simulated_read_latency_us = latency_us;
  const std::string dir = env.dir + "_scan";
  std::filesystem::remove_all(dir);
  auto storage = StorageManager::Open(dir, opts);
  BENCH_CHECK_OK(storage);
  ResourceManager rm;

  Random rng(404);
  std::vector<ValueId> vids(env.rows);
  for (uint64_t i = 0; i < env.rows; ++i) {
    vids[i] = static_cast<ValueId>(rng.Uniform(1000));  // 10-bit column
  }
  auto dv = PagedDataVector::Build(storage->get(), &rm, PoolId::kPagedPool,
                                   "scan_col", vids);
  BENCH_CHECK_OK(dv);

  std::printf("# fig4 cold scan — rows=%llu pages=%llu latency_us=%u "
              "readahead_window=%u reps=%d\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>((*dv)->data_page_count()),
              latency_us, window, reps);
  ScanStats off = ColdScan(dv->get(), 0, reps);
  ScanStats on = ColdScan(dv->get(), window, reps);
  const double speedup = on.mean_ms > 0 ? off.mean_ms / on.mean_ms : 0;
  std::printf("fig4_scan: readahead_off mean_ms=%.2f\n", off.mean_ms);
  std::printf("fig4_scan: readahead_on  mean_ms=%.2f prefetch_issued=%llu "
              "hits=%llu wasted=%llu\n",
              on.mean_ms, static_cast<unsigned long long>(on.prefetch_issued),
              static_cast<unsigned long long>(on.prefetch_hits),
              static_cast<unsigned long long>(on.prefetch_wasted));
  std::printf("fig4_scan: cold_scan_speedup=%.2fx\n", speedup);

  // Machine-readable snapshot for the committed BENCH_fig4.json.
  if (const char* path = std::getenv("PAYG_BENCH_JSON")) {
    std::string json = "{\n  \"bench\": \"fig4_cold_scan\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"rows\": %llu,\n  \"data_pages\": %llu,\n"
                  "  \"page_size\": %u,\n  \"latency_us\": %u,\n"
                  "  \"readahead_window\": %u,\n",
                  static_cast<unsigned long long>(env.rows),
                  static_cast<unsigned long long>((*dv)->data_page_count()),
                  opts.page_size, latency_us, window);
    json += buf;
    json += "  \"readahead_off_ms\": ";
    AppendJsonRuns(&json, off);
    json += ",\n  \"readahead_on_ms\": ";
    AppendJsonRuns(&json, on);
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"mean_off_ms\": %.3f,\n  \"mean_on_ms\": %.3f,\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"prefetch_issued\": %llu,\n  \"prefetch_hits\": %llu,\n"
                  "  \"prefetch_wasted\": %llu,\n",
                  off.mean_ms, on.mean_ms, speedup,
                  static_cast<unsigned long long>(on.prefetch_issued),
                  static_cast<unsigned long long>(on.prefetch_hits),
                  static_cast<unsigned long long>(on.prefetch_wasted));
    json += buf;
    json += "  \"io_sweep\": " + io_json + ",\n";
    json += "  \"codec_scan\": " + codec_json + "\n}\n";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      std::abort();
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("fig4_scan: wrote %s\n", path);
  }

  dv->reset();
  storage->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace payg::bench

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("fig4");
  std::string io_json = RunIoSweep(env);
  // The legacy sections run pinned to the sync backend so their numbers
  // stay comparable with snapshots taken before the backend existed; the
  // sweep above is where the backends face each other.
  if (!SetIoBackend("sync").ok()) std::abort();
  std::string codec_json = RunCodecScanComparison(env);
  RunColdScanComparison(env, codec_json, io_json);
  if (EnvU64("PAYG_SCAN_ONLY", 0) != 0) return 0;
  std::printf("# Fig 4 — Q_pk^num on T_b vs T_p: rows=%llu queries=%llu "
              "latency_us=%u\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>(env.queries), env.latency_us);
  RunFigure("fig4", env, TableVariant::kBase, TableVariant::kPagedAll,
            /*with_indexes=*/false, /*query_seed=*/401,
            [](Table* table, ErpWorkload& w) {
              uint64_t row = w.RandomRow();
              int col = w.RandomNumericColumn();
              auto r = table->SelectByValue("pk", w.PkOfRow(row),
                                            {w.columns()[col].name});
              BENCH_CHECK_OK(r);
              if (r->rows.size() != 1) std::abort();
            });
  return 0;
}
