// Closed-loop throughput/latency benchmark of the S25 network front door —
// the repo's first end-to-end (client → wire → admission → executor)
// benchmark. N client threads each run connect → request → think in a loop
// against payg_server's wire protocol; every request is timed client-side,
// so percentiles include queueing and the wire, not just the engine.
//
// Phases (self-hosted mode):
//   sweep    — clients ∈ {1, 8, 16} × {unbatched (PAYG_SERVER_MAX_BATCH=1
//              semantics), batched} point-lookup load on one table. The
//              lookup column is page loadable and unindexed, so each probe
//              costs a full (paged) scan — the regime where coalescing
//              same-partition probes into one search_in dispatch pays.
//              The acceptance signal: batched qps > unbatched qps and
//              batched p95 < unbatched p95 at >= 8 clients.
//   overload — undersized queue (4) + 1 worker + zero think time: the
//              admission layer must shed (fast kOverloaded responses,
//              bounded p99 for the survivors) instead of queueing
//              unboundedly.
//
// With PAYG_SERVER_CONNECT=<unix socket path> the bench instead drives an
// already-running payg_server (CI smoke does this) and runs a single sweep;
// shed is then counted from client-observed kOverloaded responses.
//
// Knobs: PAYG_BENCH_ROWS (500000), PAYG_BENCH_WORKERS (2),
// PAYG_BENCH_DURATION_MS (1500 per setting), PAYG_BENCH_CLIENTS
// ("1,8,16"), PAYG_THINK_US (100), PAYG_LATENCY_US (0), PAYG_BENCH_JSON
// (BENCH_server.json), PAYG_EXPECT_SHED (unset = record only; "0" = exit 1
// if the sweep shed, "1" = exit 1 unless shedding was observed).
//
// The default worker count is deliberately below the peak client count:
// batching only has something to coalesce once the admission queue builds,
// i.e. when the worker pool — not the client — is the bottleneck. Both
// variants run with the identical pool, so the comparison stays fair.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "core/column_store.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/seed.h"
#include "server/server.h"

namespace {

using namespace payg;
using namespace payg::server;
using payg::bench::EnvU64;

struct PhaseResult {
  uint64_t completed = 0;
  uint64_t shed = 0;    // client-observed kOverloaded
  uint64_t errors = 0;  // anything else non-OK
  double qps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double mean_batch = 0;  // server-side batch_size mean (self-host only)
};

// Nearest-rank percentile of a non-empty sorted sample.
double Percentile(const std::vector<uint64_t>& sorted, double q) {
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

// One closed-loop phase: `clients` threads of CountByValue lookups with
// `think_us` pause between requests, for `duration_ms` after a short
// warmup. Returns client-side stats.
PhaseResult RunPhase(const std::string& socket_path, uint32_t clients,
                     uint64_t duration_ms, uint64_t think_us,
                     uint64_t key_space) {
  PhaseResult result;
  std::atomic<bool> warm{true};
  std::atomic<bool> stop{false};
  std::vector<std::vector<uint64_t>> samples(clients);
  std::vector<uint64_t> sheds(clients, 0), errors(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);

  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::ConnectUnix(socket_path);
      if (!client.ok()) {
        errors[t] += 1;
        return;
      }
      std::mt19937_64 rng(0x5EED5EEDull + t);
      samples[t].reserve(1 << 16);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto key = static_cast<int64_t>(rng() % key_space);
        const auto t0 = std::chrono::steady_clock::now();
        auto count = (*client)->CountByValue("T", "k", Value(key));
        const auto us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (!warm.load(std::memory_order_relaxed)) {
          if (count.ok()) {
            samples[t].push_back(us);
          } else if ((*client)->last_code() == wire::Code::kOverloaded) {
            sheds[t] += 1;
          } else {
            errors[t] += 1;
          }
        }
        if (think_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(think_us));
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warmup
  warm.store(false);
  const auto begin = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  std::vector<uint64_t> all;
  for (uint32_t t = 0; t < clients; ++t) {
    all.insert(all.end(), samples[t].begin(), samples[t].end());
    result.shed += sheds[t];
    result.errors += errors[t];
  }
  std::sort(all.begin(), all.end());
  result.completed = all.size();
  result.qps = secs > 0 ? static_cast<double>(all.size()) / secs : 0;
  if (!all.empty()) {
    result.p50_us = Percentile(all, 0.50);
    result.p95_us = Percentile(all, 0.95);
    result.p99_us = Percentile(all, 0.99);
  }
  return result;
}

// Prints one phase. A phase that completed no request has no latency to
// report, so it is an error rather than a row of zeros; returns false then.
bool ReportPhase(const char* label, uint32_t clients, const PhaseResult& r) {
  std::printf(
      "%-10s clients=%2u qps=%9.0f p50=%7.0fus p95=%7.0fus p99=%7.0fus "
      "completed=%8llu shed=%llu errors=%llu mean_batch=%.2f\n",
      label, clients, r.qps, r.p50_us, r.p95_us, r.p99_us,
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.errors), r.mean_batch);
  std::fflush(stdout);
  if (r.completed == 0) {
    std::fprintf(stderr, "%s phase at %u clients completed no request\n",
                 label, clients);
    return false;
  }
  return true;
}

void JsonArray(std::ofstream& out, const char* key,
               const std::vector<double>& values, const char* fmt) {
  out << "\"" << key << "\":[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, fmt, values[i]);
    out << (i > 0 ? "," : "") << buf;
  }
  out << "]";
}

}  // namespace

int main() {
  const uint64_t rows = EnvU64("PAYG_BENCH_ROWS", 500000);
  const auto sweep_workers =
      static_cast<uint32_t>(EnvU64("PAYG_BENCH_WORKERS", 2));
  const uint64_t key_space = rows >= 8 ? rows / 8 : 1;
  const uint64_t duration_ms = EnvU64("PAYG_BENCH_DURATION_MS", 1500);
  const uint64_t think_us = EnvU64("PAYG_THINK_US", 100);
  const auto latency_us =
      static_cast<uint32_t>(EnvU64("PAYG_LATENCY_US", 0));

  std::vector<uint32_t> client_counts;
  {
    const char* spec = EnvRaw("PAYG_BENCH_CLIENTS");
    std::string s = spec != nullptr ? spec : "1,8,16";
    size_t pos = 0;
    while (pos < s.size()) {
      client_counts.push_back(
          static_cast<uint32_t>(std::strtoul(s.c_str() + pos, nullptr, 10)));
      pos = s.find(',', pos);
      if (pos == std::string::npos) break;
      ++pos;
    }
  }

  const char* connect_path = EnvRaw("PAYG_SERVER_CONNECT");
  const char* expect_shed = EnvRaw("PAYG_EXPECT_SHED");

  std::vector<double> unbatched_qps, unbatched_p50, unbatched_p95,
      unbatched_p99;
  std::vector<double> batched_qps, batched_p50, batched_p95, batched_p99,
      batched_mean_batch;
  PhaseResult overload;
  uint64_t sweep_shed = 0;
  bool ran_overload = false;

  std::unique_ptr<ColumnStore> store;
  std::string dir;

  if (connect_path != nullptr) {
    // Drive an external payg_server: one sweep, client-side stats only.
    std::printf("# bench_server: connect mode, socket=%s\n", connect_path);
    for (uint32_t clients : client_counts) {
      PhaseResult r =
          RunPhase(connect_path, clients, duration_ms, think_us, key_space);
      if (!ReportPhase("connect", clients, r)) return 1;
      batched_qps.push_back(r.qps);
      batched_p50.push_back(r.p50_us);
      batched_p95.push_back(r.p95_us);
      batched_p99.push_back(r.p99_us);
      sweep_shed += r.shed;
      overload = r;  // last setting doubles as the shed probe in CI smoke
      ran_overload = true;
    }
  } else {
    dir = std::filesystem::temp_directory_path().string() + "/payg_bench_server";
    std::filesystem::remove_all(dir);
    ColumnStoreOptions store_options;
    store_options.directory = dir + "/data";
    store_options.storage.page_size = 8 * 1024;
    store_options.storage.dict_page_size = 32 * 1024;
    store_options.storage.simulated_read_latency_us = latency_us;
    auto opened = ColumnStore::Open(store_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(*opened);
    Status seeded = SeedDemoTable(store.get(), {.rows = rows,
                                                .key_space = key_space});
    if (!seeded.ok()) {
      std::fprintf(stderr, "seed: %s\n", seeded.ToString().c_str());
      return 1;
    }
    std::printf("# bench_server: selfhost, rows=%llu key_space=%llu "
                "think=%lluus duration=%llums\n",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(key_space),
                static_cast<unsigned long long>(think_us),
                static_cast<unsigned long long>(duration_ms));

    auto* batch_size_hist =
        obs::MetricsRegistry::Global().histogram("server.batch_size");

    // Sweep: unbatched vs batched at each client count, fresh server per
    // variant so max_batch differs while everything else is equal load.
    for (const bool batched : {false, true}) {
      for (uint32_t clients : client_counts) {
        ServerOptions options;
        options.unix_path = dir + "/sock";
        options.worker_threads = sweep_workers;
        options.max_batch = batched ? 64 : 1;
        Server server(store.get(), options);
        Status started = server.Start();
        if (!started.ok()) {
          std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
          return 1;
        }
        const uint64_t size0 = batch_size_hist->sum();
        const uint64_t cnt0 = batch_size_hist->count();
        PhaseResult r = RunPhase(options.unix_path, clients, duration_ms,
                                 think_us, key_space);
        const uint64_t batches = batch_size_hist->count() - cnt0;
        r.mean_batch = batches > 0
                           ? static_cast<double>(batch_size_hist->sum() - size0) /
                                 static_cast<double>(batches)
                           : 0;
        server.Stop();
        if (!ReportPhase(batched ? "batched" : "unbatched", clients, r)) {
          return 1;
        }
        sweep_shed += r.shed;
        if (batched) {
          batched_qps.push_back(r.qps);
          batched_p50.push_back(r.p50_us);
          batched_p95.push_back(r.p95_us);
          batched_p99.push_back(r.p99_us);
          batched_mean_batch.push_back(r.mean_batch);
        } else {
          unbatched_qps.push_back(r.qps);
          unbatched_p50.push_back(r.p50_us);
          unbatched_p95.push_back(r.p95_us);
          unbatched_p99.push_back(r.p99_us);
        }
      }
    }

    // Overload: undersized queue, one worker, no think time. The survivors'
    // p99 stays bounded because excess load is refused at admission.
    {
      ServerOptions options;
      options.unix_path = dir + "/sock";
      options.worker_threads = 1;
      options.queue_capacity = 4;
      options.max_batch = 64;
      Server server(store.get(), options);
      Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
        return 1;
      }
      overload = RunPhase(options.unix_path, 16, duration_ms,
                          /*think_us=*/0, key_space);
      server.Stop();
      ran_overload = true;
      if (!ReportPhase("overload", 16, overload)) return 1;
    }
  }

  const char* json_path = EnvRaw("PAYG_BENCH_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_server.json";
  std::ofstream out(out_path);
  out << "{\"bench\":\"server\",\"mode\":\""
      << (connect_path != nullptr ? "connect" : "selfhost")
      << "\",\"rows\":" << rows << ",\"key_space\":" << key_space
      << ",\"duration_ms\":" << duration_ms << ",\"think_us\":" << think_us
      << ",\"latency_us\":" << latency_us << ",\"clients\":[";
  for (size_t i = 0; i < client_counts.size(); ++i) {
    out << (i > 0 ? "," : "") << client_counts[i];
  }
  out << "],\n";
  if (!unbatched_qps.empty()) {
    JsonArray(out, "unbatched_qps", unbatched_qps, "%.0f");
    out << ",";
    JsonArray(out, "unbatched_p50_us", unbatched_p50, "%.0f");
    out << ",";
    JsonArray(out, "unbatched_p95_us", unbatched_p95, "%.0f");
    out << ",";
    JsonArray(out, "unbatched_p99_us", unbatched_p99, "%.0f");
    out << ",\n";
  }
  JsonArray(out, "batched_qps", batched_qps, "%.0f");
  out << ",";
  JsonArray(out, "batched_p50_us", batched_p50, "%.0f");
  out << ",";
  JsonArray(out, "batched_p95_us", batched_p95, "%.0f");
  out << ",";
  JsonArray(out, "batched_p99_us", batched_p99, "%.0f");
  if (!batched_mean_batch.empty()) {
    out << ",";
    JsonArray(out, "batched_mean_batch", batched_mean_batch, "%.2f");
  }
  if (ran_overload) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\n\"overload\":{\"clients\":16,\"queue\":4,"
                  "\"workers\":1,\"qps\":%.0f,\"p99_us\":%.0f,"
                  "\"completed\":%llu,\"shed\":%llu,\"errors\":%llu}",
                  overload.qps, overload.p99_us,
                  static_cast<unsigned long long>(overload.completed),
                  static_cast<unsigned long long>(overload.shed),
                  static_cast<unsigned long long>(overload.errors));
    out << buf;
  }
  out << ",\n\"note\":\"closed loop, client-side timing: latency includes "
         "queueing and the wire; unbatched = PAYG_SERVER_MAX_BATCH 1\"}\n";
  out.close();
  std::printf("# wrote %s\n", out_path.c_str());

  if (!dir.empty()) {
    store.reset();
    std::filesystem::remove_all(dir);
  }

  // CI smoke gates: shed must not happen at healthy load, and must happen
  // in the overload phase (or connect-mode probe) when demanded.
  if (expect_shed != nullptr) {
    if (std::strcmp(expect_shed, "0") == 0) {
      const uint64_t observed =
          connect_path != nullptr ? sweep_shed + overload.shed : sweep_shed;
      if (observed != 0) {
        std::fprintf(stderr,
                     "PAYG_EXPECT_SHED=0 but %llu requests were shed\n",
                     static_cast<unsigned long long>(observed));
        return 1;
      }
    } else {
      if (overload.shed == 0) {
        std::fprintf(stderr,
                     "PAYG_EXPECT_SHED=%s but the overload phase shed 0\n",
                     expect_shed);
        return 1;
      }
    }
  }
  return 0;
}
