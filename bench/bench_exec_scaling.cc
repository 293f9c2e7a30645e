// Concurrency scaling of the buffer hot path (sharded PageCache +
// lock-free pin/unpin): 1, 2, 4 and 8 client threads hammer GetPage on one
// page chain, measured in two regimes.
//
//   hot  — every page resident, unlimited budget: pure pin/touch/unpin on
//          the warm path. Before the sharding this serialized on two
//          process-wide mutexes; now a hit takes one shard mutex (which is
//          uncontended unless two threads collide on the same shard) and a
//          lock-free CAS pin. The "cache.lock_wait" histogram in the
//          per-setting output is the direct contention witness — near-zero
//          waits on a warm scan is the acceptance signal.
//   cold — tight budget plus simulated read latency: the miss path
//          (striped registration, reactive eviction, physical reads).
//
// Writes the committed BENCH_exec_scaling.json. The JSON carries a "cores"
// field: wall-clock speedup is bounded by physical parallelism, so on a
// single-core container the hot sweep shows contention *overhead* (flat or
// slightly declining ops/s with more threads) rather than speedup — the
// lock_wait histogram, not wall clock, is the meaningful signal there. See
// README, "reading the scaling bench".
//
// Knobs: PAYG_SCALE_PAGES (256), PAYG_SCALE_HOT_OPS (total GetPage calls
// per setting, 200000), PAYG_SCALE_COLD_OPS (20000), PAYG_LATENCY_US (50,
// cold phase only), PAYG_BENCH_JSON (output path).

#include <atomic>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/resource_manager.h"
#include "paged/page_cache.h"
#include "storage/page_file.h"

namespace {

using namespace payg;
using namespace payg::bench;

struct Sweep {
  std::vector<double> ops_per_sec;
  std::vector<double> speedup_vs_1;
  std::vector<uint64_t> lock_waits;
  std::vector<double> lock_wait_p95_us;
  std::vector<double> hit_ratio;
};

constexpr uint32_t kWorkerCounts[] = {1, 2, 4, 8};

// Runs `total_ops` GetPage calls split evenly over `workers` threads, all
// released from a spin barrier so the measured window is fully concurrent.
double RunSetting(PageCache* cache, uint64_t pages, uint32_t workers,
                  uint64_t total_ops, uint64_t seed) {
  std::atomic<bool> go{false};
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const uint64_t per_thread = total_ops / workers;
  for (uint32_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      Random rng(seed + t);
      while (!go.load(std::memory_order_acquire)) {
      }
      uint64_t local = 0;
      for (uint64_t i = 0; i < per_thread; ++i) {
        const LogicalPageNo lpn = rng.Uniform(pages);
        auto ref = cache->GetPage(lpn);
        if (!ref.ok()) {
          std::fprintf(stderr, "GetPage(%llu): %s\n",
                       static_cast<unsigned long long>(lpn),
                       ref.status().ToString().c_str());
          std::abort();
        }
        local += ref->page().header()->logical_page_no;
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  Stopwatch timer;
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double secs = timer.ElapsedMicros() / 1e6;
  return static_cast<double>(per_thread * workers) / secs;
}

void RecordSetting(Sweep* sweep, double ops_per_sec) {
  auto& reg = obs::MetricsRegistry::Global();
  const auto lock_wait = reg.histogram("cache.lock_wait")->snapshot();
  const uint64_t hits = reg.counter("cache.hits")->value();
  const uint64_t misses = reg.counter("cache.misses")->value();
  sweep->ops_per_sec.push_back(ops_per_sec);
  sweep->speedup_vs_1.push_back(ops_per_sec / sweep->ops_per_sec.front());
  sweep->lock_waits.push_back(lock_wait.count);
  sweep->lock_wait_p95_us.push_back(lock_wait.p95());
  sweep->hit_ratio.push_back(
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses));
}

void PrintSweep(const char* name, const Sweep& s) {
  std::printf("%s: workers,ops_per_sec,speedup_vs_1,lock_waits,"
              "lock_wait_p95_us,hit_ratio\n",
              name);
  for (size_t i = 0; i < s.ops_per_sec.size(); ++i) {
    std::printf("%s,%u,%.0f,%.2f,%llu,%.1f,%.4f\n", name, kWorkerCounts[i],
                s.ops_per_sec[i], s.speedup_vs_1[i],
                static_cast<unsigned long long>(s.lock_waits[i]),
                s.lock_wait_p95_us[i], s.hit_ratio[i]);
  }
}

void JsonArray(std::ofstream& out, const char* key,
               const std::vector<double>& v, const char* fmt) {
  out << "\"" << key << "\":[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v[i]);
    out << (i ? "," : "") << buf;
  }
  out << "]";
}

void JsonArray(std::ofstream& out, const char* key,
               const std::vector<uint64_t>& v) {
  out << "\"" << key << "\":[";
  for (size_t i = 0; i < v.size(); ++i) {
    out << (i ? "," : "") << v[i];
  }
  out << "]";
}

}  // namespace

int main() {
  const uint64_t pages = EnvU64("PAYG_SCALE_PAGES", 256);
  const uint64_t hot_ops = EnvU64("PAYG_SCALE_HOT_OPS", 200000);
  const uint64_t cold_ops = EnvU64("PAYG_SCALE_COLD_OPS", 20000);
  const uint32_t latency_us =
      static_cast<uint32_t>(EnvU64("PAYG_LATENCY_US", 50));
  const uint32_t page_size = 8 * 1024;
  const unsigned cores = std::thread::hardware_concurrency();
  const uint32_t shards = DefaultCacheShards();

  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/payg_bench_scaling";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::printf("# exec_scaling — GetPage throughput vs client threads: "
              "pages=%llu page_size=%u shards=%u cores=%u\n",
              static_cast<unsigned long long>(pages), page_size, shards,
              cores);

  StorageOptions opts;
  opts.page_size = page_size;
  auto file = PageFile::Create(dir + "/chain", page_size, opts);
  BENCH_CHECK_OK(file);
  for (uint64_t i = 0; i < pages; ++i) {
    Page page(page_size);
    page.header()->type = static_cast<uint16_t>(PageType::kDataVector);
    BENCH_CHECK_OK((*file)->AppendPage(&page));
  }

  // Hot sweep: everything resident (unlimited budget), prewarmed once, so
  // every measured GetPage is a warm hit.
  Sweep hot;
  {
    ResourceManager rm;
    PageCache cache(file->get(), &rm, PoolId::kPagedPool);
    for (uint64_t i = 0; i < pages; ++i) {
      auto ref = cache.GetPage(i);
      BENCH_CHECK_OK(ref);
    }
    for (uint32_t workers : kWorkerCounts) {
      obs::MetricsRegistry::Global().ResetAll();
      const double ops =
          RunSetting(&cache, pages, workers, hot_ops, /*seed=*/900 + workers);
      RecordSetting(&hot, ops);
    }
  }
  PrintSweep("hot", hot);

  // Cold sweep: simulated read latency plus a budget of pages/8, so most
  // accesses take the miss path (read, striped registration, reactive
  // eviction). A fresh latency-carrying PageFile view of the same chain.
  Sweep cold;
  {
    StorageOptions cold_opts;
    cold_opts.page_size = page_size;
    cold_opts.simulated_read_latency_us = latency_us;
    auto cold_file = PageFile::Open(dir + "/chain", page_size, cold_opts);
    BENCH_CHECK_OK(cold_file);
    ResourceManager rm;
    rm.SetGlobalBudget(pages / 8 * page_size);
    PageCache cache(cold_file->get(), &rm, PoolId::kPagedPool);
    for (uint32_t workers : kWorkerCounts) {
      cache.DropAll();
      obs::MetricsRegistry::Global().ResetAll();
      const double ops =
          RunSetting(&cache, pages, workers, cold_ops, /*seed=*/700 + workers);
      RecordSetting(&cold, ops);
    }
  }
  PrintSweep("cold", cold);

  const char* json_path = std::getenv("PAYG_BENCH_JSON");
  const std::string out_path =
      json_path != nullptr ? json_path : "BENCH_exec_scaling.json";
  std::ofstream out(out_path);
  out << "{\"bench\":\"exec_scaling\",\"cores\":" << cores
      << ",\"shards\":" << shards << ",\"pages\":" << pages
      << ",\"page_size\":" << page_size << ",\"hot_ops\":" << hot_ops
      << ",\"cold_ops\":" << cold_ops << ",\"latency_us\":" << latency_us
      << ",\"workers\":[1,2,4,8],\n";
  JsonArray(out, "hot_ops_per_sec", hot.ops_per_sec, "%.0f");
  out << ",";
  JsonArray(out, "hot_speedup_vs_1", hot.speedup_vs_1, "%.3f");
  out << ",";
  JsonArray(out, "hot_lock_waits", hot.lock_waits);
  out << ",";
  JsonArray(out, "hot_lock_wait_p95_us", hot.lock_wait_p95_us, "%.1f");
  out << ",";
  JsonArray(out, "hot_hit_ratio", hot.hit_ratio, "%.4f");
  out << ",\n";
  JsonArray(out, "cold_ops_per_sec", cold.ops_per_sec, "%.0f");
  out << ",";
  JsonArray(out, "cold_speedup_vs_1", cold.speedup_vs_1, "%.3f");
  out << ",";
  JsonArray(out, "cold_lock_waits", cold.lock_waits);
  out << ",";
  JsonArray(out, "cold_hit_ratio", cold.hit_ratio, "%.4f");
  out << ",\n\"note\":\"speedup_vs_1 is bounded by 'cores'; on a "
         "single-core host read lock_waits (contention), not wall clock\"}\n";
  out.close();
  std::printf("# wrote %s (cores=%u)\n", out_path.c_str(), cores);

  std::filesystem::remove_all(dir);
  return 0;
}
