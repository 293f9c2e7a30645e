#ifndef PAYG_BENCH_BENCH_COMMON_H_
#define PAYG_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/stopwatch.h"
#include "core/column_store.h"
#include "obs/metrics.h"
#include "workload/erp.h"

namespace payg::bench {

// Scale knobs. The paper runs 100M rows × 128 columns × 10,000 queries on a
// 256 GB server; the defaults here reproduce the *shape* of every figure at
// workstation scale. Override with PAYG_ROWS / PAYG_QUERIES /
// PAYG_LATENCY_US to scale up.
struct BenchEnv {
  // Chosen so that pages-per-column ≈ queries-per-column, the regime the
  // paper's figures run in (100M rows, 10k queries, ~350 pages/column):
  // 1M rows at 8 KiB pages gives ~110 data pages per low-card column and
  // ~115 random queries per column.
  uint64_t rows = 500000;
  uint64_t queries = 1500;
  // Simulated per-page read latency (µs), standing in for the paper's real
  // cold reads from enterprise storage (see DESIGN.md, substitutions).
  uint32_t latency_us = 50;
  // Modeled per-query cost of the SQL front end (parsing, session, plan) —
  // identical for both variants, as in the paper's end-to-end measurements,
  // where a point query costs ~1ms through the full HANA stack. Without it,
  // this engine's raw µs-scale point reads would exaggerate every runtime
  // ratio. Set PAYG_SESSION_US=0 to measure raw engine ratios.
  uint32_t session_us = 250;
  std::string dir;
};

// Bench knobs parse strictly through common/env.h: unset or empty gives
// `fallback`; a malformed or negative value (PAYG_ROWS=abc) stops the bench
// instead of running it at some other scale.
inline uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* raw = EnvRaw(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const long v = EnvLong(name, -1, std::numeric_limits<long>::max(), -1);
  if (v < 0) {
    std::fprintf(stderr, "%s=%s is not a non-negative integer\n", name, raw);
    std::exit(2);
  }
  return static_cast<uint64_t>(v);
}

inline BenchEnv ReadEnv(const std::string& bench_name) {
  BenchEnv env;
  env.rows = EnvU64("PAYG_ROWS", env.rows);
  env.queries = EnvU64("PAYG_QUERIES", env.queries);
  env.latency_us =
      static_cast<uint32_t>(EnvU64("PAYG_LATENCY_US", env.latency_us));
  env.session_us =
      static_cast<uint32_t>(EnvU64("PAYG_SESSION_US", env.session_us));
  env.dir = std::filesystem::temp_directory_path().string() + "/payg_bench_" +
            bench_name;
  std::filesystem::remove_all(env.dir);
  return env;
}

inline ColumnStoreOptions StoreOptions(const BenchEnv& env,
                                       const std::string& subdir) {
  ColumnStoreOptions options;
  options.directory = env.dir + "/" + subdir;
  options.storage.page_size =
      static_cast<uint32_t>(EnvU64("PAYG_PAGE_SIZE", 8 * 1024));
  options.storage.dict_page_size =
      static_cast<uint32_t>(EnvU64("PAYG_DICT_PAGE_SIZE", 32 * 1024));
  options.storage.simulated_read_latency_us = env.latency_us;
  return options;
}

inline ErpConfig MakeConfig(const BenchEnv& env, TableVariant variant,
                            bool with_indexes) {
  ErpConfig config;
  config.rows = env.rows;
  config.variant = variant;
  config.with_indexes = with_indexes;
  return config;
}

// Builds one table variant in its own store (own resource manager, so the
// memory series of base and paged runs don't mix) and drops all resident
// memory afterwards — every bench starts from a cold system (§6.1).
struct VariantInstance {
  std::unique_ptr<ColumnStore> store;
  Table* table = nullptr;

  uint64_t MemoryFootprint() const { return store->MemoryFootprint(); }
};

inline VariantInstance BuildVariant(const BenchEnv& env,
                                    const std::string& subdir,
                                    TableVariant variant, bool with_indexes) {
  VariantInstance inst;
  auto store = ColumnStore::Open(StoreOptions(env, subdir));
  if (!store.ok()) {
    std::fprintf(stderr, "open store: %s\n", store.status().ToString().c_str());
    std::abort();
  }
  inst.store = std::move(*store);
  ErpConfig config = MakeConfig(env, variant, with_indexes);
  auto table = inst.store->CreateTable(MakeErpSchema(config, subdir));
  if (!table.ok()) {
    std::fprintf(stderr, "create table: %s\n",
                 table.status().ToString().c_str());
    std::abort();
  }
  inst.table = *table;
  auto s = PopulateErpTable(inst.table, config);
  if (!s.ok()) {
    std::fprintf(stderr, "populate: %s\n", s.ToString().c_str());
    std::abort();
  }
  // Cold start: building leaves nothing resident for paged fragments, but
  // make it explicit for both variants.
  inst.table->UnloadAll();
  return inst;
}

// Prints the engine-side registry view of one run: page-cache behaviour,
// physical read latency quantiles and page reads (storage.read.pages), and
// eviction work. Pair with MetricsRegistry::ResetAll() at the start of the
// measured phase so the numbers cover exactly that phase.
inline void PrintMetricsSnapshot(const std::string& tag) {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t hits = reg.counter("cache.hits")->value();
  const uint64_t misses = reg.counter("cache.misses")->value();
  const uint64_t lookups = hits + misses;
  const auto read = reg.histogram("storage.read.latency_us")->snapshot();
  const uint64_t reads = reg.counter("storage.read.pages")->value();
  const uint64_t evictions = reg.counter("rm.evictions.reactive")->value() +
                             reg.counter("rm.evictions.proactive")->value();
  const double evicted_mb =
      static_cast<double>(reg.counter("rm.evicted.bytes")->value()) /
      (1024.0 * 1024.0);
  std::printf(
      "%s: metrics cache_hit_ratio=%.3f (hits=%llu misses=%llu) "
      "read_latency_us p50=%.0f p95=%.0f p99=%.0f reads=%llu "
      "evictions=%llu evicted_mb=%.1f\n",
      tag.c_str(),
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), read.p50(), read.p95(),
      read.p99(), static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(evictions), evicted_mb);
}

// Mean and 90% confidence half-width (1.645 σ — the spread measure the
// paper quotes, e.g. "average 1.07 with 90% confidence interval of 0.29").
struct RatioSummary {
  double mean = 0;
  double ci90 = 0;
};

inline RatioSummary Summarize(const std::vector<double>& ratios) {
  RatioSummary s;
  if (ratios.empty()) return s;
  double sum = 0;
  for (double r : ratios) sum += r;
  s.mean = sum / static_cast<double>(ratios.size());
  double var = 0;
  for (double r : ratios) var += (r - s.mean) * (r - s.mean);
  var /= static_cast<double>(ratios.size());
  s.ci90 = 1.645 * std::sqrt(var);
  return s;
}

// Prints the per-query series the paper plots: memory footprint of both
// variants (subplot a) and the per-query runtime ratio paged/base
// (subplot b), downsampled to ~50 lines.
inline void PrintSeries(const std::string& fig,
                        const std::vector<uint64_t>& mem_base,
                        const std::vector<uint64_t>& mem_paged,
                        const std::vector<double>& t_base,
                        const std::vector<double>& t_paged) {
  const size_t n = mem_base.size();
  const size_t step = std::max<size_t>(1, n / 50);
  std::printf("%s: series (query_idx, mem_base_mb, mem_paged_mb, "
              "runtime_ratio)\n",
              fig.c_str());
  for (size_t i = 0; i < n; i += step) {
    std::printf("%s,%zu,%.2f,%.2f,%.3f\n", fig.c_str(), i,
                static_cast<double>(mem_base[i]) / (1024.0 * 1024.0),
                static_cast<double>(mem_paged[i]) / (1024.0 * 1024.0),
                t_paged[i] / std::max(t_base[i], 1e-9));
  }
  std::vector<double> ratios(n);
  for (size_t i = 0; i < n; ++i) {
    ratios[i] = t_paged[i] / std::max(t_base[i], 1e-9);
  }
  RatioSummary s = Summarize(ratios);
  std::printf("%s: avg_runtime_ratio=%.3f ci90=%.3f final_mem_base_mb=%.2f "
              "final_mem_paged_mb=%.2f\n",
              fig.c_str(), s.mean, s.ci90,
              static_cast<double>(mem_base.back()) / (1024.0 * 1024.0),
              static_cast<double>(mem_paged.back()) / (1024.0 * 1024.0));
}

// Runs one §6 figure experiment: the same deterministic query stream
// against the base variant and the paged variant (each in its own store,
// cold-started), recording per-query latency and the system memory
// footprint after each query — exactly the two series each figure plots.
template <typename QueryFn>
void RunFigure(const std::string& fig, const BenchEnv& env,
               TableVariant base_variant, TableVariant paged_variant,
               bool with_indexes, uint64_t query_seed, const QueryFn& run) {
  std::vector<uint64_t> mem_base, mem_paged;
  std::vector<double> t_base, t_paged;

  struct Run {
    TableVariant variant;
    std::string subdir;
    std::vector<uint64_t>* mem;
    std::vector<double>* t;
  };
  const Run runs[2] = {
      {base_variant, fig + "_base", &mem_base, &t_base},
      {paged_variant, fig + "_paged", &mem_paged, &t_paged},
  };
  for (const Run& r : runs) {
    VariantInstance inst = BuildVariant(env, r.subdir, r.variant,
                                        with_indexes);
    ErpConfig config = MakeConfig(env, r.variant, with_indexes);
    ErpWorkload workload(config, query_seed);
    r.mem->reserve(env.queries);
    r.t->reserve(env.queries);
    // Scope the registry to the measured query stream (not the build).
    obs::MetricsRegistry::Global().ResetAll();
    for (uint64_t q = 0; q < env.queries; ++q) {
      Stopwatch timer;
      SpinWaitMicros(env.session_us);  // modeled SQL-stack cost per query
      run(inst.table, workload);
      r.t->push_back(timer.ElapsedMicros());
      r.mem->push_back(inst.MemoryFootprint());
    }
    PrintMetricsSnapshot(r.subdir);
  }
  PrintSeries(fig, mem_base, mem_paged, t_base, t_paged);
  std::filesystem::remove_all(env.dir);
}

#define BENCH_CHECK_OK(expr)                                              \
  do {                                                                    \
    auto&& _s = (expr);                                                   \
    if (!_s.ok()) {                                                       \
      std::fprintf(stderr, "%s failed: %s\n", #expr,                      \
                   _s.status().ToString().c_str());                       \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

}  // namespace payg::bench

#endif  // PAYG_BENCH_BENCH_COMMON_H_
