// Ablation: the §5 eviction machinery. Sweeps the paged pool's upper/lower
// limits under a steady point-query stream on T_p and reports footprint,
// throughput, proactive eviction counts, and physical page re-reads — the
// performance/cost trade-off §4.1 describes for the tunable page pool.

#include "bench/bench_common.h"

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("ablation_eviction");
  const uint64_t queries = std::min<uint64_t>(env.queries, 1000);
  std::printf("# Ablation — paged pool limits (Q_pk^str stream on T_p): "
              "rows=%llu queries=%llu latency_us=%u\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>(queries), env.latency_us);
  std::printf("ablation_eviction: rows (upper_mb, lower_mb, avg_query_us, "
              "final_pool_mb, proactive_evictions, pages_read)\n");

  // 0 = unlimited pool (no proactive sweep) as the baseline.
  const uint64_t upper_limits_mb[] = {0, 16, 8, 4, 2};
  for (uint64_t upper_mb : upper_limits_mb) {
    std::string subdir = "ev_" + std::to_string(upper_mb);
    ColumnStoreOptions options = StoreOptions(env, subdir);
    if (upper_mb > 0) {
      options.paged_pool_limits = {upper_mb * 1024 * 1024 / 2,
                                   upper_mb * 1024 * 1024};
    }
    // Proactive evictions of this store, from its open on.
    obs::Counter* proactive =
        obs::MetricsRegistry::Global().counter("rm.evictions.proactive");
    const uint64_t proactive0 = proactive->value();
    auto store = ColumnStore::Open(options);
    BENCH_CHECK_OK(store);
    ErpConfig config = MakeConfig(env, TableVariant::kPagedAll, false);
    auto table = (*store)->CreateTable(MakeErpSchema(config, subdir));
    BENCH_CHECK_OK(table);
    auto populate = PopulateErpTable(*table, config);
    if (!populate.ok()) std::abort();
    (*table)->UnloadAll();
    obs::Counter* pages_read =
        obs::MetricsRegistry::Global().counter("storage.read.pages");
    const uint64_t pages_read0 = pages_read->value();

    ErpWorkload w(config, 1301);
    Stopwatch timer;
    for (uint64_t q = 0; q < queries; ++q) {
      uint64_t row = w.RandomRow();
      int col = w.RandomColumnOfType(ValueType::kString, false);
      auto r = (*table)->SelectByValue("pk", w.PkOfRow(row),
                                       {w.columns()[col].name});
      BENCH_CHECK_OK(r);
    }
    double avg_us = timer.ElapsedMicros() / static_cast<double>(queries);
    (*store)->resource_manager().SweepNow();
    std::printf("ablation_eviction,%llu,%llu,%.1f,%.2f,%llu,%llu\n",
                static_cast<unsigned long long>(upper_mb),
                static_cast<unsigned long long>(
                    options.paged_pool_limits.lower / (1024 * 1024)),
                avg_us,
                static_cast<double>(
                    (*store)->resource_manager().pool_bytes(
                        PoolId::kPagedPool)) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(proactive->value() -
                                                proactive0),
                static_cast<unsigned long long>(pages_read->value() -
                                                pages_read0));
  }
  std::filesystem::remove_all(env.dir);
  return 0;
}
