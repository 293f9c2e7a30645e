// Ablation: page size of the paged chains. The paper fixes dictionary pages
// at 1 MB (§3.2.2) and stores an integral number of chunks per data-vector
// page; this sweep quantifies the trade-off behind those choices — larger
// pages amortize per-read latency but load more unnecessary bytes per point
// access (a larger mandatory footprint per touched page).
//
// Workload: random single-row point reads by primary key (Q_pk^str, the
// most page-sensitive path) against T_p at several page sizes.

#include "bench/bench_common.h"

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("ablation_page_size");
  const uint64_t queries = std::min<uint64_t>(env.queries, 500);
  std::printf("# Ablation — page size sweep (Q_pk^str on T_p): rows=%llu "
              "queries=%llu latency_us=%u\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>(queries), env.latency_us);
  std::printf("ablation_page_size: rows (page_kb, dict_page_kb, avg_query_us, "
              "final_mem_mb, pages_read)\n");

  const uint32_t page_sizes[] = {16 * 1024, 64 * 1024, 256 * 1024,
                                 1024 * 1024};
  for (uint32_t page_size : page_sizes) {
    std::string subdir = "ps_" + std::to_string(page_size / 1024);
    ColumnStoreOptions options = StoreOptions(env, subdir);
    options.storage.page_size = page_size;
    options.storage.dict_page_size = page_size * 4;
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

    ErpWorkload w(config, 1201);
    Stopwatch timer;
    for (uint64_t q = 0; q < queries; ++q) {
      uint64_t row = w.RandomRow();
      int col = w.RandomColumnOfType(ValueType::kString, false);
      auto r = (*table)->SelectByValue("pk", w.PkOfRow(row),
                                       {w.columns()[col].name});
      BENCH_CHECK_OK(r);
    }
    double avg_us = timer.ElapsedMicros() / static_cast<double>(queries);
    std::printf("ablation_page_size,%u,%u,%.1f,%.2f,%llu\n", page_size / 1024,
                options.storage.dict_page_size / 1024, avg_us,
                static_cast<double>((*store)->MemoryFootprint()) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(pages_read->value() -
                                                pages_read0));
  }
  std::filesystem::remove_all(env.dir);
  return 0;
}
