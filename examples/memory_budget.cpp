// Memory management (§5): a global memory budget with reactive eviction,
// paged-pool lower/upper limits with proactive eviction, and the weighted
// LRU over whole columns. Watch the footprint stay bounded while a query
// stream sweeps a table larger than the budget.
//
//   ./memory_budget [directory]

#include <cstdio>

#include "common/random.h"
#include "core/column_store.h"
#include "obs/metrics.h"
#include "workload/erp.h"

using namespace payg;

int main(int argc, char** argv) {
  ColumnStoreOptions options;
  options.directory = argc > 1 ? argv[1] : "/tmp/payg_memory_budget";
  options.memory_budget = 16 << 20;          // 16 MiB for everything
  options.paged_pool_limits = {1 << 20, 3 << 20};  // lower=1MiB upper=3MiB

  // Eviction counts of this store, from its open on.
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* reactive = reg.counter("rm.evictions.reactive");
  obs::Counter* proactive = reg.counter("rm.evictions.proactive");
  const uint64_t reactive0 = reactive->value();
  const uint64_t proactive0 = proactive->value();
  auto store = ColumnStore::Open(options);
  if (!store.ok()) return 1;
  const ResourceManager& rm = (*store)->resource_manager();

  // An ERP-like table (≈30 columns here) with every non-pk column page
  // loadable.
  ErpConfig config;
  config.rows = 200000;
  config.low_card_int_cols = 10;
  config.low_card_str_cols = 10;
  config.decimal_cols = 2;
  config.double_cols = 2;
  config.high_card_int_cols = 2;
  config.high_card_str_cols = 2;
  config.variant = TableVariant::kPagedAll;
  auto table = (*store)->CreateTable(MakeErpSchema(config, "erp"));
  if (!table.ok()) return 1;
  if (!PopulateErpTable(*table, config).ok()) return 1;
  (*table)->UnloadAll();

  std::printf("budget=%.0f MB, paged pool lower/upper = %.0f/%.0f MB\n",
              options.memory_budget / 1048576.0,
              options.paged_pool_limits.lower / 1048576.0,
              options.paged_pool_limits.upper / 1048576.0);
  std::printf("query_batch, footprint_mb, paged_pool_mb, reactive_evictions, "
              "proactive_evictions\n");

  ErpWorkload workload(config, 99);
  for (int batch = 0; batch < 10; ++batch) {
    for (int q = 0; q < 200; ++q) {
      uint64_t row = workload.RandomRow();
      int col = workload.RandomNumericColumn();
      auto r = (*table)->SelectByValue("pk", workload.PkOfRow(row),
                                       {workload.columns()[col].name});
      if (!r.ok() || r->rows.size() != 1) {
        std::fprintf(stderr, "query failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    std::printf("%d, %.2f, %.2f, %llu, %llu\n", batch,
                static_cast<double>(rm.total_bytes()) / 1048576.0,
                static_cast<double>(rm.pool_bytes(PoolId::kPagedPool)) /
                    1048576.0,
                static_cast<unsigned long long>(reactive->value() - reactive0),
                static_cast<unsigned long long>(proactive->value() -
                                                proactive0));
  }

  // Despite sweeping far more data than the budget, the footprint stayed
  // bounded: pages were evicted LRU-first, and whole resident columns (the
  // pk) were only evicted when the paged pools alone could not satisfy the
  // budget.
  const uint64_t footprint = rm.total_bytes();
  std::printf("final footprint: %.2f MB (budget %.0f MB)\n",
              static_cast<double>(footprint) / 1048576.0,
              options.memory_budget / 1048576.0);
  return footprint <= options.memory_budget * 2 ? 0 : 1;
}
