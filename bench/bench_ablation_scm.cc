// Ablation: Storage Class Memory for non-critical structures (§8). The
// paper proposes moving latency-sensitive, rebuildable structures — the
// inverted indexes and the dictionary helper indexes — to SCM and accessing
// them directly. This sweep runs the Fig-7 workload (a value's row ids via
// the paged inverted index: its directory and its postings) and the Fig-6
// workload (COUNT via findByValue through the helper dictionaries) with
// those chains at disk latency vs. SCM latency.

#include "bench/bench_common.h"

namespace payg::bench {
namespace {

struct Phase {
  double cold_avg_us;  // first 10% of the queries
  double warm_avg_us;  // the rest
};

Phase RunWorkload(Table* table, const ErpConfig& config, uint64_t queries,
                  uint32_t session_us, bool string_workload) {
  ErpWorkload w(config, 1401);
  const uint64_t cold_n = std::max<uint64_t>(1, queries / 10);
  double cold = 0, warm = 0;
  for (uint64_t q = 0; q < queries; ++q) {
    Stopwatch timer;
    SpinWaitMicros(session_us);
    int col = string_workload
                  ? w.RandomColumnOfType(ValueType::kString, w.rng().OneIn(3))
                  : w.RandomNumericColumn();
    if (col < 0) col = w.RandomColumnOfType(ValueType::kString, false);
    const std::string& name = w.columns()[col].name;
    if (string_workload) {
      BENCH_CHECK_OK(table->CountByValue(name, w.RandomValueOf(col)));
    } else {
      // A count stops at the directory; the row ids read the postings the
      // paper's count walks.
      BENCH_CHECK_OK(table->RowIdsByValue(name, w.RandomValueOf(col)));
    }
    (q < cold_n ? cold : warm) += timer.ElapsedMicros();
  }
  return {cold / static_cast<double>(cold_n),
          warm / static_cast<double>(queries - cold_n)};
}

}  // namespace
}  // namespace payg::bench

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("ablation_scm");
  const uint64_t queries = std::min<uint64_t>(env.queries, 1000);
  std::printf("# Ablation — SCM for non-critical structures (§8): rows=%llu "
              "queries=%llu disk_latency_us=%u scm_latency_us=2\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>(queries), env.latency_us);
  std::printf("ablation_scm: rows (workload, tier, cold_avg_us, "
              "warm_avg_us)\n");

  for (bool scm : {false, true}) {
    for (bool string_workload : {false, true}) {
      std::string subdir = std::string(scm ? "scm" : "disk") +
                           (string_workload ? "_str" : "_num");
      ColumnStoreOptions options = StoreOptions(env, subdir);
      options.storage.scm_for_noncritical = scm;
      options.storage.scm_read_latency_us = 2;
      auto store = ColumnStore::Open(options);
      BENCH_CHECK_OK(store);
      ErpConfig config = MakeConfig(env, TableVariant::kPagedAll,
                                    /*with_indexes=*/!string_workload);
      auto table = (*store)->CreateTable(MakeErpSchema(config, subdir));
      BENCH_CHECK_OK(table);
      if (!PopulateErpTable(*table, config).ok()) std::abort();
      (*table)->UnloadAll();
      Phase p = RunWorkload(*table, config, queries, env.session_us,
                            string_workload);
      std::printf("ablation_scm,%s,%s,%.1f,%.1f\n",
                  string_workload ? "dict_search" : "index_count",
                  scm ? "scm" : "disk", p.cold_avg_us, p.warm_avg_us);
    }
  }
  std::filesystem::remove_all(env.dir);
  return 0;
}
