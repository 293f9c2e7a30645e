// Fig. 7: multiple reads through the paged inverted index. Workload
// Q_num^count on T_b^i vs. T_p^i (one inverted index per column, §6.2.3).
// The paper's count walks the value's postings, so each query here is
// SELECT ROWID() FROM T WHERE C_num = value, which reads what that walk
// reads; the engine's COUNT(*) stops at the directory.
//
// The numeric dictionary is resident, so each query exercises only the
// paged inverted index: one directory access plus postinglist reads. Most
// columns are sparse (low cardinality), so their paged index has a mixed
// page; each search needs at most two page accesses, putting the ratio
// between Fig. 4 (data vector) and Fig. 6 (dictionary search).

#include "bench/bench_common.h"

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("fig7");
  std::printf("# Fig 7 — Q_num^count on T_b^i vs T_p^i: rows=%llu "
              "queries=%llu latency_us=%u\n",
              static_cast<unsigned long long>(env.rows),
              static_cast<unsigned long long>(env.queries), env.latency_us);
  RunFigure("fig7", env, TableVariant::kBase, TableVariant::kPagedAll,
            /*with_indexes=*/true, /*query_seed=*/701,
            [](Table* table, ErpWorkload& w) {
              // High-cardinality numeric columns keep result sets (and the
              // baseline count cost) small, isolating index access cost.
              bool high = !w.rng().OneIn(4);
              int col = w.RandomColumnOfType(ValueType::kInt64, high);
              if (col < 0) col = w.RandomColumnOfType(ValueType::kInt64,
                                                      false);
              auto r = table->RowIdsByValue(w.columns()[col].name,
                                            w.RandomValueOf(col));
              BENCH_CHECK_OK(r);
            });
  return 0;
}
