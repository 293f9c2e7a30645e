// Ablation: adaptive/deferred index rebuild (§8). Compares three index
// regimes for a page loadable column over the same lifecycle — build (the
// delta-merge cost), first lookups (where the deferred regime pays its
// rebuild), and a steady lookup stream:
//
//   eager     index built during the merge (classic §3.3 behaviour)
//   deferred  index rebuilt from the data vector at the first lookup
//   none      every lookup is an Alg.-1 data vector scan
//
// §8's claim is that for rarely-point-queried columns the deferred regime
// saves the merge-time build without giving up index speed once queries
// arrive; "none" shows what skipping the index entirely costs.

#include "bench/bench_common.h"

#include "buffer/resource_manager.h"
#include "paged/paged_fragment.h"

int main() {
  using namespace payg;
  using namespace payg::bench;
  BenchEnv env = ReadEnv("ablation_deferred");
  const uint64_t rows = env.rows;
  const uint64_t lookups = 200;
  const uint64_t cardinality = 1000;
  std::printf("# Ablation — deferred index rebuild (§8): rows=%llu "
              "lookups=%llu latency_us=%u\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(lookups), env.latency_us);
  std::printf("ablation_deferred: rows (mode, build_ms, first_lookup_ms, "
              "steady_avg_us)\n");

  // Shared column content.
  std::vector<int64_t> dict_values;
  for (uint64_t i = 0; i < cardinality; ++i) {
    dict_values.push_back(static_cast<int64_t>(i));
  }
  Random data_rng(7);
  std::vector<ValueId> vids;
  vids.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    vids.push_back(static_cast<ValueId>(data_rng.Uniform(cardinality)));
  }

  const struct {
    PagedFragment::IndexMode mode;
    const char* label;
  } modes[] = {{PagedFragment::IndexMode::kEager, "eager"},
               {PagedFragment::IndexMode::kDeferred, "deferred"},
               {PagedFragment::IndexMode::kNone, "none"}};

  for (const auto& m : modes) {
    ColumnStoreOptions options = StoreOptions(env, m.label);
    auto storage = StorageManager::Open(options.directory, options.storage);
    BENCH_CHECK_OK(storage);
    ResourceManager rm;

    Stopwatch build_timer;
    auto frag = PagedFragment::Build(storage->get(), &rm, PoolId::kPagedPool,
                                     "col", dict_values, vids, m.mode,
                                     /*index_build_threshold=*/1);
    BENCH_CHECK_OK(frag);
    double build_ms = build_timer.ElapsedMillis();

    (*frag)->Unload();
    auto reader = (*frag)->NewReader();
    BENCH_CHECK_OK(reader);

    Random rng(99);
    Stopwatch first_timer;
    std::vector<RowPos> out;
    {
      auto s = (*reader)->FindRows(
          static_cast<ValueId>(rng.Uniform(cardinality)), &out);
      if (!s.ok()) std::abort();
    }
    double first_ms = first_timer.ElapsedMillis();

    Stopwatch steady_timer;
    for (uint64_t q = 1; q < lookups; ++q) {
      out.clear();
      auto s = (*reader)->FindRows(
          static_cast<ValueId>(rng.Uniform(cardinality)), &out);
      if (!s.ok()) std::abort();
    }
    double steady_us =
        steady_timer.ElapsedMicros() / static_cast<double>(lookups - 1);

    std::printf("ablation_deferred,%s,%.1f,%.2f,%.1f\n", m.label, build_ms,
                first_ms, steady_us);
  }
  std::filesystem::remove_all(env.dir);
  return 0;
}
