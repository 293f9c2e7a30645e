#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <string_view>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "counter_delta.h"
#include "paged/fragment_factory.h"
#include "paged/page_cache.h"
#include "storage/io_backend.h"
#include "table/table.h"
#include "test_util.h"

namespace payg {
namespace {

TableSchema OrdersSchema(bool paged_cold_columns,
                         const std::string& name = "orders") {
  TableSchema schema;
  schema.name = name;
  schema.columns.push_back({"id", ValueType::kString, paged_cold_columns,
                            /*with_index=*/true, /*primary_key=*/true});
  schema.columns.push_back(
      {"aging_date", ValueType::kInt64, paged_cold_columns, false, false});
  schema.columns.push_back(
      {"status", ValueType::kString, paged_cold_columns, false, false});
  schema.columns.push_back(
      {"amount", ValueType::kInt64, paged_cold_columns, false, false});
  schema.temperature_column = 1;
  return schema;
}

std::vector<Value> OrderRow(uint64_t id, int64_t date,
                            const std::string& status, int64_t amount) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ORD%08llu",
                static_cast<unsigned long long>(id));
  return {Value(std::string(buf)), Value(date), Value(status), Value(amount)};
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("table");
    std::filesystem::remove_all(dir_);
    auto sm = StorageManager::Open(dir_, Options());
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
    rm_ = std::make_unique<ResourceManager>();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  static StorageOptions Options() {
    StorageOptions opts;
    opts.page_size = 8192;
    opts.dict_page_size = 8192;
    return opts;
  }

  // Files in the store directory whose names start with `prefix`.
  std::vector<std::string> FilesWithPrefix(const std::string& prefix) const {
    std::vector<std::string> names;
    for (auto& e : std::filesystem::directory_iterator(dir_)) {
      std::string name = e.path().filename().string();
      if (name.rfind(prefix, 0) == 0) names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::unique_ptr<Table> MakeOrders(bool paged, int rows,
                                    const std::string& name = "orders") {
    auto table = std::make_unique<Table>(OrdersSchema(paged, name),
                                         storage_.get(), rm_.get());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(table
                      ->Insert(OrderRow(i, /*date=*/i, "S" + std::to_string(i % 5),
                                        i * 100))
                      .ok());
    }
    return table;
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(TableTest, InsertsLandInDelta) {
  auto table = MakeOrders(false, 10);
  EXPECT_EQ(table->row_count(), 10u);
  EXPECT_EQ(table->hot()->delta_row_count(), 10u);
  EXPECT_EQ(table->hot()->main_row_count(), 0u);
}

TEST_F(TableTest, InsertValidatesShape) {
  auto table = MakeOrders(false, 0);
  EXPECT_FALSE(table->Insert({Value(int64_t{1})}).ok());  // wrong width
  EXPECT_FALSE(table
                   ->Insert({Value(int64_t{1}), Value(int64_t{2}),
                             Value(int64_t{3}), Value(int64_t{4})})
                   .ok());  // wrong type in col 0
}

TEST_F(TableTest, QueriesSeeDeltaRows) {
  auto table = MakeOrders(false, 100);
  auto count = table->CountByValue("status", Value(std::string("S3")));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 20u);
  auto rows = table->SelectByValue("id", OrderRow(42, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][3].AsInt64(), 4200);
}

TEST_F(TableTest, MergeMovesDeltaToMain) {
  auto table = MakeOrders(false, 100);
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->delta_row_count(), 0u);
  EXPECT_EQ(table->hot()->main_row_count(), 100u);
  // Queries still see everything.
  auto count = table->CountByValue("status", Value(std::string("S3")));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
  auto rows = table->SelectByValue("id", OrderRow(42, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][3].AsInt64(), 4200);
}

TEST_F(TableTest, QueriesSpanMainAndDelta) {
  auto table = MakeOrders(false, 50);
  ASSERT_TRUE(table->MergeAll().ok());
  // New rows after the merge land in the delta again.
  for (int i = 50; i < 80; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }
  auto count = table->CountByValue("status", Value(std::string("S0")));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 16u);  // 10 in main (0..49), 6 in delta (50..79)
}

TEST_F(TableTest, SecondMergeCombinesOldMainAndNewDelta) {
  auto table = MakeOrders(false, 50);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 50; i < 80; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->main_row_count(), 80u);
  for (int id : {0, 49, 50, 79}) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
    EXPECT_EQ(rows->rows[0][3].AsInt64(), id * 100);
  }
}

TEST_F(TableTest, RangeQueries) {
  auto table = MakeOrders(false, 200);
  ASSERT_TRUE(table->MergeAll().ok());
  auto rows = table->SelectRange("id", OrderRow(10, 0, "", 0)[0],
                                 OrderRow(19, 0, "", 0)[0], {"amount"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 10u);
  auto sum = table->SumRange("id", OrderRow(10, 0, "", 0)[0],
                             OrderRow(19, 0, "", 0)[0], "amount");
  ASSERT_TRUE(sum.ok());
  double expect = 0;
  for (int i = 10; i <= 19; ++i) expect += i * 100;
  EXPECT_DOUBLE_EQ(*sum, expect);
}

TEST_F(TableTest, RangeQuerySpansMainAndDelta) {
  auto table = MakeOrders(false, 30);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 30; i < 40; ++i) {
    ASSERT_TRUE(table->Insert(OrderRow(i, i, "S0", i * 100)).ok());
  }
  auto sum = table->SumRange("id", OrderRow(25, 0, "", 0)[0],
                             OrderRow(34, 0, "", 0)[0], "amount");
  ASSERT_TRUE(sum.ok());
  double expect = 0;
  for (int i = 25; i <= 34; ++i) expect += i * 100;
  EXPECT_DOUBLE_EQ(*sum, expect);
}

TEST_F(TableTest, RowIdsByValue) {
  auto table = MakeOrders(false, 20);
  ASSERT_TRUE(table->MergeAll().ok());
  auto ids = table->RowIdsByValue("id", OrderRow(7, 0, "", 0)[0]);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  EXPECT_EQ((*ids)[0].partition, 0u);
}

TEST_F(TableTest, AgingMovesRowsToColdPartition) {
  auto table = MakeOrders(false, 100);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  // Age rows with date <= 39 (the 40 oldest).
  auto moved = table->AgeRows(Value(int64_t{39}));
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 40u);
  // The move is ordinary DML: rows sit in the cold delta, hot rows are
  // deletion-marked, and total visible rows stay constant.
  EXPECT_EQ(table->partition(1)->delta_row_count(), 40u);
  EXPECT_EQ(table->hot()->visible_row_count(), 60u);
  EXPECT_EQ(table->visible_row_count(), 100u);
  // Queries still return exactly one row per id, even mid-move.
  auto rows = table->SelectByValue("id", OrderRow(5, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][3].AsInt64(), 500);
}

TEST_F(TableTest, AgingThenMergePersistsColdMain) {
  auto table = MakeOrders(true, 100);  // page loadable columns
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  ASSERT_TRUE(table->AgeRows(Value(int64_t{49})).ok());
  ASSERT_TRUE(table->MergeAll().ok());
  // Hot kept 50 visible rows, cold got 50, deltas are empty.
  EXPECT_EQ(table->hot()->main_row_count(), 50u);
  EXPECT_EQ(table->partition(1)->main_row_count(), 50u);
  EXPECT_EQ(table->partition(1)->delta_row_count(), 0u);
  // Cold rows are served from page loadable main fragments.
  EXPECT_TRUE(table->partition(1)->main(0)->is_paged());
  for (int id : {0, 49, 50, 99}) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
    EXPECT_EQ(rows->rows[0][3].AsInt64(), id * 100);
  }
  // Cold pages go to the cold paged pool.
  EXPECT_GT(rm_->pool_bytes(PoolId::kColdPagedPool), 0u);
}

TEST_F(TableTest, AgingRequiresColdPartition) {
  auto table = MakeOrders(false, 10);
  auto moved = table->AgeRows(Value(int64_t{5}));
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TableTest, AgingRequiresTemperatureColumn) {
  TableSchema schema;
  schema.name = "noage";
  schema.columns.push_back({"k", ValueType::kInt64, false, false, true});
  Table table(schema, storage_.get(), rm_.get());
  ASSERT_TRUE(table.AddColdPartition().ok());
  auto moved = table.AgeRows(Value(int64_t{5}));
  EXPECT_FALSE(moved.ok());
}

TEST_F(TableTest, DeletedRowsAreInvisibleAndCompactedByMerge) {
  auto table = MakeOrders(false, 10);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->hot()->MarkDeleted(3).ok());
  ASSERT_TRUE(table->hot()->MarkDeleted(7).ok());
  EXPECT_EQ(table->visible_row_count(), 8u);
  auto rows = table->SelectByValue("id", OrderRow(3, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->main_row_count(), 8u);
  EXPECT_EQ(table->visible_row_count(), 8u);
  // Survivors keep their values.
  auto r4 = table->SelectByValue("id", OrderRow(4, 0, "", 0)[0], {});
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r4->rows.size(), 1u);
  EXPECT_EQ(r4->rows[0][3].AsInt64(), 400);
}

TEST_F(TableTest, PagedVariantAnswersSameAsBase) {
  auto base = MakeOrders(false, 300, "orders_b");
  auto paged = MakeOrders(true, 300, "orders_p");
  ASSERT_TRUE(base->MergeAll().ok());
  ASSERT_TRUE(paged->MergeAll().ok());
  Random rng(3);
  for (int i = 0; i < 20; ++i) {
    int id = static_cast<int>(rng.Uniform(300));
    auto a = base->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    auto b = paged->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->rows.size(), 1u);
    ASSERT_EQ(b->rows.size(), 1u);
    for (size_t c = 0; c < a->rows[0].size(); ++c) {
      EXPECT_TRUE(a->rows[0][c] == b->rows[0][c]);
    }
  }
}

TEST_F(TableTest, UnloadAllReleasesMemory) {
  auto table = MakeOrders(true, 500);
  ASSERT_TRUE(table->MergeAll().ok());
  auto rows = table->SelectByValue("id", OrderRow(100, 0, "", 0)[0], {});
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(table->ResidentBytes(), 0u);
  table->UnloadAll();
  EXPECT_EQ(table->ResidentBytes(), 0u);
  // Still queryable afterwards.
  auto again = table->SelectByValue("id", OrderRow(100, 0, "", 0)[0], {});
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->rows.size(), 1u);
}

TEST_F(TableTest, SelectColumnsSubset) {
  auto table = MakeOrders(false, 10);
  ASSERT_TRUE(table->MergeAll().ok());
  auto rows =
      table->SelectByValue("id", OrderRow(5, 0, "", 0)[0], {"amount", "status"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  ASSERT_EQ(rows->rows[0].size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 500);
  EXPECT_EQ(rows->rows[0][1].AsString(), "S0");
}

TEST_F(TableTest, UnknownColumnsAreRejected) {
  auto table = MakeOrders(false, 5);
  EXPECT_FALSE(table->CountByValue("nope", Value(int64_t{1})).ok());
  EXPECT_FALSE(
      table->SelectByValue("id", Value(std::string("x")), {"nope"}).ok());
  EXPECT_FALSE(table
                   ->SumRange("id", Value(std::string("a")),
                              Value(std::string("b")), "status")
                   .ok());  // SUM over string
}

TEST_F(TableTest, MergeVacuumsReplacedChains) {
  auto table = MakeOrders(true, 50, "vac");
  ASSERT_TRUE(table->MergeAll().ok());
  auto count_files = [&] { return FilesWithPrefix("vac_").size(); };
  size_t after_first = count_files();
  ASSERT_GT(after_first, 0u);
  // More inserts and repeated merges must not accumulate chain files: each
  // merge replaces and vacuums the previous generation.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          table->Insert(OrderRow(1000 + gen * 10 + i, i, "S1", i)).ok());
    }
    ASSERT_TRUE(table->MergeAll().ok());
  }
  EXPECT_EQ(count_files(), after_first);
}

// Every file in the store directory, by name.
std::map<std::string, std::string> ReadDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST_F(TableTest, SecondMergeAllWithNoChangeTouchesNothing) {
  for (bool paged : {false, true}) {
    const std::string name = paged ? "idle_paged" : "idle_resident";
    auto table = MakeOrders(paged, 200, name);
    ASSERT_TRUE(table->AddColdPartition().ok());
    ASSERT_TRUE(table->AgeRows(Value(int64_t{49})).ok());
    // A partition never merged still merges, so its catalog entry names
    // chains: the empty cold partition gets generation 1.
    ASSERT_TRUE(table->AddColdPartition().ok());
    ASSERT_TRUE(table->MergeAll().ok());
    ASSERT_EQ(table->partition(2)->merge_generation(), 1u);
    ASSERT_EQ(table->partition(2)->main_row_count(), 0u);

    std::vector<uint64_t> generations;
    for (uint32_t p = 0; p < table->partition_count(); ++p) {
      generations.push_back(table->partition(p)->merge_generation());
    }
    const auto files = ReadDirectory(dir_);
    CounterDelta pages_written("storage.write.pages");
    ASSERT_TRUE(table->MergeAll().ok());
    EXPECT_EQ(pages_written(), 0u);
    for (uint32_t p = 0; p < table->partition_count(); ++p) {
      EXPECT_EQ(table->partition(p)->merge_generation(), generations[p]);
    }
    EXPECT_TRUE(ReadDirectory(dir_) == files) << name;
    EXPECT_EQ(table->visible_row_count(), 200u);
  }
}

TEST_F(TableTest, DeferredIndexColumnThroughTable) {
  TableSchema schema;
  schema.name = "lazy";
  schema.columns.push_back({"k", ValueType::kString, true, true, true});
  schema.columns.push_back({.name = "v",
                            .type = ValueType::kInt64,
                            .page_loadable = true,
                            .with_index = true,
                            .primary_key = false,
                            .defer_index = true});
  Table table(schema, storage_.get(), rm_.get());
  for (int i = 0; i < 200; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%04d", i);
    ASSERT_TRUE(
        table.Insert({Value(std::string(buf)), Value(int64_t{i % 10})}).ok());
  }
  ASSERT_TRUE(table.MergeAll().ok());
  EXPECT_FALSE(table.hot()->main(1)->has_index());
  // The first value lookup triggers the workload-driven rebuild.
  auto count = table.CountByValue("v", Value(int64_t{3}));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
  EXPECT_TRUE(table.hot()->main(1)->has_index());
}

TEST_F(TableTest, MultipleColdPartitionsAgeIncrementally) {
  auto table = MakeOrders(true, 90);
  ASSERT_TRUE(table->MergeAll().ok());
  // First aging wave into cold partition 1.
  ASSERT_TRUE(table->AddColdPartition().ok());
  auto moved1 = table->AgeRows(Value(int64_t{29}));
  ASSERT_TRUE(moved1.ok());
  EXPECT_EQ(*moved1, 30u);
  ASSERT_TRUE(table->MergeAll().ok());
  // Second wave into a NEW cold partition (AgeRows targets the newest).
  ASSERT_TRUE(table->AddColdPartition().ok());
  auto moved2 = table->AgeRows(Value(int64_t{59}));
  ASSERT_TRUE(moved2.ok());
  EXPECT_EQ(*moved2, 30u);
  ASSERT_TRUE(table->MergeAll().ok());

  EXPECT_EQ(table->partition_count(), 3u);
  EXPECT_EQ(table->hot()->main_row_count(), 30u);
  EXPECT_EQ(table->partition(1)->main_row_count(), 30u);
  EXPECT_EQ(table->partition(2)->main_row_count(), 30u);
  // Every row remains reachable exactly once.
  for (int id = 0; id < 90; id += 7) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
  }
  // Re-aging with the same threshold moves nothing (already cold).
  auto moved3 = table->AgeRows(Value(int64_t{59}));
  ASSERT_TRUE(moved3.ok());
  EXPECT_EQ(*moved3, 0u);
}

TEST_F(TableTest, AgingMovesUnmergedDeltaRowsToo) {
  // Rows that are still in the hot delta when aging runs must move as well:
  // the aging predicate is evaluated across main AND delta (§4.2 — the move
  // is ordinary DML, independent of merge state).
  auto table = MakeOrders(true, 40);
  ASSERT_TRUE(table->MergeAll().ok());
  for (int i = 40; i < 60; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }
  ASSERT_TRUE(table->AddColdPartition().ok());
  // Threshold 49 covers 40 merged rows and 10 delta rows.
  auto moved = table->AgeRows(Value(int64_t{49}));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 50u);
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(table->hot()->main_row_count(), 10u);
  EXPECT_EQ(table->partition(1)->main_row_count(), 50u);
  for (int id : {0, 39, 45, 49, 50, 59}) {
    auto rows = table->SelectByValue("id", OrderRow(id, 0, "", 0)[0], {});
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), 1u) << "id " << id;
    EXPECT_EQ(rows->rows[0][3].AsInt64(), id * 100);
  }
}

TEST_F(TableTest, SumRangeSkipsDeletedRows) {
  auto table = MakeOrders(false, 20);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->hot()->MarkDeleted(5).ok());
  auto sum = table->SumRange("id", OrderRow(0, 0, "", 0)[0],
                             OrderRow(9, 0, "", 0)[0], "amount");
  ASSERT_TRUE(sum.ok());
  double expect = 0;
  for (int i = 0; i <= 9; ++i) {
    if (i != 5) expect += i * 100;
  }
  EXPECT_DOUBLE_EQ(*sum, expect);
}

TEST_F(TableTest, ColumnStatsView) {
  auto table = MakeOrders(true, 100);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  ASSERT_TRUE(table->AgeRows(Value(int64_t{49})).ok());
  ASSERT_TRUE(table->MergeAll().ok());

  auto stats = table->CollectColumnStats();
  // 2 partitions × 4 columns.
  ASSERT_EQ(stats.size(), 8u);
  uint64_t hot_rows = 0, cold_rows = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.table, "orders");
    EXPECT_EQ(s.delta_rows, 0u);  // merged
    if (s.partition == 0) {
      EXPECT_FALSE(s.cold);
      hot_rows = s.main_rows;
    } else {
      EXPECT_TRUE(s.cold);
      cold_rows = s.main_rows;
    }
    if (s.column == "id") {
      EXPECT_TRUE(s.has_index);
    }
    EXPECT_GT(s.dict_size, 0u);
  }
  EXPECT_EQ(hot_rows, 50u);
  EXPECT_EQ(cold_rows, 50u);

  // After a query, the touched columns report resident bytes.
  auto r = table->SelectByValue("id", OrderRow(10, 0, "", 0)[0], {"amount"});
  ASSERT_TRUE(r.ok());
  uint64_t resident = 0;
  for (const auto& s : table->CollectColumnStats()) {
    resident += s.resident_bytes;
  }
  EXPECT_GT(resident, 0u);
}

TEST_F(TableTest, BulkLoadMatchesInsertPath) {
  TableSchema schema;
  schema.name = "bulk";
  schema.columns.push_back({"k", ValueType::kInt64, false, true, true});
  schema.columns.push_back({"v", ValueType::kInt64, true, false, false});
  Table table(schema, storage_.get(), rm_.get());
  std::vector<Value> dict_k, dict_v;
  for (int64_t i = 0; i < 100; ++i) dict_k.emplace_back(i);
  for (int64_t i = 0; i < 10; ++i) dict_v.emplace_back(i * 5);
  std::vector<ValueId> vids_k, vids_v;
  for (ValueId i = 0; i < 100; ++i) {
    vids_k.push_back(i);
    vids_v.push_back(i % 10);
  }
  ASSERT_TRUE(table.hot()->BulkLoadColumn(0, dict_k, vids_k).ok());
  ASSERT_TRUE(table.hot()->BulkLoadColumn(1, dict_v, vids_v).ok());
  EXPECT_EQ(table.row_count(), 100u);
  auto rows = table.SelectByValue("k", Value(int64_t{42}), {"v"});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), (42 % 10) * 5);
}

// The bulk load converts its dictionary to the column's typed array once,
// and a value of another type is refused, not converted.
TEST_F(TableTest, BulkLoadRejectsValueOfAnotherType) {
  TableSchema schema;
  schema.name = "bulk_typed";
  schema.columns.push_back({"k", ValueType::kInt64, false, false, false});
  Table table(schema, storage_.get(), rm_.get());
  const std::vector<Value> dict = {Value(int64_t{1}), Value(std::string("2"))};
  EXPECT_EQ(table.hot()->BulkLoadColumn(0, dict, {0, 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.row_count(), 0u);
  EXPECT_EQ(table.hot()->main(0), nullptr);
}

// S25 multi-probe path: element i of Multi{Select,Count}ByValue must equal
// the i-th individual lookup, over a table with a paged main, a cold
// partition and live delta rows. The CI codec matrix re-runs this test
// with PAYG_FORCE_CODEC=plain/for/rle, which is what proves equivalence on
// all three codecs (the knob is parsed once per process).
TEST_F(TableTest, MultiSelectByValueMatchesIndividualLookups) {
  auto table = MakeOrders(true, 300);
  ASSERT_TRUE(table->MergeAll().ok());
  ASSERT_TRUE(table->AddColdPartition().ok());
  ASSERT_TRUE(table->AgeRows(Value(int64_t{99})).ok());
  ASSERT_TRUE(table->MergeAll().ok());
  // Fresh delta rows on top of both mains.
  for (int i = 300; i < 330; ++i) {
    ASSERT_TRUE(
        table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
            .ok());
  }

  // Duplicates, absent values and an indexed unique column probe mix.
  std::vector<Value> probes;
  for (const char* s : {"S3", "S0", "S3", "S9", "S4", "S1", "S0"}) {
    probes.emplace_back(std::string(s));
  }
  auto multi = table->MultiSelectByValue("status", probes, {"id", "amount"});
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    auto single = table->SelectByValue("status", probes[i], {"id", "amount"});
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ((*multi)[i], *single) << "probe " << i;
  }

  auto counts = table->MultiCountByValue("status", probes);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  ASSERT_EQ(counts->size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    auto single = table->CountByValue("status", probes[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*counts)[i], *single) << "probe " << i;
  }

  // The unique indexed column works through the same path.
  std::vector<Value> id_probes = {OrderRow(7, 0, "", 0)[0],
                                  OrderRow(310, 0, "", 0)[0],
                                  OrderRow(7, 0, "", 0)[0],
                                  Value(std::string("ORD99999999"))};
  auto by_id = table->MultiSelectByValue("id", id_probes, {"amount"});
  ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
  ASSERT_EQ((*by_id)[0].rows.size(), 1u);
  EXPECT_EQ((*by_id)[0].rows[0][0].AsInt64(), 700);
  ASSERT_EQ((*by_id)[1].rows.size(), 1u);
  EXPECT_EQ((*by_id)[1].rows[0][0].AsInt64(), 31000);
  EXPECT_EQ((*by_id)[2], (*by_id)[0]);
  EXPECT_TRUE((*by_id)[3].rows.empty());

  // A mistyped probe is rejected at the API boundary, not asserted deeper.
  auto bad = table->MultiCountByValue("status", {Value(int64_t{3})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Empty probe set is a no-op, not an error.
  auto empty = table->MultiCountByValue("status", {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// Every entry point checks its operands against the schema and fails with
// InvalidArgument instead of reaching the engine's typed compares.
TEST_F(TableTest, MistypedOperandsAreRejected) {
  auto table = MakeOrders(false, 50);
  ASSERT_TRUE(table->MergeAll().ok());
  const Value one(int64_t{1});
  const Value seven(std::string("seven"));  // "amount" is an int column
  const Predicate s1 = Predicate::Eq("status", Value(std::string("S1")));
  auto code = [](const auto& result) { return result.status().code(); };
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;

  EXPECT_EQ(code(table->SelectByValue("amount", seven, {})), kInvalid);
  EXPECT_EQ(code(table->CountByValue("amount", seven)), kInvalid);
  EXPECT_EQ(code(table->RowIdsByValue("amount", seven)), kInvalid);
  EXPECT_EQ(code(table->SelectRange("amount", one, seven, {})), kInvalid);
  EXPECT_EQ(code(table->SumRange("amount", seven, one, "amount")), kInvalid);
  EXPECT_EQ(code(table->SelectIn("amount", {one, seven}, {})), kInvalid);
  EXPECT_EQ(code(table->CountIn("amount", {seven})), kInvalid);
  EXPECT_EQ(code(table->SelectPrefix("amount", "1", {})), kInvalid);
  EXPECT_EQ(code(table->CountPrefix("amount", "1")), kInvalid);
  EXPECT_EQ(code(table->MultiSelectByValue("amount", {one, seven}, {})),
            kInvalid);
  EXPECT_EQ(code(table->MultiCountByValue("amount", {seven})), kInvalid);
  EXPECT_EQ(code(table->SelectWhere(
                {s1, Predicate::Between("amount", one, seven)}, {})),
            kInvalid);
  EXPECT_EQ(code(table->CountWhere({s1, Predicate::In("id", {one})})),
            kInvalid);
  EXPECT_EQ(code(table->CountWhere({Predicate::Eq("id", one)})), kInvalid);
  // Aging compares the threshold with the int temperature column.
  ASSERT_TRUE(table->AddColdPartition().ok());
  EXPECT_EQ(code(table->AgeRows(seven)), kInvalid);
}

// A conjunct is checked before any row is, so the outcome cannot depend on
// which rows the earlier conjuncts left (or whether any are left).
TEST_F(TableTest, ConjunctChecksDoNotDependOnData) {
  auto table = MakeOrders(false, 20);
  for (bool merged : {false, true}) {
    SCOPED_TRACE(merged ? "main rows" : "delta rows");
    if (merged) {
      ASSERT_TRUE(table->MergeAll().ok());
    }
    auto prefix = table->CountWhere(
        {Predicate::Eq("status", Value(std::string("S1"))),
         Predicate::Prefix("amount", "1")});
    EXPECT_EQ(prefix.status().code(), StatusCode::kInvalidArgument);
    // "S1" leaves candidates for the second conjunct, "S9" leaves none.
    for (const char* status : {"S1", "S9"}) {
      auto unknown = table->CountWhere(
          {Predicate::Eq("status", Value(std::string(status))),
           Predicate::Eq("nope", Value(int64_t{1}))});
      EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound) << status;
    }
  }
}

// --- doubles -----------------------------------------------------------------
//
// Every dictionary is sorted by Value::Compare, which orders doubles only
// when none is NaN and treats -0.0 and 0.0 as one value.

TableSchema DoubleSchema(const std::string& name, bool paged) {
  TableSchema schema;
  schema.name = name;
  schema.columns = {{"x", ValueType::kDouble, paged, /*with_index=*/true,
                     false}};
  return schema;
}

TEST_F(TableTest, NaNRowsAndOperandsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table table(DoubleSchema("nan", true), storage_.get(), rm_.get());
  for (int i = 0; i < 200; ++i) {
    const bool is_nan = i % 10 == 3;
    Status s = table.Insert({Value(is_nan ? nan : i * 7.5)});
    EXPECT_EQ(s.code(), is_nan ? StatusCode::kInvalidArgument : StatusCode::kOk)
        << i;
  }
  EXPECT_EQ(table.row_count(), 180u);
  auto code = [](const auto& result) { return result.status().code(); };
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
  const Value one(1.0);
  for (bool merged : {false, true}) {
    SCOPED_TRACE(merged ? "main rows" : "delta rows");
    if (merged) {
      ASSERT_TRUE(table.MergeAll().ok());
    }
    auto all = table.CountWhere(
        {Predicate::Between("x", Value(0.0), Value(2000.0))});
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(*all, 180u);
    EXPECT_EQ(code(table.CountByValue("x", Value(nan))), kInvalid);
    EXPECT_EQ(code(table.SelectRange("x", Value(nan), one, {})), kInvalid);
    EXPECT_EQ(code(table.SumRange("x", one, Value(nan), "x")), kInvalid);
    EXPECT_EQ(code(table.CountIn("x", {one, Value(nan)})), kInvalid);
    EXPECT_EQ(code(table.MultiCountByValue("x", {Value(nan)})), kInvalid);
    EXPECT_EQ(code(table.CountWhere({Predicate::Eq("x", Value(nan))})),
              kInvalid);
  }
}

TEST_F(TableTest, NegativeZeroIsZero) {
  for (bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "paged" : "resident");
    Table table(DoubleSchema(paged ? "z_p" : "z_r", paged), storage_.get(),
                rm_.get());
    ASSERT_TRUE(table.Insert({Value(-0.0)}).ok());
    ASSERT_TRUE(table.Insert({Value(1.0)}).ok());
    ASSERT_TRUE(table.Insert({Value(0.0)}).ok());
    // One delta dictionary entry for both zeros.
    EXPECT_EQ(table.hot()->delta(0)->dict_size(), 2u);
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      for (const Value& zero : {Value(0.0), Value(-0.0)}) {
        auto eq = table.CountByValue("x", zero);
        ASSERT_TRUE(eq.ok());
        EXPECT_EQ(*eq, 2u + round);
        auto in = table.CountIn("x", {zero});
        ASSERT_TRUE(in.ok());
        EXPECT_EQ(*in, 2u + round);
        auto range = table.CountWhere({Predicate::Between("x", zero, zero)});
        ASSERT_TRUE(range.ok());
        EXPECT_EQ(*range, 2u + round);
      }
      // The next round adds a zero to the delta, beside the merged ones.
      ASSERT_TRUE(table.MergeAll().ok());
      EXPECT_EQ(table.hot()->main(0)->dict_size(), 2u);
      ASSERT_TRUE(table.Insert({Value(round % 2 == 0 ? -0.0 : 0.0)}).ok());
    }
  }
}

// --- failed merge ----------------------------------------------------------
//
// A merge that fails part-way leaves the partition, its generation and the
// store directory as they were.

std::atomic<int> g_merge_reads{0};
std::atomic<int> g_fail_from{-1};  // first read (0-based) to fail; -1: none
std::string g_probe_prefix;        // chain files to look for at the fault
std::string g_probe_dir;
std::atomic<bool> g_probe_seen{false};

int MergeReadHook() {
  const int n = g_merge_reads.fetch_add(1);
  const int fail_from = g_fail_from.load();
  if (fail_from < 0 || n < fail_from) return 0;
  if (n == fail_from) {
    for (auto& e : std::filesystem::directory_iterator(g_probe_dir)) {
      if (e.path().filename().string().rfind(g_probe_prefix, 0) == 0) {
        g_probe_seen = true;
      }
    }
  }
  return EIO;
}

TEST_F(TableTest, FailedMergeLeavesPartitionAsItWas) {
  constexpr int kRows = 20000;
  auto make = [&](const std::string& name) {
    TableSchema schema;
    schema.name = name;
    for (int c = 0; c < 3; ++c) {
      schema.columns.push_back({"c" + std::to_string(c), ValueType::kInt64,
                                /*page_loadable=*/true, false, false});
    }
    auto table = std::make_unique<Table>(schema, storage_.get(), rm_.get());
    for (int64_t i = 0; i <= kRows; ++i) {
      // c2's 20k-value dictionary makes it the column most reads serve.
      EXPECT_TRUE(
          table->Insert({Value(i % 13), Value(i * 7 % 1000), Value(i)}).ok());
      if (i + 1 == kRows) {
        EXPECT_TRUE(table->MergeAll().ok());
      }
    }
    table->hot()->UnloadAll();
    return table;
  };

  // A twin of the same shape counts the reads one merge makes.
  auto twin = make("twin");
  g_merge_reads = 0;
  g_fail_from = -1;
  SetIoFaultHookForTest(&MergeReadHook);
  Status twin_merge = twin->MergeAll();
  SetIoFaultHookForTest(nullptr);
  ASSERT_TRUE(twin_merge.ok()) << twin_merge.ToString();
  const int reads = g_merge_reads.load();
  ASSERT_GE(reads, 6);

  auto table = make("victim");
  Partition* part = table->hot();
  const uint64_t gen = part->merge_generation();
  const std::string old_gen = "_g" + std::to_string(gen) + ".";
  const std::string new_gen = "_g" + std::to_string(gen + 1) + ".";
  auto files_of = [&](const std::string& generation) {
    std::vector<std::string> names;
    for (std::string& name : FilesWithPrefix("victim_")) {
      if (name.find(generation) != std::string::npos) names.push_back(name);
    }
    return names;
  };
  const std::vector<std::string> before = FilesWithPrefix("victim_");
  ASSERT_EQ(files_of(old_gen), before);
  ASSERT_FALSE(before.empty());

  // Fail the second half of the merge's reads, by which point column c0's
  // next-generation chains are on disk (the probe checks).
  g_merge_reads = 0;
  g_fail_from = reads / 2;
  g_probe_dir = dir_;
  g_probe_prefix = "victim_p0_c0" + new_gen;
  g_probe_seen = false;
  SetIoFaultHookForTest(&MergeReadHook);
  Status failed = table->MergeAll();
  SetIoFaultHookForTest(nullptr);
  g_fail_from = -1;
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_TRUE(g_probe_seen.load());

  EXPECT_EQ(part->merge_generation(), gen);
  EXPECT_EQ(FilesWithPrefix("victim_"), before);
  EXPECT_EQ(part->main_row_count(), static_cast<uint64_t>(kRows));
  EXPECT_EQ(part->delta_row_count(), 1u);
  auto visible = [&] {
    auto n = table->CountWhere({Predicate::Between(
        "c2", Value(int64_t{0}), Value(int64_t{kRows}))});
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ok() ? *n : 0;
  };
  EXPECT_EQ(visible(), static_cast<uint64_t>(kRows) + 1);
  auto last = table->SelectByValue("c2", Value(int64_t{kRows - 1}), {});
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_EQ(last->rows.size(), 1u);
  EXPECT_EQ(last->rows[0][1], Value(int64_t{(kRows - 1) * 7 % 1000}));

  // The retry succeeds and leaves exactly one generation on disk.
  ASSERT_TRUE(table->MergeAll().ok());
  EXPECT_EQ(part->merge_generation(), gen + 1);
  EXPECT_EQ(part->main_row_count(), static_cast<uint64_t>(kRows) + 1);
  EXPECT_TRUE(files_of(old_gen).empty());
  EXPECT_EQ(files_of(new_gen).size(), before.size());
  EXPECT_EQ(FilesWithPrefix("victim_").size(), before.size());
  EXPECT_EQ(visible(), static_cast<uint64_t>(kRows) + 1);
}

// --- differential oracle ----------------------------------------------------
//
// Every query entry point, plus random 1–3-conjunct WHERE clauses, against
// a brute-force scan of Partition::GetRow over the visible rows. The table
// has a merged main, an unmerged delta, deleted rows and an aged cold
// partition, resident and paged, and runs at 0 and 2 executor workers.

// A unique indexed key, an indexed int with duplicates, a string column
// over the bytes {a, b, 0xFE, 0xFF} (prefix successors carry and vanish),
// a double and the int temperature column.
TableSchema OracleSchema(const std::string& name, bool paged) {
  TableSchema schema;
  schema.name = name;
  schema.columns = {{"id", ValueType::kString, paged, true, true},
                    {"k", ValueType::kInt64, paged, true, false},
                    {"s", ValueType::kString, paged, false, false},
                    {"d", ValueType::kDouble, paged, false, false},
                    {"t", ValueType::kInt64, paged, false, false}};
  schema.temperature_column = 4;
  return schema;
}

std::string RandomBytes(Random* rng, uint64_t max_len) {
  static constexpr char kAlphabet[] = {'a', 'b', '\xfe', '\xff'};
  std::string s(rng->Uniform(max_len + 1), 'a');
  for (char& c : s) c = kAlphabet[rng->Uniform(4)];
  return s;
}

Value OracleKey(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "R%05llu",
                static_cast<unsigned long long>(id));
  return Value(std::string(buf));
}

std::vector<Value> OracleInsertRow(Random* rng, uint64_t id) {
  return {OracleKey(id), Value(static_cast<int64_t>(rng->Uniform(60))),
          Value(RandomBytes(rng, 3)), Value(0.5 * rng->Uniform(40)),
          Value(static_cast<int64_t>(rng->Uniform(1000)))};
}

// An operand for column `col`: mostly values the table holds, sometimes
// absent ones (past the key space, odd quarters, four-byte strings).
Value OracleOperand(Random* rng, int col, uint64_t ids) {
  switch (col) {
    case 0:
      return OracleKey(rng->Uniform(ids + 20));
    case 1:
      return Value(static_cast<int64_t>(rng->Uniform(70)) - 5);
    case 2:
      return Value(RandomBytes(rng, 4));
    case 3:
      return Value(0.25 * rng->Uniform(90));
    default:
      return Value(static_cast<int64_t>(rng->Uniform(1100)));
  }
}

Predicate RandomConjunct(Random* rng, const TableSchema& schema,
                         uint64_t ids) {
  const int col = static_cast<int>(rng->Uniform(schema.columns.size()));
  const std::string& name = schema.columns[col].name;
  const bool text = schema.columns[col].type == ValueType::kString;
  switch (rng->Uniform(text ? 4 : 3)) {
    case 0:
      return Predicate::Eq(name, OracleOperand(rng, col, ids));
    case 1:  // lo > hi about half the time
      return Predicate::Between(name, OracleOperand(rng, col, ids),
                                OracleOperand(rng, col, ids));
    case 2: {
      // Up to 39 values: lists past 16 take the chunked set search.
      std::vector<Value> values(rng->Uniform(40));
      for (Value& v : values) v = OracleOperand(rng, col, ids);
      return Predicate::In(name, std::move(values));
    }
    default: {
      // Includes "", prefixes ending in 0xFF and all-0xFF prefixes.
      std::string prefix = col == 0 ? OracleKey(rng->Uniform(ids)).AsString()
                                    : RandomBytes(rng, 3);
      prefix.resize(rng->Uniform(prefix.size() + 1));
      return Predicate::Prefix(name, std::move(prefix));
    }
  }
}

struct OracleRow {
  RowId id;
  std::vector<Value> values;
};

bool OracleMatches(const Predicate& p, const Value& v) {
  switch (p.op) {
    case Predicate::Op::kEq:
      return v == p.value;
    case Predicate::Op::kBetween:
      return !(v < p.lo) && !(p.hi < v);
    case Predicate::Op::kIn:
      for (const Value& x : p.values) {
        if (v == x) return true;
      }
      return false;
    case Predicate::Op::kPrefix:
      return std::string_view(v.AsString()).starts_with(p.prefix);
  }
  return false;
}

int FailEveryRead() { return EIO; }

// Materialize loads a row's data-vector pages, one per column, in one batch
// (PageCache::LoadBatch) before its column loop pins them.
TEST_F(TableTest, MaterializeLoadsTheColumnsPagesInOneBatch) {
  constexpr int kRows = 20000;
  auto base = MakeOrders(false, kRows, "orders_b");
  auto paged = MakeOrders(true, kRows, "orders_p");
  ASSERT_TRUE(base->MergeAll().ok());
  ASSERT_TRUE(paged->MergeAll().ok());
  paged->UnloadAll();
  const uint64_t k = OrdersSchema(true).columns.size();
  const auto key = [](int id) { return OrderRow(id, 0, "", 0)[0]; };
  const auto expect_same = [&](int id, const Result<QueryResult>& got) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = base->SelectByValue("id", key(id), {});
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->rows.size(), 1u);
    EXPECT_TRUE(got->rows == want->rows) << "row " << id;
  };

  // A point select on the cold table: the index lookup reads no data
  // vector, so the batch holds exactly the k data-vector pages of the row,
  // and the column loop pins each of them once.
  {
    CacheCounters counters;
    ExecContext ctx;
    expect_same(12345, paged->SelectByValue("id", key(12345), {}, &ctx));
    EXPECT_EQ(ctx.stats.io_batches.load(), 1u);
    EXPECT_EQ(ctx.stats.prefetch_issued.load(), k);
    EXPECT_EQ(counters.prefetch_issued(), k);
    EXPECT_EQ(counters.prefetch_hits(), k);
    EXPECT_EQ(counters.prefetch_wasted(), 0u);
  }
  // The same select again finds every page resident and issues nothing.
  {
    CacheCounters counters;
    ExecContext ctx;
    expect_same(12345, paged->SelectByValue("id", key(12345), {}, &ctx));
    EXPECT_EQ(ctx.stats.io_batches.load(), 0u);
    EXPECT_EQ(counters.prefetch_issued(), 0u);
  }
  // 1000 contiguous rows across a data-page boundary of the key column:
  // the batch takes at most IoQueueDepth() pages of each column. The count
  // first warms the filter column, so the select's own search issues no
  // readahead and every prefetch counted is the batch's.
  {
    const uint32_t saved_depth = IoQueueDepth();
    const auto pages_of = [&](int col, RowPos first) {
      std::vector<RowPos> rows(1000);
      std::iota(rows.begin(), rows.end(), first);
      std::vector<PageLoad> pages;
      paged->hot()->main(col)->AddRowPages(rows, &pages);
      return pages.size();
    };
    RowPos first = 0;
    while (first + 1000 <= kRows && pages_of(0, first) < 2) first += 500;
    ASSERT_LE(first + 1000, static_cast<RowPos>(kRows)) << "no page boundary";
    SetIoQueueDepth(1);
    for (uint64_t c = 0; c < k; ++c) {
      EXPECT_LE(pages_of(static_cast<int>(c), first), 1u) << "column " << c;
    }
    const Value lo(static_cast<int64_t>(first)),
        hi(static_cast<int64_t>(first + 999));
    ASSERT_TRUE(
        paged->CountWhere({Predicate::Between("aging_date", lo, hi)}).ok());
    CacheCounters counters;
    auto rows = paged->SelectRange("aging_date", lo, hi, {});
    SetIoQueueDepth(saved_depth);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    auto want = base->SelectRange("aging_date", lo, hi, {});
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(rows->rows.size(), 1000u);
    EXPECT_TRUE(rows->rows == want->rows);
    EXPECT_GT(counters.prefetch_issued(), 0u);
    EXPECT_LE(counters.prefetch_issued(), k * 1);
  }
  // Every read failing: the batch drops its pages, the column loop's own
  // read returns the error, and nothing the query loaded stays registered.
  // A select of the key column alone warms the lookup first, so the failing
  // select gets as far as its batch.
  {
    paged->UnloadAll();
    ASSERT_TRUE(paged->SelectByValue("id", key(777), {"id"}).ok());
    const uint64_t resources = rm_->resource_count();
    CacheCounters counters;
    SetIoFaultHookForTest(&FailEveryRead);
    auto failed = paged->SelectByValue("id", key(777), {});
    SetIoFaultHookForTest(nullptr);
    EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
    EXPECT_EQ(rm_->resource_count(), resources);
    EXPECT_EQ(counters.prefetch_issued(), k - 1);
    EXPECT_EQ(counters.prefetch_wasted(), k - 1);
    expect_same(777, paged->SelectByValue("id", key(777), {}));
  }
  // A query past its deadline issues no batch; neither does the batch call
  // itself, given the row's pages.
  {
    paged->UnloadAll();
    CacheCounters counters;
    ExecContext ctx;
    ctx.deadline = ExecContext::Clock::now() - std::chrono::seconds(1);
    auto late = paged->SelectByValue("id", key(5), {}, &ctx);
    EXPECT_TRUE(late.status().IsDeadlineExceeded()) << late.status().ToString();
    std::vector<PageLoad> pages;
    for (uint64_t c = 0; c < k; ++c) {
      paged->hot()->main(static_cast<int>(c))->AddRowPages({5}, &pages);
    }
    EXPECT_EQ(pages.size(), k);
    EXPECT_TRUE(PageCache::LoadBatch(pages, &ctx).IsDeadlineExceeded());
    EXPECT_EQ(ctx.stats.io_batches.load(), 0u);
    EXPECT_EQ(counters.prefetch_issued(), 0u);
  }
}

// COUNT(*) WHERE c = v equals the size of RowIdsByValue's answer on every
// kind of column — resident and paged; unique, non-unique, eager and
// deferred indexes; no index — over main and delta rows and a cold
// partition, with and without deleted rows. Without a deleted row the
// count reads the index directory only; with one it matches rows.
TEST_F(TableTest, CountByValueMatchesRowIdsOracle) {
  TableSchema schema;
  schema.name = "counts";
  schema.columns = {
      {"uniq_r", ValueType::kInt64, false, true, true},
      {"idx_r", ValueType::kInt64, false, true, false},
      {"scan_r", ValueType::kString, false, false, false},
      {"uniq_p", ValueType::kInt64, true, true, true},
      {"idx_p", ValueType::kString, true, true, false},
      {.name = "lazy_p",
       .type = ValueType::kInt64,
       .page_loadable = true,
       .with_index = true,
       .primary_key = false,
       .defer_index = true},
      {"scan_p", ValueType::kDouble, true, false, false},
  };
  schema.temperature_column = 0;
  Table table(schema, storage_.get(), rm_.get());
  Random rng(20261);
  int64_t next_row = 0;
  std::vector<std::vector<Value>> inserted;
  auto insert = [&](int rows) {
    for (int i = 0; i < rows; ++i, ++next_row) {
      char s[16];
      std::snprintf(s, sizeof(s), "v%03d", static_cast<int>(rng.Uniform(53)));
      std::vector<Value> row = {
          Value(next_row),
          Value(static_cast<int64_t>(rng.Uniform(37))),
          Value("s" + std::to_string(rng.Uniform(11))),
          Value(next_row * 3),
          Value(std::string(s)),
          Value(static_cast<int64_t>(rng.Uniform(29))),
          Value(static_cast<double>(rng.Uniform(13)) * 0.5)};
      ASSERT_TRUE(table.Insert(row).ok());
      inserted.push_back(std::move(row));
    }
  };
  // Every column's values of a few inserted rows, plus one value no row
  // holds.
  auto check_all = [&](const std::string& phase) {
    table.UnloadAll();
    const std::vector<Value> absent = {
        Value(int64_t{-1}), Value(int64_t{-1}), Value(std::string("none")),
        Value(int64_t{-1}), Value(std::string("none")), Value(int64_t{-1}),
        Value(-1.0)};
    for (size_t c = 0; c < schema.columns.size(); ++c) {
      std::vector<Value> probes = {absent[c]};
      for (int k = 0; k < 12; ++k) {
        probes.push_back(inserted[rng.Uniform(inserted.size())][c]);
      }
      for (const Value& v : probes) {
        const std::string& col = schema.columns[c].name;
        SCOPED_TRACE(phase + " " + col + " = " + v.ToString());
        auto count = table.CountByValue(col, v);
        auto ids = table.RowIdsByValue(col, v);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        EXPECT_EQ(*count, ids->size());
      }
    }
  };

  insert(3000);
  ASSERT_TRUE(table.MergeAll().ok());
  ASSERT_TRUE(table.AddColdPartition().ok());
  ASSERT_TRUE(table.AgeRows(Value(int64_t{499})).ok());
  ASSERT_TRUE(table.MergeAll().ok());  // compacts the aged rows away
  insert(300);                         // delta rows beside both mains
  ASSERT_EQ(table.row_count(), table.visible_row_count());
  check_all("no deleted row");

  for (RowPos r = 7; r < table.hot()->row_count(); r += 97) {
    ASSERT_TRUE(table.hot()->MarkDeleted(r).ok());
  }
  ASSERT_TRUE(table.partition(1)->MarkDeleted(3).ok());
  ASSERT_LT(table.visible_row_count(), table.row_count());
  check_all("deleted rows");
}

// A count on a cold, indexed paged column reads the directory entries of
// its value and no posting, and is one index lookup; the postings load
// only when a query needs the rows. An I/O error on the directory page
// fails the count.
TEST_F(TableTest, ColdIndexedCountReadsNoPostingPage) {
  TableSchema schema;
  schema.name = "dircount";
  schema.columns = {{"k", ValueType::kInt64, true, true, true},
                    {"v", ValueType::kInt64, true, true, false}};
  Table table(schema, storage_.get(), rm_.get());
  constexpr int kRows = 20000;  // ~2,900 postings per value: several pages
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        table.Insert({Value(int64_t{i}), Value(int64_t{i % 7})}).ok());
  }
  ASSERT_TRUE(table.MergeAll().ok());
  const Value three(int64_t{3});
  const uint64_t want = kRows / 7 + (3 < kRows % 7 ? 1 : 0);

  table.UnloadAll();
  {
    CounterDelta reads("storage.read.pages");
    ExecContext ctx;
    auto count = table.CountByValue("v", three, &ctx);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, want);
    EXPECT_EQ(ctx.stats.index_lookups.load(), 1u);
    EXPECT_EQ(ctx.stats.rows_scanned.load(), 0u);
    // The dictionary page and the directory page.
    EXPECT_LE(reads(), 2u);
  }
  {
    // Dictionary and directory are resident now: what the row lookup
    // reads are the postings the count left on disk.
    CounterDelta reads("storage.read.pages");
    auto ids = table.RowIdsByValue("v", three);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(ids->size(), want);
    EXPECT_GE(reads(), 1u);
  }

  // Warm the dictionary through a range count (no index involved), then
  // fail every read: the directory page is the count's only read.
  table.UnloadAll();
  ASSERT_TRUE(
      table.CountWhere({Predicate::Between("v", three, three)}).ok());
  SetIoFaultHookForTest(&FailEveryRead);
  auto failed = table.CountByValue("v", three);
  SetIoFaultHookForTest(nullptr);
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  auto count = table.CountByValue("v", three);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, want);
}

class OracleTest : public TableTest {
 protected:
  // Visible rows of every partition in (partition, row) order.
  std::vector<OracleRow> Scan(Table* table) {
    std::vector<OracleRow> rows;
    for (uint32_t p = 0; p < table->partition_count(); ++p) {
      Partition* part = table->partition(p);
      for (RowPos r = 0; r < part->row_count(); ++r) {
        if (!part->IsVisible(r)) continue;
        auto values = part->GetRow(r);
        EXPECT_TRUE(values.ok()) << values.status().ToString();
        rows.push_back({RowId{p, r}, std::move(*values)});
      }
    }
    return rows;
  }

  std::vector<const OracleRow*> Filter(
      const std::vector<Predicate>& conjuncts) const {
    std::vector<const OracleRow*> out;
    for (const OracleRow& row : rows_) {
      bool keep = true;
      for (const Predicate& p : conjuncts) {
        keep = keep && OracleMatches(p, row.values[schema_->ColumnIndex(
                                                p.column)]);
      }
      if (keep) out.push_back(&row);
    }
    return out;
  }

  QueryResult Select(const std::vector<Predicate>& conjuncts,
                     const std::vector<std::string>& names) const {
    QueryResult result;
    for (const OracleRow* row : Filter(conjuncts)) {
      std::vector<Value> out;
      if (names.empty()) out = row->values;
      for (const std::string& name : names) {
        out.push_back(row->values[schema_->ColumnIndex(name)]);
      }
      result.rows.push_back(std::move(out));
    }
    return result;
  }

  std::vector<RowId> Ids(const std::vector<Predicate>& conjuncts) const {
    std::vector<RowId> ids;
    for (const OracleRow* row : Filter(conjuncts)) ids.push_back(row->id);
    return ids;
  }

  // Per-partition partials merged in partition order, like the engine.
  double Sum(const std::vector<Predicate>& conjuncts,
             const std::string& column) const {
    const int col = schema_->ColumnIndex(column);
    double total = 0, partial = 0;
    uint32_t partition = 0;
    for (const OracleRow* row : Filter(conjuncts)) {
      if (row->id.partition != partition) {
        total += partial;
        partial = 0;
        partition = row->id.partition;
      }
      const Value& v = row->values[col];
      partial += v.type() == ValueType::kInt64
                     ? static_cast<double>(v.AsInt64())
                     : v.AsDouble();
    }
    return total + partial;
  }

  // AgeRows must move exactly the visible hot rows at or below `threshold`.
  void AgeAndCheck(Table* table, int64_t threshold) {
    rows_ = Scan(table);
    uint64_t expected = 0;
    for (const OracleRow* row : Filter({Predicate::Between(
             "t", Value(std::numeric_limits<int64_t>::min()),
             Value(threshold))})) {
      if (row->id.partition == 0) ++expected;
    }
    auto moved = table->AgeRows(Value(threshold));
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(*moved, expected);
  }

  // Runs `conjuncts` through the WHERE entry points and, for a single
  // conjunct, through every entry point of its shape.
  void Check(Table* table, const std::vector<Predicate>& conjuncts,
             Random* rng) {
    std::vector<std::string> names;
    for (uint64_t n = rng->Uniform(4); n > 0; --n) {
      names.push_back(schema_->columns[rng->Uniform(5)].name);
    }
    const std::string sum_col = rng->OneIn(2) ? "d" : "k";

    const QueryResult rows = Select(conjuncts, names);
    const uint64_t count = rows.rows.size();
    EXPECT_EQ(Ok(table->SelectWhere(conjuncts, names)), rows);
    EXPECT_EQ(Ok(table->CountWhere(conjuncts)), count);
    EXPECT_EQ(Ok(table->RowIdsWhere(conjuncts)), Ids(conjuncts));
    EXPECT_EQ(Ok(table->SumWhere(conjuncts, sum_col)),
              Sum(conjuncts, sum_col));
    if (conjuncts.size() != 1) return;

    const Predicate& p = conjuncts[0];
    switch (p.op) {
      case Predicate::Op::kEq:
        EXPECT_EQ(Ok(table->SelectByValue(p.column, p.value, names)), rows);
        EXPECT_EQ(Ok(table->CountByValue(p.column, p.value)), count);
        EXPECT_EQ(Ok(table->RowIdsByValue(p.column, p.value)),
                  Ids(conjuncts));
        break;
      case Predicate::Op::kBetween:
        EXPECT_EQ(Ok(table->SelectRange(p.column, p.lo, p.hi, names)), rows);
        EXPECT_EQ(Ok(table->SumRange(p.column, p.lo, p.hi, sum_col)),
                  Sum(conjuncts, sum_col));
        break;
      case Predicate::Op::kIn: {
        EXPECT_EQ(Ok(table->SelectIn(p.column, p.values, names)), rows);
        EXPECT_EQ(Ok(table->CountIn(p.column, p.values)), count);
        // The batched lookups answer each IN value as its own equality.
        const auto multi =
            Ok(table->MultiSelectByValue(p.column, p.values, names));
        const auto counts = Ok(table->MultiCountByValue(p.column, p.values));
        ASSERT_EQ(multi.size(), p.values.size());
        ASSERT_EQ(counts.size(), p.values.size());
        for (size_t j = 0; j < p.values.size(); ++j) {
          const std::vector<Predicate> eq = {
              Predicate::Eq(p.column, p.values[j])};
          EXPECT_EQ(multi[j], Select(eq, names)) << "value " << j;
          EXPECT_EQ(counts[j], Ids(eq).size()) << "value " << j;
        }
        break;
      }
      case Predicate::Op::kPrefix:
        EXPECT_EQ(Ok(table->SelectPrefix(p.column, p.prefix, names)), rows);
        EXPECT_EQ(Ok(table->CountPrefix(p.column, p.prefix)), count);
        break;
    }
  }

  // The value of a query that must succeed; a failure is recorded and
  // compared as an empty result.
  template <typename T>
  static T Ok(Result<T> result) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : T{};
  }

  const TableSchema* schema_ = nullptr;
  std::vector<OracleRow> rows_;
};

TEST_F(OracleTest, EveryEntryPointMatchesBruteForceScan) {
  for (bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "paged" : "resident");
    Random rng(paged ? 11 : 7);
    auto table = std::make_unique<Table>(
        OracleSchema(paged ? "oracle_p" : "oracle_r", paged), storage_.get(),
        rm_.get());
    schema_ = &table->schema();
    uint64_t ids = 0;
    auto insert = [&](int n) {
      for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(table->Insert(OracleInsertRow(&rng, ids++)).ok());
      }
    };
    insert(600);
    ASSERT_TRUE(table->MergeAll().ok());
    ASSERT_TRUE(table->AddColdPartition().ok());
    AgeAndCheck(table.get(), 200);
    ASSERT_TRUE(table->MergeAll().ok());  // cold main, compacted hot main
    insert(300);                          // unmerged hot delta
    AgeAndCheck(table.get(), 350);        // hot main + delta → cold delta
    for (int i = 0; i < 40; ++i) {
      Partition* part = table->partition(static_cast<uint32_t>(rng.Uniform(2)));
      ASSERT_TRUE(part->MarkDeleted(
                          static_cast<RowPos>(rng.Uniform(part->row_count())))
                      .ok());
    }
    ASSERT_GT(table->hot()->main_row_count(), 0u);
    ASSERT_GT(table->hot()->delta_row_count(), 0u);
    ASSERT_GT(table->partition(1)->main_row_count(), 0u);
    ASSERT_GT(table->partition(1)->delta_row_count(), 0u);
    rows_ = Scan(table.get());

    // Fixed edge cases, then random WHERE clauses, at both worker counts.
    const std::vector<std::vector<Predicate>> edges = {
        {Predicate::Prefix("s", "")},
        {Predicate::Prefix("s", "\xff")},
        {Predicate::Prefix("s", "\xff\xff")},
        {Predicate::Prefix("s", "a\xff")},
        {Predicate::Prefix("s", "\xfe\xff")},
        {Predicate::Prefix("id", "")},
        {Predicate::Between("k", Value(int64_t{40}), Value(int64_t{10}))},
        {Predicate::Eq("k", Value(int64_t{999}))},
        {Predicate::In("k", {})},
        {Predicate::Between("t", Value(int64_t{0}), Value(int64_t{999})),
         Predicate::Prefix("s", "\xff")},
    };
    for (uint32_t workers : {0u, 2u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      table->set_exec_options(ExecOptions{workers});
      Random queries(workers + 100);
      for (const auto& conjuncts : edges) {
        Check(table.get(), conjuncts, &queries);
      }
      for (int q = 0; q < 150; ++q) {
        std::vector<Predicate> conjuncts;
        for (uint64_t n = queries.UniformRange(1, 3); n > 0; --n) {
          conjuncts.push_back(RandomConjunct(&queries, *schema_, ids));
        }
        Check(table.get(), conjuncts, &queries);
      }
    }
  }
}

// --- differential merge ------------------------------------------------------
//
// Partition::Merge works in vid space: it merges the old main's sorted
// dictionary with the delta's distinct values. The reference is the per-row
// algorithm that came before it: read every visible row back with GetRow,
// sort and unique the values with Value::Compare, give each row its vid
// with lower_bound, and build the main under the same name and FragmentSpec
// into a second store. Fragment builders are deterministic, so every chain
// file of the new generation must match the reference byte for byte.
//
// Doubles leave out NaN (rejected) and -0.0: the reference's unstable sort
// does not fix which of two equal values survives (NegativeZeroIsZero
// covers -0.0 by value).

// A page-loadable unique key with an eager index, a paged int with a
// deferred index, a paged string, a paged double with an eager index, a
// resident indexed string, a resident double and the resident temperature
// column.
TableSchema DiffSchema() {
  TableSchema schema;
  schema.name = "diff";
  schema.columns = {
      {"id", ValueType::kString, true, true, true},
      {"k", ValueType::kInt64, true, true, false, /*defer_index=*/true},
      {"p", ValueType::kString, true, false, false},
      {"dp", ValueType::kDouble, true, true, false},
      {"s", ValueType::kString, false, true, false},
      {"d", ValueType::kDouble, false, false, false},
      {"t", ValueType::kInt64, false, false, false}};
  schema.temperature_column = 6;
  return schema;
}

// Empty, short 0xFF-heavy, and (1 in 40) longer than the 4096-byte on-page
// limit, so paged dictionaries spill to overflow pages.
std::string DiffString(Random* rng) {
  switch (rng->Uniform(40)) {
    case 0:
      return std::string(4097 + rng->Uniform(6000),
                         rng->Uniform(2) == 0 ? '\xff' : 'q') +
             RandomBytes(rng, 3);
    case 1:
    case 2:
      return "";
    default:
      return RandomBytes(rng, 6);
  }
}

double DiffDouble(Random* rng) {
  switch (rng->Uniform(50)) {
    case 0:
      return std::numeric_limits<double>::infinity();
    case 1:
      return -std::numeric_limits<double>::infinity();
    case 2:
      return std::numeric_limits<double>::denorm_min();
    default:
      // 0.25 * 100 - 25 is +0.0, never -0.0.
      return 0.25 * static_cast<double>(rng->Uniform(200)) - 25.0;
  }
}

class MergeDifferentialTest : public TableTest,
                              public ::testing::WithParamInterface<uint64_t> {
 protected:
  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static std::string FragmentPrefix(const TableSchema& schema, uint32_t p,
                                    size_t c, uint64_t generation) {
    return schema.name + "_p" + std::to_string(p) + "_c" + std::to_string(c) +
           "_g" + std::to_string(generation) + ".";
  }

  // A partition with a main for every column, an empty delta and no
  // deleted row has nothing to fold, so its merge is skipped.
  static bool FoldsSomething(Partition* part, size_t cols) {
    for (size_t c = 0; c < cols; ++c) {
      if (part->main(static_cast<int>(c)) == nullptr) return true;
    }
    return part->delta_row_count() > 0 ||
           part->visible_row_count() != part->row_count();
  }

  // Builds the reference of the next generation of every partition that
  // folds something into a fresh store, runs MergeAll, and compares the
  // chain files. Every other partition must keep its generation and its
  // chain bytes.
  void MergeAndCompare(Table* table) {
    const std::string ref_dir = dir_ + "_ref";
    std::filesystem::remove_all(ref_dir);
    std::vector<std::string> prefixes;  // "<fragment name>." per new main
    std::map<uint32_t, uint64_t> kept_generation;
    std::map<std::string, std::string> kept_bytes;
    {
      auto ref = StorageManager::Open(ref_dir, Options());
      ASSERT_TRUE(ref.ok());
      ResourceManager ref_rm;
      const TableSchema& schema = table->schema();
      auto less = [](const Value& a, const Value& b) {
        return a.Compare(b) < 0;
      };
      for (uint32_t p = 0; p < table->partition_count(); ++p) {
        Partition* part = table->partition(p);
        if (!FoldsSomething(part, schema.columns.size())) {
          kept_generation[p] = part->merge_generation();
          for (size_t c = 0; c < schema.columns.size(); ++c) {
            for (const std::string& name : FilesWithPrefix(FragmentPrefix(
                     schema, p, c, part->merge_generation()))) {
              kept_bytes[name] = ReadFile(dir_ + "/" + name);
            }
          }
          continue;
        }
        std::vector<std::vector<Value>> rows;
        for (RowPos r = 0; r < part->row_count(); ++r) {
          if (!part->IsVisible(r)) continue;
          auto row = part->GetRow(r);
          ASSERT_TRUE(row.ok()) << row.status().ToString();
          rows.push_back(std::move(*row));
        }
        for (size_t c = 0; c < schema.columns.size(); ++c) {
          const ColumnSchema& cs = schema.columns[c];
          std::vector<Value> values;
          for (const auto& row : rows) values.push_back(row[c]);
          std::vector<Value> dict = values;
          std::sort(dict.begin(), dict.end(), less);
          dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
          std::vector<ValueId> vids;
          for (const Value& v : values) {
            vids.push_back(static_cast<ValueId>(
                std::lower_bound(dict.begin(), dict.end(), v, less) -
                dict.begin()));
          }
          FragmentSpec spec;
          spec.page_loadable = cs.page_loadable;
          spec.with_index = cs.with_index;
          spec.defer_index = cs.defer_index;
          spec.pool = part->cold() ? PoolId::kColdPagedPool
                                   : PoolId::kPagedPool;
          std::string name =
              FragmentPrefix(schema, p, c, part->merge_generation() + 1);
          prefixes.push_back(name);
          name.pop_back();  // the trailing '.'
          auto frag = BuildMainFragment(ref->get(), &ref_rm, name,
                                        ToValueArray(cs.type, dict), vids,
                                        spec);
          ASSERT_TRUE(frag.ok()) << frag.status().ToString();
        }
      }
    }
    ASSERT_TRUE(table->MergeAll().ok());

    std::map<std::string, std::string> merged, reference;
    for (const std::string& prefix : prefixes) {
      for (const std::string& name : FilesWithPrefix(prefix)) {
        merged[name] = ReadFile(dir_ + "/" + name);
      }
    }
    for (auto& e : std::filesystem::directory_iterator(ref_dir)) {
      const std::string name = e.path().filename().string();
      reference[name] = ReadFile(e.path().string());
    }
    ASSERT_FALSE(reference.empty());
    std::vector<std::string> merged_names, reference_names;
    for (const auto& [name, bytes] : merged) merged_names.push_back(name);
    for (const auto& [name, bytes] : reference) {
      reference_names.push_back(name);
    }
    ASSERT_EQ(merged_names, reference_names);
    for (const auto& [name, bytes] : reference) {
      EXPECT_TRUE(merged[name] == bytes)
          << name << " differs (" << merged[name].size() << " vs "
          << bytes.size() << " bytes)";
    }
    for (const auto& [p, generation] : kept_generation) {
      EXPECT_EQ(table->partition(p)->merge_generation(), generation);
    }
    for (const auto& [name, bytes] : kept_bytes) {
      EXPECT_TRUE(ReadFile(dir_ + "/" + name) == bytes)
          << name << " changed";
    }
    skipped_ += kept_generation.size();
    ++merges_;
    std::filesystem::remove_all(ref_dir);
  }

  // Marks about `percent`% of the visible rows of `part` deleted.
  void DeleteSome(Partition* part, Random* rng, uint64_t percent) {
    for (RowPos r = 0; r < part->row_count(); ++r) {
      if (part->IsVisible(r) && rng->Uniform(100) < percent) {
        ASSERT_TRUE(part->MarkDeleted(r).ok());
      }
    }
  }

  int merges_ = 0;
  size_t skipped_ = 0;  // partition merges with nothing to fold
};

TEST_P(MergeDifferentialTest, ChainsMatchPerRowReferenceByteForByte) {
  Random rng(GetParam());
  Table table(DiffSchema(), storage_.get(), rm_.get());
  uint64_t ids = 0;
  int64_t day = 0;
  auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "K%07llu",
                    static_cast<unsigned long long>(ids++));
      ASSERT_TRUE(table
                      .Insert({Value(std::string(key)),
                               Value(static_cast<int64_t>(rng.Uniform(100)) -
                                     50),
                               Value(DiffString(&rng)),
                               Value(DiffDouble(&rng)),
                               Value(DiffString(&rng)),
                               Value(DiffDouble(&rng)),
                               Value(day + static_cast<int64_t>(
                                               rng.Uniform(10)))})
                      .ok());
    }
    day += 10;
  };
  // Builds (and persists) the deferred index of the current hot main.
  auto probe_k = [&] {
    ASSERT_TRUE(table.CountByValue("k", Value(int64_t{7})).ok());
  };

  // A delta-only first merge, with deletes in the delta.
  insert(900);
  DeleteSome(table.hot(), &rng, 5);
  MergeAndCompare(&table);
  // Deletes in the main and in the delta, several merges in a row.
  for (int round = 0; round < 2; ++round) {
    probe_k();
    insert(250);
    DeleteSome(table.hot(), &rng, 6);
    MergeAndCompare(&table);
  }
  // An aged cold partition: a delta-only first cold merge, then aging on
  // top of a cold main with deletes.
  ASSERT_TRUE(table.AddColdPartition().ok());
  ASSERT_TRUE(table.AgeRows(Value(day / 3)).ok());
  MergeAndCompare(&table);
  insert(200);
  ASSERT_TRUE(table.AgeRows(Value(day / 2)).ok());
  DeleteSome(table.partition(1), &rng, 10);
  MergeAndCompare(&table);
  // An all-deleted partition, then fresh rows on its empty main.
  DeleteSome(table.partition(1), &rng, 100);
  ASSERT_EQ(table.partition(1)->visible_row_count(), 0u);
  MergeAndCompare(&table);
  EXPECT_EQ(table.partition(1)->main_row_count(), 0u);
  insert(150);
  ASSERT_TRUE(table.AgeRows(Value(day - 5)).ok());
  MergeAndCompare(&table);
  EXPECT_GT(table.partition(1)->main_row_count(), 0u);
  EXPECT_EQ(merges_, 7);
  // The hot partition folds nothing when only the cold one lost rows.
  EXPECT_EQ(skipped_, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeDifferentialTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace payg
