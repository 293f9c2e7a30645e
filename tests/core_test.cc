#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "core/column_store.h"
#include "counter_delta.h"
#include "paged/paged_fragment.h"
#include "storage/byte_stream.h"
#include "test_util.h"
#include "workload/erp.h"

namespace payg {
namespace {

class ColumnStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("core");
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  ColumnStoreOptions Options() {
    ColumnStoreOptions options;
    options.directory = dir_;
    options.storage.page_size = 16 * 1024;
    options.storage.dict_page_size = 32 * 1024;
    return options;
  }

  TableSchema SimpleSchema(const std::string& name, bool paged) {
    TableSchema schema;
    schema.name = name;
    schema.columns.push_back({"k", ValueType::kString, paged, true, true});
    schema.columns.push_back({"v", ValueType::kInt64, paged, false, false});
    return schema;
  }

  std::string dir_;
};

TEST_F(ColumnStoreTest, OpenCreatesDirectory) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(dir_));
  EXPECT_EQ((*store)->MemoryFootprint(), 0u);
}

TEST_F(ColumnStoreTest, TableLifecycle) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(SimpleSchema("t1", false));
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*store)->CreateTable(SimpleSchema("t1", false)).status()
                  .code() == StatusCode::kAlreadyExists);
  auto fetched = (*store)->GetTable("t1");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, *table);
  EXPECT_FALSE((*store)->GetTable("nope").ok());
  ASSERT_TRUE((*store)->DropTable("t1").ok());
  EXPECT_FALSE((*store)->GetTable("t1").ok());
  EXPECT_FALSE((*store)->DropTable("t1").ok());
}

TEST_F(ColumnStoreTest, EmptySchemaRejected) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  TableSchema empty;
  empty.name = "e";
  EXPECT_FALSE((*store)->CreateTable(empty).ok());
}

TEST_F(ColumnStoreTest, EndToEndInsertMergeQuery) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(SimpleSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 500; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%06d", i);
    ASSERT_TRUE(
        (*table)->Insert({Value(std::string(buf)), Value(int64_t{i})}).ok());
  }
  ASSERT_TRUE((*table)->MergeAll().ok());
  auto result = (*table)->SelectByValue("k", Value(std::string("K000123")),
                                        {"v"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 123);
  EXPECT_GT((*store)->MemoryFootprint(), 0u);
}

TEST_F(ColumnStoreTest, MemoryBudgetTriggersEviction) {
  EvictionCounters evictions;
  auto options = Options();
  options.memory_budget = 64 * 1024;  // tight budget
  auto store = ColumnStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(SimpleSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 2000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%06d", i);
    ASSERT_TRUE(
        (*table)->Insert({Value(std::string(buf)), Value(int64_t{i})}).ok());
  }
  ASSERT_TRUE((*table)->MergeAll().ok());
  // Run a bunch of point queries; the budget keeps the footprint bounded
  // (pins make small transient overshoots possible).
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%06d", (i * 37) % 2000);
    auto result = (*table)->SelectByValue("k", Value(std::string(buf)), {"v"});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u);
  }
  EXPECT_LE((*store)->MemoryFootprint(), options.memory_budget * 2);
  EXPECT_GT(evictions.reactive(), 0u);
}

TEST_F(ColumnStoreTest, PagedPoolLimitsBoundColdFootprint) {
  auto options = Options();
  options.paged_pool_limits = {32 * 1024, 96 * 1024};
  auto store = ColumnStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(SimpleSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 3000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%06d", i);
    ASSERT_TRUE(
        (*table)->Insert({Value(std::string(buf)), Value(int64_t{i})}).ok());
  }
  ASSERT_TRUE((*table)->MergeAll().ok());
  for (int i = 0; i < 200; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%06d", (i * 17) % 3000);
    auto result = (*table)->SelectByValue("k", Value(std::string(buf)), {"v"});
    ASSERT_TRUE(result.ok());
  }
  (*store)->resource_manager().SweepNow();
  EXPECT_LE((*store)->resource_manager().pool_bytes(PoolId::kPagedPool),
            options.paged_pool_limits.upper);
}

TEST_F(ColumnStoreTest, CheckpointAndReopen) {
  // Phase 1: create a store with hot/cold data, checkpoint, close.
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    TableSchema schema = SimpleSchema("persist", true);
    schema.columns.push_back(
        {"age_date", ValueType::kInt64, true, false, false});
    schema.temperature_column = 2;
    auto table = (*store)->CreateTable(schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 400; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "K%06d", i);
      ASSERT_TRUE((*table)
                      ->Insert({Value(std::string(buf)), Value(int64_t{i}),
                                Value(int64_t{i / 10})})
                      .ok());
    }
    ASSERT_TRUE((*table)->MergeAll().ok());
    ASSERT_TRUE((*table)->AddColdPartition().ok());
    ASSERT_TRUE((*table)->AgeRows(Value(int64_t{19})).ok());  // 200 rows
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }

  // Phase 2: reopen; the table, both partitions and all data must be back.
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto table = (*store)->GetTable("persist");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->partition_count(), 2u);
  EXPECT_EQ((*table)->visible_row_count(), 400u);
  EXPECT_EQ((*table)->hot()->main_row_count(), 200u);
  EXPECT_EQ((*table)->partition(1)->main_row_count(), 200u);
  EXPECT_TRUE((*table)->partition(1)->cold());
  for (int i : {0, 150, 199, 200, 399}) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "K%06d", i);
    auto r = (*table)->SelectByValue("k", Value(std::string(buf)), {"v"});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << "key " << i;
    EXPECT_EQ(r->rows[0][0].AsInt64(), i);
  }
  // And the reopened store keeps working: new inserts + another checkpoint.
  ASSERT_TRUE((*table)
                  ->Insert({Value(std::string("K999999")),
                            Value(int64_t{999999}), Value(int64_t{99})})
                  .ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  auto r = (*table)->SelectByValue("k", Value(std::string("K999999")), {"v"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
}

// The key of row i in the tests below.
std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "K%06d", i);
  return buf;
}

// Every row 0..rows-1 of `table` answers its point lookup with v == i.
void ExpectRows(Table* table, int rows) {
  EXPECT_EQ(table->visible_row_count(), static_cast<uint64_t>(rows));
  for (int i = 0; i < rows; ++i) {
    auto r = table->SelectByValue("k", Value(Key(i)), {"v"});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << "key " << i;
    EXPECT_EQ(r->rows[0][0].AsInt64(), i);
  }
}

// A resident and a paged key/value pair, so both chain kinds are written.
TableSchema MixedSchema(const std::string& name) {
  TableSchema schema;
  schema.name = name;
  schema.columns = {{"k", ValueType::kString, false, true, true},
                    {"v", ValueType::kInt64, true, true, false},
                    {"s", ValueType::kString, true, false, false},
                    {"d", ValueType::kDouble, false, false, false}};
  return schema;
}

Status InsertMixed(Table* table, int from, int to) {
  for (int i = from; i < to; ++i) {
    PAYG_RETURN_IF_ERROR(table->Insert({Value(Key(i)), Value(int64_t{i}),
                                        Value("s" + std::to_string(i % 7)),
                                        Value(0.5 * i)}));
  }
  return Status::OK();
}

TEST_F(ColumnStoreTest, MergesNeverSyncCheckpointSyncsEveryChain) {
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    auto table = (*store)->CreateTable(MixedSchema("mixed"));
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(InsertMixed(*table, 0, 300).ok());
    CounterDelta syncs("storage.sync.files");
    ASSERT_TRUE((*table)->MergeAll().ok());
    ASSERT_TRUE(InsertMixed(*table, 300, 400).ok());
    ASSERT_TRUE((*table)->MergeAll().ok());
    EXPECT_EQ(syncs(), 0u);

    // The merge left its chains unsynced, a resident .full chain included.
    std::vector<std::string> unsynced = (*store)->storage().UnsyncedChains();
    EXPECT_TRUE(std::any_of(
        unsynced.begin(), unsynced.end(), [](const std::string& name) {
          return name.size() > 5 && name.substr(name.size() - 5) == ".full";
        }));
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_TRUE((*store)->storage().UnsyncedChains().empty());
    // Each chain, the catalog, and the directory twice.
    EXPECT_GE(syncs(), unsynced.size() + 3);
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/__catalog__.tmp"));
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/__catalog__"));
  }
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto table = (*store)->GetTable("mixed");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ExpectRows(*table, 400);
}

TEST_F(ColumnStoreTest, CheckpointAfterSkippedMergeReopensWithEveryRow) {
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    TableSchema schema = MixedSchema("skip");
    schema.temperature_column = 1;
    auto table = (*store)->CreateTable(schema);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(InsertMixed(*table, 0, 300).ok());
    ASSERT_TRUE((*table)->AddColdPartition().ok());
    ASSERT_TRUE((*table)->AgeRows(Value(int64_t{99})).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    const uint64_t cold_generation = (*table)->partition(1)->merge_generation();
    // Only the hot partition has something to fold.
    ASSERT_TRUE(InsertMixed(*table, 300, 350).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_EQ((*table)->partition(1)->merge_generation(), cold_generation);
    // Nothing to fold anywhere.
    const uint64_t hot_generation = (*table)->hot()->merge_generation();
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_EQ((*table)->hot()->merge_generation(), hot_generation);
    EXPECT_EQ((*table)->partition(1)->merge_generation(), cold_generation);
  }
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto table = (*store)->GetTable("skip");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->partition(1)->main_row_count(), 100u);
  ExpectRows(*table, 350);
}

TEST_F(ColumnStoreTest, CheckpointOfBulkLoadedPartitionReopensWithEveryRow) {
  constexpr int kRows = 500;
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    auto table = (*store)->CreateTable(SimpleSchema("bulk", true));
    ASSERT_TRUE(table.ok());
    std::vector<Value> keys, values;
    std::vector<ValueId> vids;
    for (int i = 0; i < kRows; ++i) {
      keys.emplace_back(Key(i));
      values.emplace_back(int64_t{i});
      vids.push_back(static_cast<ValueId>(i));
    }
    Partition* hot = (*table)->hot();
    ASSERT_TRUE(hot->BulkLoadColumn(0, keys, vids).ok());
    ASSERT_TRUE(hot->BulkLoadColumn(1, values, vids).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_EQ(hot->merge_generation(), 0u);  // nothing to fold
    EXPECT_TRUE((*store)->storage().UnsyncedChains().empty());
  }
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto table = (*store)->GetTable("bulk");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->hot()->merge_generation(), 0u);
  ExpectRows(*table, kRows);
}

// Paged int64 and double columns beside a paged string key. Rows whose i
// is at most -1500 age into a cold partition.
TableSchema NumericSchema(const std::string& name) {
  TableSchema schema;
  schema.name = name;
  schema.columns = {{"k", ValueType::kString, true, true, true},
                    {"i", ValueType::kInt64, true, true, false},
                    {"d", ValueType::kDouble, true, false, false}};
  schema.temperature_column = 1;
  return schema;
}

Status InsertNumeric(Table* table, int from, int to) {
  for (int r = from; r < to; ++r) {
    PAYG_RETURN_IF_ERROR(table->Insert(
        {Value(Key(r)), Value(int64_t{(r * 7919) % 5003 - 2500}),
         Value(0.25 * (r % 977) - 100.0)}));
  }
  return Status::OK();
}

// A two-partition store of NumericSchema("num"), checkpointed.
Status BuildNumericStore(ColumnStore* store) {
  PAYG_ASSIGN_OR_RETURN(Table * table,
                        store->CreateTable(NumericSchema("num")));
  PAYG_RETURN_IF_ERROR(InsertNumeric(table, 0, 2000));
  PAYG_RETURN_IF_ERROR(table->MergeAll());
  PAYG_RETURN_IF_ERROR(table->AddColdPartition());
  PAYG_RETURN_IF_ERROR(table->AgeRows(Value(int64_t{-1500})).status());
  PAYG_RETURN_IF_ERROR(InsertNumeric(table, 2000, 3000));
  return store->Checkpoint();
}

// Every Table entry point that probes, bounds or decodes the numeric
// dictionaries, rendered as text.
std::vector<std::string> NumericAnswers(Table* t) {
  std::vector<std::string> out;
  auto rows = [&out](const Result<QueryResult>& r) {
    std::string s = r.ok() ? "" : r.status().ToString();
    if (r.ok()) {
      for (const auto& row : r->rows) {
        for (const Value& v : row) s += v.ToString() + ",";
        s += ";";
      }
    }
    out.push_back(s);
  };
  auto number = [&out](const auto& r) {
    out.push_back(r.ok() ? std::to_string(*r) : r.status().ToString());
  };
  for (int64_t i : {-2500, -1600, -1, 0, 17, 2502, 9999}) {
    rows(t->SelectByValue("i", Value(i), {"k", "d"}));
    number(t->CountByValue("i", Value(i)));
  }
  for (double d : {-100.0, -0.0, 0.25, 143.75, 1e9}) {
    rows(t->SelectByValue("d", Value(d), {"k", "i"}));
  }
  rows(t->SelectRange("i", Value(int64_t{-1700}), Value(int64_t{-1650}),
                      {"k", "d"}));
  number(t->SumRange("d", Value(-10.0), Value(10.0), "i"));
  number(t->SumRange("i", Value(int64_t{100}), Value(int64_t{900}), "d"));
  rows(t->SelectIn("i",
                   {Value(int64_t{-2000}), Value(int64_t{5}),
                    Value(int64_t{2400})},
                   {"k"}));
  number(t->CountIn("d", {Value(-99.75), Value(0.0), Value(3.5)}));
  rows(t->SelectWhere({Predicate::Between("d", Value(-50.0), Value(-40.0)),
                       Predicate::Between("i", Value(int64_t{0}),
                                          Value(int64_t{300}))},
                      {"k", "i", "d"}));
  number(t->CountWhere({Predicate::Between("i", Value(int64_t{-2500}),
                                           Value(int64_t{-1500})),
                        Predicate::Between("d", Value(-100.0),
                                           Value(100.0))}));
  return out;
}

TEST_F(ColumnStoreTest, PagedNumericColumnsAnswerAlikeAfterRestart) {
  std::vector<std::string> before;
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(BuildNumericStore(store->get()).ok());
    auto table = (*store)->GetTable("num");
    ASSERT_TRUE(table.ok());
    ASSERT_EQ((*table)->partition_count(), 2u);
    before = NumericAnswers(*table);
    EXPECT_NE(before[1], "0");  // CountByValue(i = -1600) finds cold rows
  }
  int ndict_chains = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    ndict_chains += entry.path().extension() == ".ndict" ? 1 : 0;
  }
  EXPECT_EQ(ndict_chains, 4);  // i and d, hot and cold
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto table = (*store)->GetTable("num");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(NumericAnswers(*table), before);
}

// A store whose numeric meta chains predate the paged numeric dictionary
// reopens and answers as before. The rewritten chains have the old layout:
// u8 type, u8 index mode, u64 rows, u64 dictionary size, then the values
// as raw 8-byte words, and no .ndict chain beside them.
TEST_F(ColumnStoreTest, LegacyNumericMetaReopensWithTheSameAnswers) {
  std::vector<std::string> before;
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(BuildNumericStore(store->get()).ok());
    auto table = (*store)->GetTable("num");
    ASSERT_TRUE(table.ok());
    before = NumericAnswers(*table);
  }
  {
    const StorageOptions opts = Options().storage;
    auto storage = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(storage.ok());
    ResourceManager rm;
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".pmeta") {
        names.push_back(entry.path().stem().string());
      }
    }
    int rewritten = 0;
    for (const std::string& name : names) {
      ValueType type;
      PagedFragment::IndexMode mode;
      uint64_t rows;
      ValueArray values;
      {
        auto frag = PagedFragment::Open(storage->get(), &rm,
                                        PoolId::kPagedPool, name);
        ASSERT_TRUE(frag.ok()) << frag.status().ToString();
        type = (*frag)->type();
        mode = (*frag)->index_mode();
        rows = (*frag)->row_count();
        if (type == ValueType::kString) continue;
        values = MakeValueArray(type);
        auto reader = (*frag)->NewReader();
        ASSERT_TRUE(reader.ok());
        ASSERT_TRUE((*reader)
                        ->MGetValues(0, static_cast<ValueId>(
                                            (*frag)->dict_size()),
                                     &values)
                        .ok());
      }
      auto file = (*storage)->CreateChain(name + ".pmeta", opts.page_size);
      ASSERT_TRUE(file.ok());
      ChainByteWriter w(file->get());
      w.PutU8(static_cast<uint8_t>(type));
      w.PutU8(static_cast<uint8_t>(mode));
      w.PutU64(rows);
      w.PutU64(ValueArraySize(values));
      if (type == ValueType::kInt64) {
        for (int64_t v : std::get<std::vector<int64_t>>(values)) w.PutI64(v);
      } else {
        for (double v : std::get<std::vector<double>>(values)) w.PutDouble(v);
      }
      ASSERT_TRUE(w.Finish().ok());
      ASSERT_TRUE((*storage)->DropChain(name + ".ndict").ok());
      ++rewritten;
    }
    ASSERT_TRUE((*storage)->SyncChains().ok());
    EXPECT_EQ(rewritten, 4);
  }
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto table = (*store)->GetTable("num");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(NumericAnswers(*table), before);
}

TEST_F(ColumnStoreTest, LeftoverCatalogTmpDoesNotChangeWhatOpenRestores) {
  {
    auto store = ColumnStore::Open(Options());
    ASSERT_TRUE(store.ok());
    auto table = (*store)->CreateTable(SimpleSchema("kept", false));
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(
          (*table)->Insert({Value(Key(i)), Value(int64_t{i})}).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/__catalog__.tmp"));
  }
  // A checkpoint that crashed before its rename leaves a torn tmp file.
  {
    std::FILE* f = std::fopen((dir_ + "/__catalog__.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string garbage(5000, '\x5a');
    ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f),
              garbage.size());
    std::fclose(f);
  }
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/__catalog__.tmp"));
  auto table = (*store)->GetTable("kept");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ExpectRows(*table, 120);
}

TEST_F(ColumnStoreTest, FreshDirectoryHasNoCatalog) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->GetTable("anything").ok());
}

TEST_F(ColumnStoreTest, ErpWorkloadThroughFacade) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  ErpConfig config;
  config.rows = 2000;
  config.variant = TableVariant::kPagedAll;
  auto table = (*store)->CreateTable(MakeErpSchema(config, "erp"));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(PopulateErpTable(*table, config).ok());
  ErpWorkload workload(config, 23);
  auto result =
      (*table)->SelectByValue("pk", workload.PkOfRow(workload.RandomRow()), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

}  // namespace
}  // namespace payg
