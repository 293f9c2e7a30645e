// Cross-module integration, concurrency-under-eviction, fault injection,
// and a randomized reference-model equivalence suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "common/random.h"
#include "core/column_store.h"
#include "test_util.h"
#include "workload/erp.h"

namespace payg {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("integration");
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  ColumnStoreOptions Options() {
    ColumnStoreOptions options;
    options.directory = dir_;
    options.storage.page_size = 8192;
    options.storage.dict_page_size = 16 * 1024;
    return options;
  }

  std::string dir_;
};

TableSchema KvSchema(const std::string& name, bool paged) {
  TableSchema schema;
  schema.name = name;
  schema.columns.push_back({"k", ValueType::kString, paged, true, true});
  schema.columns.push_back({"v", ValueType::kInt64, paged, false, false});
  schema.columns.push_back({"tag", ValueType::kString, paged, false, false});
  return schema;
}

std::vector<Value> KvRow(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "K%06d", i);
  return {Value(std::string(buf)), Value(int64_t{i}),
          Value("tag_" + std::to_string(i % 7))};
}

// ---------------------------------------------------------------------------
// IN-list and prefix queries
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, InListQueries) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 300; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  // A few rows stay in the delta.
  for (int i = 300; i < 320; ++i) {
    ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  }

  std::vector<Value> probes{Value(int64_t{5}), Value(int64_t{150}),
                            Value(int64_t{310}), Value(int64_t{9999})};
  auto count = (*table)->CountIn("v", probes);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 3u);  // 9999 does not exist
  auto rows = (*table)->SelectIn("v", probes, {"k", "v"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 3u);
  std::vector<int64_t> got;
  for (const auto& row : rows->rows) got.push_back(row[1].AsInt64());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{5, 150, 310}));

  // IN on the string tag column: tags repeat, counts add up.
  auto tag_count = (*table)->CountIn(
      "tag", {Value(std::string("tag_0")), Value(std::string("tag_3"))});
  ASSERT_TRUE(tag_count.ok());
  uint64_t expect = 0;
  for (int i = 0; i < 320; ++i) {
    if (i % 7 == 0 || i % 7 == 3) ++expect;
  }
  EXPECT_EQ(*tag_count, expect);
}

TEST_F(IntegrationTest, PrefixQueries) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 250; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  for (int i = 250; i < 260; ++i) {
    ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  }

  // K00012 matches K000120..K000129.
  auto count = (*table)->CountPrefix("k", "K00012");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 10u);
  auto rows = (*table)->SelectPrefix("k", "K00025", {"v"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 10u);  // 250..259, all in the delta
  auto none = (*table)->CountPrefix("k", "Z");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
  auto all = (*table)->CountPrefix("k", "");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 260u);
  // Prefix on a numeric column is rejected.
  EXPECT_FALSE((*table)->CountPrefix("v", "1").ok());
}

// ---------------------------------------------------------------------------
// Conjunctive predicates (AND of several columns)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ConjunctiveQueriesMatchScalarEvaluation) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 400; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  for (int i = 400; i < 450; ++i) {
    ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());  // delta portion
  }

  // v BETWEEN 100 AND 430 AND tag = 'tag_2'
  std::vector<Predicate> conjuncts{
      Predicate::Between("v", Value(int64_t{100}), Value(int64_t{430})),
      Predicate::Eq("tag", Value(std::string("tag_2")))};
  auto count = (*table)->CountWhere(conjuncts);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  uint64_t expect = 0;
  for (int i = 100; i <= 430; ++i) {
    if (i % 7 == 2) ++expect;
  }
  EXPECT_EQ(*count, expect);

  auto rows = (*table)->SelectWhere(conjuncts, {"v"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), expect);
  for (const auto& row : rows->rows) {
    int64_t v = row[0].AsInt64();
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 430);
    EXPECT_EQ(v % 7, 2);
  }

  // Three conjuncts including a prefix and an IN-list.
  std::vector<Predicate> three{
      Predicate::Prefix("k", "K0001"),  // rows 100..199
      Predicate::In("tag", {Value(std::string("tag_1")),
                            Value(std::string("tag_5"))}),
      Predicate::Between("v", Value(int64_t{120}), Value(int64_t{180}))};
  auto c3 = (*table)->CountWhere(three);
  ASSERT_TRUE(c3.ok());
  expect = 0;
  for (int i = 120; i <= 180; ++i) {
    if (i % 7 == 1 || i % 7 == 5) ++expect;
  }
  EXPECT_EQ(*c3, expect);

  // Conjunct order must not change the result.
  std::reverse(three.begin(), three.end());
  auto c3r = (*table)->CountWhere(three);
  ASSERT_TRUE(c3r.ok());
  EXPECT_EQ(*c3r, expect);

  // Empty conjunct list is rejected; unknown column is rejected.
  EXPECT_FALSE((*table)->CountWhere({}).ok());
  EXPECT_FALSE(
      (*table)->CountWhere({Predicate::Eq("zzz", Value(int64_t{1}))}).ok());
}

// ---------------------------------------------------------------------------
// Delta inverted index
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, DeltaIndexAnswersWithoutScan) {
  DeltaFragment delta(ValueType::kInt64);
  delta.EnableIndex();
  EXPECT_TRUE(delta.has_index());
  for (int i = 0; i < 1000; ++i) {
    delta.Append(Value(int64_t{i % 13}));
  }
  std::vector<RowPos> rows;
  delta.FindRows(Value(int64_t{4}), &rows);
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < 1000; ++r) {
    if (r % 13 == 4) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
  // Clear keeps the index enabled and consistent for reuse.
  delta.Clear();
  delta.Append(Value(int64_t{7}));
  rows.clear();
  delta.FindRows(Value(int64_t{7}), &rows);
  EXPECT_EQ(rows, (std::vector<RowPos>{0}));
}

TEST_F(IntegrationTest, IndexedAndUnindexedDeltaAgree) {
  DeltaFragment indexed(ValueType::kString), plain(ValueType::kString);
  indexed.EnableIndex();
  Random rng(77);
  for (int i = 0; i < 500; ++i) {
    Value v(std::string("s" + std::to_string(rng.Uniform(20))));
    indexed.Append(v);
    plain.Append(v);
  }
  for (int probe = 0; probe < 20; ++probe) {
    Value v(std::string("s" + std::to_string(probe)));
    std::vector<RowPos> a, b;
    indexed.FindRows(v, &a);
    plain.FindRows(v, &b);
    EXPECT_EQ(a, b) << "probe " << probe;
  }
}

// ---------------------------------------------------------------------------
// Concurrency under aggressive eviction
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ConcurrentQueriesUnderEvictionPressure) {
  auto options = Options();
  // Pool so small that pages churn constantly while queries run.
  options.paged_pool_limits = {32 * 1024, 64 * 1024};
  auto store = ColumnStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  (*table)->UnloadAll();

  std::atomic<int> failures{0};
  auto worker = [&](int seed) {
    Random rng(seed);
    for (int q = 0; q < 150; ++q) {
      int i = static_cast<int>(rng.Uniform(3000));
      auto r = (*table)->SelectByValue("k", KvRow(i)[0], {"v", "tag"});
      if (!r.ok() || r->rows.size() != 1 ||
          r->rows[0][0].AsInt64() != i ||
          r->rows[0][1].AsString() != "tag_" + std::to_string(i % 7)) {
        ++failures;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 1000 + t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The proactive sweeper was actually exercising the pool meanwhile.
  (*store)->resource_manager().SweepNow();
  EXPECT_LE((*store)->resource_manager().pool_bytes(PoolId::kPagedPool),
            options.paged_pool_limits.upper);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, CorruptDataVectorPageSurfacesAsCorruption) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  (*table)->UnloadAll();

  // Flip bytes in the middle of the v-column data vector chain.
  std::string victim;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    std::string f = e.path().filename().string();
    if (f.find("_c1_") != std::string::npos && f.size() > 3 &&
        f.substr(f.size() - 3) == ".dv") {
      victim = e.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8192 + 200, SEEK_SET), 0);  // page 1 payload
    for (int i = 0; i < 16; ++i) std::fputc(0x5A, f);
    std::fclose(f);
  }

  // A full scan over the corrupted column must fail loudly, not return
  // wrong data.
  auto r = (*table)->CountByValue("v", Value(int64_t{123}));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST_F(IntegrationTest, TruncatedChainSurfacesAsError) {
  auto store = ColumnStore::Open(Options());
  ASSERT_TRUE(store.ok());
  auto table = (*store)->CreateTable(KvSchema("t", true));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
  ASSERT_TRUE((*table)->MergeAll().ok());
  (*table)->UnloadAll();

  std::string victim;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    std::string f = e.path().filename().string();
    if (f.find("_c1_") != std::string::npos && f.size() > 3 &&
        f.substr(f.size() - 3) == ".dv") {
      victim = e.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, 8192);  // only the meta page remains

  auto r = (*table)->CountByValue("v", Value(int64_t{42}));
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Randomized reference-model equivalence
// ---------------------------------------------------------------------------

// A naive row-store model of the same table.
struct ReferenceModel {
  struct Row {
    std::string k;
    int64_t v;
    std::string tag;
  };
  std::vector<Row> rows;

  uint64_t CountV(int64_t v) const {
    uint64_t n = 0;
    for (const auto& r : rows) n += r.v == v;
    return n;
  }
  uint64_t CountRangeV(int64_t lo, int64_t hi) const {
    uint64_t n = 0;
    for (const auto& r : rows) n += r.v >= lo && r.v <= hi;
    return n;
  }
  double SumRangeByK(const std::string& lo, const std::string& hi) const {
    double s = 0;
    for (const auto& r : rows) {
      if (r.k >= lo && r.k <= hi) s += static_cast<double>(r.v);
    }
    return s;
  }
};

class ReferenceModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceModelTest, RandomOpsMatchModel) {
  std::string dir = TestDir("model");
  std::filesystem::remove_all(dir);
  ColumnStoreOptions options;
  options.directory = dir;
  options.storage.page_size = 8192;
  options.storage.dict_page_size = 16 * 1024;
  auto store = ColumnStore::Open(options);
  ASSERT_TRUE(store.ok());
  // Odd seeds use page loadable columns, even seeds fully resident: the
  // model must hold for both.
  auto table =
      (*store)->CreateTable(KvSchema("t", GetParam() % 2 == 1));
  ASSERT_TRUE(table.ok());

  Random rng(GetParam());
  ReferenceModel model;
  int next_key = 0;
  for (int step = 0; step < 400; ++step) {
    uint64_t op = rng.Uniform(10);
    if (op < 6 || model.rows.empty()) {
      // Insert.
      int i = next_key++;
      ASSERT_TRUE((*table)->Insert(KvRow(i)).ok());
      model.rows.push_back(
          {KvRow(i)[0].AsString(), i, "tag_" + std::to_string(i % 7)});
    } else if (op < 7) {
      // Merge.
      ASSERT_TRUE((*table)->MergeAll().ok());
    } else if (op < 8 && !model.rows.empty()) {
      // Point count on v.
      int64_t v = model.rows[rng.Uniform(model.rows.size())].v;
      auto got = (*table)->CountByValue("v", Value(v));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, model.CountV(v)) << "step " << step;
    } else if (op < 9) {
      // Range count on v.
      int64_t lo = static_cast<int64_t>(rng.Uniform(next_key + 1));
      int64_t hi = lo + static_cast<int64_t>(rng.Uniform(50));
      auto got = (*table)->SelectRange("v", Value(lo), Value(hi), {"v"});
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->rows.size(), model.CountRangeV(lo, hi))
          << "step " << step;
    } else {
      // Sum over a pk range.
      int a = static_cast<int>(rng.Uniform(next_key + 1));
      int b = a + static_cast<int>(rng.Uniform(40));
      std::string lo = KvRow(a)[0].AsString();
      std::string hi = KvRow(b)[0].AsString();
      auto got = (*table)->SumRange("k", Value(lo), Value(hi), "v");
      ASSERT_TRUE(got.ok());
      EXPECT_DOUBLE_EQ(*got, model.SumRangeByK(lo, hi)) << "step " << step;
    }
  }
  // Final full verification.
  ASSERT_TRUE((*table)->MergeAll().ok());
  for (int i = 0; i < next_key; i += std::max(1, next_key / 37)) {
    auto r = (*table)->SelectByValue("k", KvRow(i)[0], {"v"});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt64(), i);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceModelTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace payg
