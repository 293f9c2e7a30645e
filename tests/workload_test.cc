#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "buffer/resource_manager.h"
#include "test_util.h"
#include "workload/erp.h"

namespace payg {
namespace {

ErpConfig SmallConfig(TableVariant variant, bool indexes) {
  ErpConfig config;
  config.rows = 5000;
  config.variant = variant;
  config.with_indexes = indexes;
  return config;
}

TEST(ErpColumnsTest, LayoutMatchesConfig) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  auto cols = MakeErpColumns(config);
  EXPECT_EQ(cols.size(), config.column_count());
  EXPECT_EQ(cols[0].name, "pk");
  EXPECT_TRUE(cols[0].unique);
  EXPECT_EQ(cols[0].cardinality, config.rows);
  EXPECT_EQ(cols[1].name, "aging_date");
  // Cardinality mix per §6.1: most columns < 100 distinct, the high-card
  // ones > 1000.
  uint32_t low = 0, high = 0;
  for (size_t i = 2; i < cols.size(); ++i) {
    if (cols[i].cardinality < 100) {
      ++low;
    } else if (cols[i].cardinality > 1000) {
      ++high;
    }
  }
  EXPECT_EQ(low, config.low_card_int_cols + config.low_card_str_cols +
                     config.decimal_cols + config.double_cols);
  EXPECT_EQ(high, config.high_card_int_cols + config.high_card_str_cols);
}

TEST(ErpColumnsTest, ValuesAreMonotoneInK) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  for (const auto& col : MakeErpColumns(config)) {
    uint64_t probe = std::min<uint64_t>(col.cardinality, 200);
    for (uint64_t k = 1; k < probe; ++k) {
      EXPECT_LT(col.ValueAt(k - 1).Compare(col.ValueAt(k)), 0)
          << col.name << " k=" << k;
    }
  }
}

TEST(ErpSchemaTest, VariantsSetPagedFlags) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  auto base = MakeErpSchema(config, "tb");
  for (const auto& c : base.columns) EXPECT_FALSE(c.page_loadable);

  config.variant = TableVariant::kPagedAll;
  auto paged = MakeErpSchema(config, "tp");
  for (const auto& c : paged.columns) {
    EXPECT_EQ(c.page_loadable, !c.primary_key) << c.name;
  }

  config.variant = TableVariant::kPagedPkOnly;
  auto pk_only = MakeErpSchema(config, "tpp");
  for (const auto& c : pk_only.columns) {
    EXPECT_EQ(c.page_loadable, c.primary_key) << c.name;
  }
}

TEST(ErpSchemaTest, IndexFlags) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  auto schema = MakeErpSchema(config, "t");
  for (const auto& c : schema.columns) {
    EXPECT_EQ(c.with_index, c.primary_key) << c.name;
  }
  config.with_indexes = true;
  auto indexed = MakeErpSchema(config, "ti");
  for (const auto& c : indexed.columns) EXPECT_TRUE(c.with_index) << c.name;
  EXPECT_EQ(schema.temperature_column, 1);
}

class ErpPopulateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("erp");
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 16 * 1024;
    opts.dict_page_size = 32 * 1024;
    auto sm = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
    rm_ = std::make_unique<ResourceManager>();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(ErpPopulateTest, PopulatedTableAnswersPkQueries) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  Table table(MakeErpSchema(config, "tb"), storage_.get(), rm_.get());
  ASSERT_TRUE(PopulateErpTable(&table, config).ok());
  EXPECT_EQ(table.row_count(), config.rows);

  ErpWorkload workload(config, 7);
  for (int i = 0; i < 10; ++i) {
    uint64_t row = workload.RandomRow();
    auto result = table.SelectByValue("pk", workload.PkOfRow(row), {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u) << "row " << row;
    EXPECT_TRUE(result->rows[0][0] == workload.PkOfRow(row));
  }
}

TEST_F(ErpPopulateTest, PagedAndBaseVariantsAgree) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  Table base(MakeErpSchema(config, "tb"), storage_.get(), rm_.get());
  ASSERT_TRUE(PopulateErpTable(&base, config).ok());
  config.variant = TableVariant::kPagedAll;
  Table paged(MakeErpSchema(config, "tp"), storage_.get(), rm_.get());
  ASSERT_TRUE(PopulateErpTable(&paged, config).ok());

  ErpWorkload workload(config, 11);
  for (int i = 0; i < 10; ++i) {
    uint64_t row = workload.RandomRow();
    auto a = base.SelectByValue("pk", workload.PkOfRow(row), {});
    auto b = paged.SelectByValue("pk", workload.PkOfRow(row), {});
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->rows.size(), 1u);
    ASSERT_EQ(b->rows.size(), 1u);
    for (size_t c = 0; c < a->rows[0].size(); ++c) {
      EXPECT_TRUE(a->rows[0][c] == b->rows[0][c]) << "col " << c;
    }
  }
  // COUNT queries agree too.
  ErpWorkload w2(config, 13);
  int col = w2.RandomColumnOfType(ValueType::kInt64, false);
  ASSERT_GE(col, 0);
  const std::string& name = w2.columns()[col].name;
  Value v = w2.RandomValueOf(col);
  auto ca = base.CountByValue(name, v);
  auto cb = paged.CountByValue(name, v);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(*ca, *cb);
  EXPECT_GT(*ca, 0u);
}

TEST_F(ErpPopulateTest, AgingDateCorrelatesWithRowOrder) {
  ErpConfig config = SmallConfig(TableVariant::kBase, false);
  Table table(MakeErpSchema(config, "tb"), storage_.get(), rm_.get());
  ASSERT_TRUE(PopulateErpTable(&table, config).ok());
  // The oldest ~20% of rows have the smallest dates: a range count on the
  // temperature column returns about rows/5.
  auto cols = MakeErpColumns(config);
  int64_t threshold =
      cols[1].ValueAt(cols[1].cardinality / 5).AsInt64();
  auto result = table.SelectRange("aging_date", Value(int64_t{0}),
                                  Value(threshold), {"aging_date"});
  ASSERT_TRUE(result.ok());
  double frac =
      static_cast<double>(result->rows.size()) / static_cast<double>(config.rows);
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.25);
}

TEST(ErpWorkloadTest, DeterministicAndInRange) {
  ErpConfig config;
  config.rows = 1000;
  ErpWorkload a(config, 5), b(config, 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.RandomRow(), b.RandomRow());
  }
  ErpWorkload w(config, 9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(w.RandomRow(), config.rows);
  }
}

TEST(ErpWorkloadTest, RandomColumnOfTypeFilters) {
  ErpConfig config;
  config.rows = 50000;  // large enough that high-card columns exceed 1000
  ErpWorkload w(config, 3);
  std::set<int> low_int, high_str;
  for (int i = 0; i < 60; ++i) {
    int c1 = w.RandomColumnOfType(ValueType::kInt64, false);
    ASSERT_GE(c1, 0);
    EXPECT_LE(w.columns()[c1].cardinality, 1000u);
    EXPECT_EQ(w.columns()[c1].type, ValueType::kInt64);
    low_int.insert(c1);
    int c2 = w.RandomColumnOfType(ValueType::kString, true);
    ASSERT_GE(c2, 0);
    EXPECT_GT(w.columns()[c2].cardinality, 1000u);
    high_str.insert(c2);
  }
  EXPECT_GT(low_int.size(), 1u);  // picks among several candidates
}

TEST(ErpWorkloadTest, PkRangeRespectsSelectivity) {
  ErpConfig config;
  config.rows = 100000;
  ErpWorkload w(config, 17);
  for (double sel : {0.0001, 0.001, 0.01}) {
    auto [lo, hi] = w.RandomPkRange(sel);
    EXPECT_LT(lo.Compare(hi), sel >= 0.0001 ? 1 : 2);
    // Decode the span from the zero-padded doc numbers.
    uint64_t lo_n = std::stoull(lo.AsString().substr(3));
    uint64_t hi_n = std::stoull(hi.AsString().substr(3));
    EXPECT_EQ(hi_n - lo_n + 1,
              static_cast<uint64_t>(config.rows * sel));
  }
}

}  // namespace
}  // namespace payg
