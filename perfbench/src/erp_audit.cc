// erp_audit: the paper's §6.3 auditing scenario, in process. An ERP-shaped
// table (a unique document key, an aging date, low- and high-cardinality
// numbers and strings) is loaded with every column page loadable and
// indexed (the T_p^i variant), cold-started, and queried under a memory
// budget well below what the queries touch, with the 50 µs simulated page
// read latency — a model result, not a device measurement. One load
// thread runs a closed loop of Q_pk^* (one document, every column),
// Q_pk^str (one document, one string column) and Q_num^count (count of one
// value of a numeric column via its inverted index). Documents are drawn
// skewed toward recent ones, so the page cache has something to keep.

#include <cmath>
#include <filesystem>
#include <random>

#include "core/column_store.h"
#include "harness.h"
#include "obs/trace.h"
#include "spans.h"

namespace perfbench {
namespace {

using payg::Status;
using payg::Value;
using payg::ValueType;
namespace fs = std::filesystem;

constexpr uint32_t kReadLatencyUs = 50;
// The budget is this share of the store's on-disk bytes after loading; the
// paged pool shrinks to half of it when the budget is hit.
constexpr double kBudgetShareOfDisk = 0.10;
// Recency skew: a document's distance from the newest is rows * u^kSkew.
constexpr double kSkew = 3.0;

struct Column {
  std::string name;
  ValueType type;
  uint64_t cardinality;
  enum Dist { kUnique, kByRow, kUniform, kSkewed } dist;

  // The k-th distinct value; increasing in k, so k is also the value id.
  Value ValueAt(uint64_t k, size_t col) const {
    char buf[96];
    switch (type) {
      case ValueType::kInt64:
        return Value(static_cast<int64_t>(k * 7 + col));
      case ValueType::kDouble:
        return Value(static_cast<double>(k) * 0.25 + static_cast<double>(col));
      case ValueType::kString:
        if (dist == kUnique) {
          std::snprintf(buf, sizeof buf, "DOC%012llu",
                        static_cast<unsigned long long>(k));
        } else if (cardinality > 1000) {
          // Long text after the unique number keeps the order by k.
          static constexpr char kText[] = "qwertyuiopasdfghjklzxcvbnmqwertyuiop";
          std::snprintf(buf, sizeof buf, "%s_%08llu_%.*s", name.c_str(),
                        static_cast<unsigned long long>(k), 28,
                        kText + k % 8);
        } else {
          std::snprintf(buf, sizeof buf, "%s_%08llu", name.c_str(),
                        static_cast<unsigned long long>(k));
        }
        return Value(std::string(buf));
    }
    return Value();
  }
};

std::vector<Column> ErpColumns(uint64_t rows) {
  std::vector<Column> cols = {
      {"pk", ValueType::kString, rows, Column::kUnique},
      {"aging_date", ValueType::kInt64, std::min<uint64_t>(3650, rows),
       Column::kByRow},
  };
  const uint64_t low[] = {2, 5, 11, 17, 29, 41, 59, 71, 83, 97};
  for (int i = 0; i < 5; ++i) {
    cols.push_back({"int_lc" + std::to_string(i), ValueType::kInt64, low[i],
                    i % 2 == 0 ? Column::kSkewed : Column::kUniform});
  }
  for (int i = 0; i < 5; ++i) {
    cols.push_back({"str_lc" + std::to_string(i), ValueType::kString,
                    low[i + 5], Column::kUniform});
  }
  cols.push_back({"dec0", ValueType::kInt64, 97, Column::kUniform});
  cols.push_back({"dec1", ValueType::kInt64, 59, Column::kSkewed});
  cols.push_back({"dbl0", ValueType::kDouble, 83, Column::kUniform});
  cols.push_back({"dbl1", ValueType::kDouble, 29, Column::kSkewed});
  cols.push_back({"int_hc0", ValueType::kInt64, std::min<uint64_t>(1500, rows),
                  Column::kUniform});
  cols.push_back({"int_hc1", ValueType::kInt64, std::min<uint64_t>(4000, rows),
                  Column::kUniform});
  cols.push_back({"str_hc0", ValueType::kString,
                  std::min<uint64_t>(10000, rows), Column::kUniform});
  cols.push_back({"str_hc1", ValueType::kString,
                  std::min<uint64_t>(25000, rows), Column::kUniform});
  return cols;
}

class ErpAudit : public Workload {
 public:
  explicit ErpAudit(const Options& opt) : opt_(opt) {
    rows_ = opt.scale == Scale::kTiny ? 8000 : 300000;
    columns_ = ErpColumns(rows_);
    Generate();
  }
  ~ErpAudit() override { Teardown(); }

  Status Setup(const std::string& dir, SetupStats* stats) override;
  void Teardown() override;
  Status Measure(double seconds, Window* w) override;
  const char* latency_model() const override { return "model"; }

 private:
  // Generates every column's value ids; they double as the reference.
  void Generate();
  uint64_t RecentRow(std::mt19937_64& rng) const;
  // Checks one document lookup against the generated values; true when
  // right.
  bool Check(const payg::Result<payg::QueryResult>& r, uint64_t row,
             const std::vector<size_t>& cols, Window* w);

  const Options opt_;
  uint64_t rows_ = 0;
  std::vector<Column> columns_;
  std::vector<std::vector<uint32_t>> vids_;    // [column][row]
  std::vector<std::vector<uint32_t>> counts_;  // [column][vid]
  std::vector<size_t> string_cols_;
  std::vector<size_t> count_cols_;  // numeric columns Q_num^count probes
  // Non-zero only when the self-test corrupts the reference on purpose.
  uint32_t bias_ = 0;
  uint64_t streams_ = 0;

  std::string dir_;
  std::unique_ptr<payg::ColumnStore> store_;
  payg::Table* table_ = nullptr;
};

void ErpAudit::Generate() {
  bias_ = opt_.corrupt_reference ? 1 : 0;
  vids_.resize(columns_.size());
  counts_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& col = columns_[c];
    std::mt19937_64 rng(opt_.seed * 0x2545F4914F6CDD1Dull + c);
    auto& vids = vids_[c];
    vids.resize(rows_);
    counts_[c].assign(col.cardinality, 0);
    for (uint64_t r = 0; r < rows_; ++r) {
      uint64_t v = 0;
      switch (col.dist) {
        case Column::kUnique:
          v = r;
          break;
        case Column::kByRow:  // dates follow insertion order
          v = r * col.cardinality / rows_;
          break;
        case Column::kUniform:
          v = rng() % col.cardinality;
          break;
        case Column::kSkewed:  // 75% hold the default value
          v = rng() % 4 != 0 ? 0 : rng() % col.cardinality;
          break;
      }
      vids[r] = static_cast<uint32_t>(v);
      counts_[c][v] += 1;
    }
    if (col.type == ValueType::kString && c > 0) string_cols_.push_back(c);
    if (col.type != ValueType::kString && col.cardinality >= 50 &&
        col.dist != Column::kByRow) {
      count_cols_.push_back(c);
    }
  }
}

Status ErpAudit::Setup(const std::string& dir, SetupStats* stats) {
  dir_ = dir;
  std::error_code ec;
  fs::remove_all(dir_, ec);
  payg::ColumnStoreOptions options;
  options.directory = dir_ + "/data";
  options.storage.page_size = 8 * 1024;
  options.storage.dict_page_size = 32 * 1024;
  options.storage.simulated_read_latency_us = kReadLatencyUs;
  auto store = payg::ColumnStore::Open(options);
  if (!store.ok()) return store.status();
  store_ = std::move(*store);

  payg::TableSchema schema;
  schema.name = "erp";
  for (const Column& col : columns_) {
    schema.columns.push_back({.name = col.name,
                              .type = col.type,
                              .page_loadable = true,
                              .with_index = true,
                              .primary_key = col.dist == Column::kUnique});
  }
  schema.temperature_column = 1;
  auto table = store_->CreateTable(schema);
  if (!table.ok()) return table.status();
  table_ = *table;

  std::vector<Value> dict;
  std::vector<payg::ValueId> vids;
  double load_s = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    dict.clear();
    for (uint64_t k = 0; k < columns_[c].cardinality; ++k) {
      dict.push_back(columns_[c].ValueAt(k, c));
    }
    vids.assign(vids_[c].begin(), vids_[c].end());
    const auto t0 = Clock::now();
    Status s = table_->hot()->BulkLoadColumn(static_cast<int>(c), dict, vids);
    load_s += SecondsSince(t0);
    if (!s.ok()) return s;
  }
  stats->rows_loaded = rows_;
  stats->load_s = load_s;

  // Cold start under a budget well below what the audit touches.
  table_->UnloadAll();
  const auto budget = static_cast<uint64_t>(
      kBudgetShareOfDisk * static_cast<double>(DirectoryBytes(dir_ + "/data")));
  store_->resource_manager().SetPoolLimits(payg::PoolId::kPagedPool,
                                           {budget / 2, 0});
  store_->resource_manager().SetGlobalBudget(budget);
  return Status::OK();
}

void ErpAudit::Teardown() {
  table_ = nullptr;
  store_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    dir_.clear();
  }
}

uint64_t ErpAudit::RecentRow(std::mt19937_64& rng) const {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const auto back = static_cast<uint64_t>(static_cast<double>(rows_) *
                                          std::pow(u, kSkew));
  return rows_ - 1 - std::min(back, rows_ - 1);
}

bool ErpAudit::Check(const payg::Result<payg::QueryResult>& r, uint64_t row,
                     const std::vector<size_t>& cols, Window* w) {
  const std::string what = "document row " + std::to_string(row);
  if (!r.ok()) {
    w->Failed(what, r.status());
    return false;
  }
  bool right = r->rows.size() == 1 && r->rows[0].size() == cols.size();
  for (size_t i = 0; right && i < cols.size(); ++i) {
    const size_t c = cols[i];
    const uint64_t vid = (vids_[c][row] + bias_) % columns_[c].cardinality;
    right = r->rows[0][i] == columns_[c].ValueAt(vid, c);
  }
  if (!right) {
    w->Wrong(what);
    return false;
  }
  w->matched_rows += 1;
  return true;
}

Status ErpAudit::Measure(double seconds, Window* w) {
  enum Query { kPkAll, kPkStr, kNumCount };
  constexpr const char* kSpanNames[] = {
      "table.select_pk_all", "table.select_pk_str", "table.count_num"};
  constexpr const char* kStems[] = {"table.select_pk_all_us",
                                    "table.select_pk_str_us",
                                    "table.count_num_us"};
  std::mt19937_64 rng(opt_.seed * 7919 + streams_++);
  std::vector<size_t> all(columns_.size());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  PeakTracker peak;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  while (Clock::now() < end && !TraceBudgetSpent()) {
    // 45% Q_pk^* (the whole document), 40% Q_pk^str (one string field of
    // it), 15% Q_num^count through the inverted index.
    const uint64_t mix = rng() % 100;
    const Query q = mix < 45 ? kPkAll : mix < 85 ? kPkStr : kNumCount;
    const uint64_t row = RecentRow(rng);
    const Value pk = columns_[0].ValueAt(row, 0);
    const size_t str_col = string_cols_[rng() % string_cols_.size()];
    const size_t num_col = count_cols_[rng() % count_cols_.size()];
    const uint64_t vid = rng() % columns_[num_col].cardinality;
    const Value num = columns_[num_col].ValueAt(vid, num_col);

    payg::ExecContext ctx;
    payg::Result<payg::QueryResult> rows = Status::Internal("not issued");
    payg::Result<uint64_t> count = Status::Internal("not issued");
    const auto t0 = Clock::now();
    {
      payg::obs::TraceSpan span("bench", kSpanNames[q], ctx.query_id);
      switch (q) {
        case kPkAll:
          rows = table_->SelectByValue("pk", pk, {}, &ctx);
          break;
        case kPkStr:
          rows = table_->SelectByValue("pk", pk, {columns_[str_col].name}, &ctx);
          break;
        case kNumCount:
          count = table_->CountByValue(columns_[num_col].name, num, &ctx);
          break;
      }
    }
    const double us = MicrosSince(t0);
    ++w->attempted;
    ++w->queries;
    peak.Observe(store_->MemoryFootprint());

    bool right = false;
    if (q == kNumCount) {
      const std::string what = columns_[num_col].name + " count of vid " +
                               std::to_string(vid);
      if (!count.ok()) {
        w->Failed(what, count.status());
      } else if (*count != counts_[num_col][vid] + bias_) {
        w->Wrong(what);
      } else {
        right = true;
        w->matched_rows += *count;
      }
    } else {
      right = Check(rows, row, q == kPkAll ? all : std::vector<size_t>{str_col},
                    w);
    }
    if (right) {
      w->latency_us.Add(us);
      w->op_us[kStems[q]].Add(us);
    }
  }
  w->wall_s += SecondsSince(start);
  w->peak_resident_bytes.push_back(static_cast<double>(peak.peak()));
  w->disk_bytes.push_back(static_cast<double>(DirectoryBytes(dir_ + "/data")));
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeErpAudit(const Options& options) {
  return std::make_unique<ErpAudit>(options);
}

}  // namespace perfbench
