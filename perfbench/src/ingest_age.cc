// ingest_age: the §4 data-aging loop, in process. A sales-order table with
// a temperature column (closed_on) mixes resident and page-loadable
// columns; cold partitions run under cold-pool limits. One load thread
// runs a fixed, seeded sequence — one epoch — on a freshly set-up store
// whose oldest days already sit in a cold partition: each simulated day
// inserts a batch of orders into the hot delta, a range read (SumRange or
// SelectRange over hot or cold days, fanned out over two executor workers)
// follows every few inserts, the day ends with MergeAll, every few days
// AgeRows + MergeAll moves closed orders to the cold partition, and the
// epoch ends by adding a new cold partition. Real files, no latency model:
// readahead and batched reads show up as syscalls and bytes, not as
// modelled time.

#include <cstring>
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
namespace fs = std::filesystem;

constexpr const char* kStatuses[] = {"OPEN", "CLOSED", "BILLED", "PAID",
                                     "CANCELLED"};
constexpr uint32_t kExecWorkers = 2;
constexpr uint64_t kColdPoolLower = 256 * 1024;
constexpr uint64_t kColdPoolUpper = 512 * 1024;

struct Shape {
  uint64_t rows_per_day;
  uint64_t initial_days;  // loaded by the set-up
  uint64_t epoch_days;    // inserted by one measured epoch
  uint64_t read_every;    // inserts between two reads
  uint64_t age_every;     // days between two aging rounds
  uint64_t keep_hot;      // days that stay in the hot partition
};

constexpr Shape kFull = {400, 20, 30, 20, 10, 15};
constexpr Shape kTiny = {40, 10, 20, 4, 5, 8};

struct Order {
  std::string id;
  int64_t day;
  uint32_t status;
  int64_t amount;
  int64_t customer;
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

class IngestAge : public Workload {
 public:
  explicit IngestAge(const Options& opt)
      : opt_(opt), shape_(opt.scale == Scale::kTiny ? kTiny : kFull) {
    Generate();
  }
  ~IngestAge() override { Teardown(); }

  Status Setup(const std::string& dir, SetupStats* stats) override;
  void Teardown() override;
  Status Measure(double seconds, Window* w) override;
  bool epochs() const override { return true; }
  const char* latency_model() const override { return "real-files"; }

 private:
  // Every order of the set-up and the epoch, and the reference read
  // answers are checked against: prefix sums over orders of the amount and
  // of an id hash.
  void Generate();
  Status InsertOrder(const Order& o, Window* w);
  // A range read over two days up to `today`, while days up to
  // `aged_through` are cold and `inserted` orders are in.
  void Read(std::mt19937_64& rng, uint64_t today, int64_t aged_through,
            uint64_t inserted, Window* w);
  // The newest day the set-up moves to its cold partition.
  int64_t SetupAgedThrough() const {
    return static_cast<int64_t>(shape_.initial_days - shape_.keep_hot) - 1;
  }
  // Times one write call into the program.
  template <typename Fn>
  Status Write(const char* stem, Window* w, const Fn& fn);

  const Options opt_;
  const Shape shape_;
  std::vector<Order> orders_;  // in insertion order, days ascending
  std::vector<uint64_t> hash_prefix_;
  std::vector<int64_t> amount_prefix_;
  // Non-zero only when the self-test corrupts the reference on purpose.
  int64_t bias_ = 0;
  uint64_t epochs_run_ = 0;

  std::string dir_;
  std::unique_ptr<payg::ColumnStore> store_;
  payg::Table* table_ = nullptr;
  PeakTracker* peak_ = nullptr;
};

void IngestAge::Generate() {
  bias_ = opt_.corrupt_reference ? 1 : 0;
  const uint64_t days = shape_.initial_days + shape_.epoch_days;
  std::mt19937_64 rng(opt_.seed * 0xD1B54A32D192ED03ull + 3);
  hash_prefix_.assign(1, 0);
  amount_prefix_.assign(1, 0);
  char id[24];
  for (uint64_t d = 0; d < days; ++d) {
    for (uint64_t i = 0; i < shape_.rows_per_day; ++i) {
      std::snprintf(id, sizeof id, "SO%010llu",
                    static_cast<unsigned long long>(orders_.size()));
      Order o{id, static_cast<int64_t>(d), static_cast<uint32_t>(rng() % 5),
              static_cast<int64_t>(rng() % 100000),
              static_cast<int64_t>(rng() % 5000)};
      hash_prefix_.push_back(hash_prefix_.back() + Fnv1a(o.id));
      amount_prefix_.push_back(amount_prefix_.back() + o.amount);
      orders_.push_back(std::move(o));
    }
  }
}

template <typename Fn>
Status IngestAge::Write(const char* stem, Window* w, const Fn& fn) {
  const auto t0 = Clock::now();
  Status s = fn();
  const double us = MicrosSince(t0);
  ++w->attempted;
  w->write_s += us * 1e-6;
  w->op_us[stem].Add(us);
  peak_->Observe(store_->MemoryFootprint());
  if (!s.ok()) w->Failed(stem, s);
  return s;
}

Status IngestAge::InsertOrder(const Order& o, Window* w) {
  const std::vector<Value> row = {Value(o.id), Value(o.day),
                                  Value(std::string(kStatuses[o.status])),
                                  Value(o.amount), Value(o.customer)};
  Status s = Write("table.insert_us", w, [&] {
    payg::obs::TraceSpan span("bench", "table.insert");
    return table_->Insert(row);
  });
  if (s.ok()) {
    w->rows_ingested += 1;
    w->user_bytes_ingested +=
        o.id.size() + 3 * sizeof(int64_t) + std::strlen(kStatuses[o.status]);
  }
  return s;
}

Status IngestAge::Setup(const std::string& dir, SetupStats* stats) {
  dir_ = dir;
  std::error_code ec;
  fs::remove_all(dir_, ec);
  payg::ColumnStoreOptions options;
  options.directory = dir_ + "/data";
  options.storage.page_size = 8 * 1024;
  options.storage.dict_page_size = 32 * 1024;
  options.cold_paged_pool_limits = {kColdPoolLower, kColdPoolUpper};
  auto store = payg::ColumnStore::Open(options);
  if (!store.ok()) return store.status();
  store_ = std::move(*store);

  payg::TableSchema schema;
  schema.name = "sales_orders";
  schema.columns = {
      {.name = "id", .type = payg::ValueType::kString, .page_loadable = true,
       .with_index = true, .primary_key = true},
      {.name = "closed_on", .type = payg::ValueType::kInt64},
      {.name = "status", .type = payg::ValueType::kString},
      {.name = "amount", .type = payg::ValueType::kInt64, .page_loadable = true},
      {.name = "customer", .type = payg::ValueType::kInt64,
       .page_loadable = true},
  };
  schema.temperature_column = 1;
  auto table = store_->CreateTable(schema);
  if (!table.ok()) return table.status();
  table_ = *table;
  table_->set_exec_options({.worker_threads = kExecWorkers});

  Window load;
  PeakTracker peak;
  peak_ = &peak;
  const auto t0 = Clock::now();
  Status s;
  const uint64_t initial_rows = shape_.initial_days * shape_.rows_per_day;
  for (uint64_t i = 0; s.ok() && i < initial_rows; ++i) {
    s = InsertOrder(orders_[i], &load);
  }
  if (s.ok()) s = table_->MergeAll();
  // One aging round already in the set-up: with a cold partition present
  // every measured read fans out over the executor pool, instead of the
  // first reads of an epoch running inline on a single partition.
  if (s.ok()) s = table_->AddColdPartition();
  if (s.ok()) {
    auto moved = table_->AgeRows(Value(SetupAgedThrough()));
    s = moved.status();
  }
  if (s.ok()) s = table_->MergeAll();
  peak_ = nullptr;
  stats->rows_loaded = load.rows_ingested;
  stats->load_s = SecondsSince(t0);
  return s;
}

void IngestAge::Teardown() {
  table_ = nullptr;
  store_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    dir_.clear();
  }
}

void IngestAge::Read(std::mt19937_64& rng, uint64_t today,
                     int64_t aged_through, uint64_t inserted, Window* w) {
  // 70% sums over two hot days, 10% sums over two cold days, 20% selects
  // over any two days. One class dominating keeps the latency median inside
  // one operation's distribution rather than on the edge between two, and a
  // fixed width keeps the cost of one read steady.
  const uint64_t cold_days = static_cast<uint64_t>(aged_through) + 1;
  const uint64_t kind = rng() % 10;
  const bool sum = kind < 8;
  const uint64_t lo = kind < 7   ? cold_days + rng() % (today - cold_days)
                      : kind < 8 ? rng() % (cold_days - 1)
                                 : rng() % today;
  const uint64_t hi = lo + 1;
  // Orders are inserted day by day, so a day range is an order range.
  const uint64_t first = lo * shape_.rows_per_day;
  const uint64_t last = std::min((hi + 1) * shape_.rows_per_day, inserted);
  const uint64_t count = last - first;
  const uint64_t hash = hash_prefix_[last] - hash_prefix_[first];
  const int64_t amount = amount_prefix_[last] - amount_prefix_[first];
  const Value vlo(static_cast<int64_t>(lo)), vhi(static_cast<int64_t>(hi));
  payg::ExecContext ctx;
  payg::Result<double> total = Status::Internal("not issued");
  payg::Result<payg::QueryResult> rows = Status::Internal("not issued");
  const auto t0 = Clock::now();
  if (sum) {
    payg::obs::TraceSpan span("bench", "table.sum_range", ctx.query_id);
    total = table_->SumRange("closed_on", vlo, vhi, "amount", &ctx);
  } else {
    payg::obs::TraceSpan span("bench", "table.select_range", ctx.query_id);
    rows = table_->SelectRange("closed_on", vlo, vhi, {"id", "amount"}, &ctx);
  }
  const double us = MicrosSince(t0);
  ++w->attempted;
  ++w->queries;
  peak_->Observe(store_->MemoryFootprint());

  const Status status = sum ? total.status() : rows.status();
  bool right = false;
  if (sum && total.ok()) {
    right = *total == static_cast<double>(amount + bias_);
  } else if (!sum && rows.ok()) {
    uint64_t got_hash = 0;
    int64_t got_amount = 0;
    for (const auto& row : rows->rows) {
      got_hash += Fnv1a(row.at(0).AsString());
      got_amount += row.at(1).AsInt64();
    }
    right = rows->rows.size() == count && got_hash == hash &&
            got_amount == amount + bias_;
  }
  if (status.ok() && right) {
    w->matched_rows += count;
    w->latency_us.Add(us);
    w->op_us[sum ? "table.sum_range_us" : "table.select_range_us"].Add(us);
    return;
  }
  const std::string what = std::string(sum ? "sum" : "select") +
                           " closed_on in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]";
  if (!status.ok()) {
    w->Failed(what, status);
  } else {
    w->Wrong(what);
  }
}

Status IngestAge::Measure(double /*seconds*/, Window* w) {
  // Each epoch draws its own reads, so a run samples many read mixes.
  std::mt19937_64 rng(opt_.seed * 0x9FB21C651E98DF25ull + epochs_run_++);
  PeakTracker peak;
  peak_ = &peak;
  int64_t aged_through = SetupAgedThrough();  // newest day in a cold partition
  uint64_t inserted = 0;
  const auto start = Clock::now();
  Status s;
  for (uint64_t d = shape_.initial_days;
       s.ok() && d < shape_.initial_days + shape_.epoch_days &&
       !TraceBudgetSpent();
       ++d) {
    const uint64_t first = d * shape_.rows_per_day;
    for (uint64_t i = 0; s.ok() && i < shape_.rows_per_day; ++i) {
      s = InsertOrder(orders_[first + i], w);
      ++inserted;
      if (s.ok() && (i + 1) % shape_.read_every == 0) {
        Read(rng, d, aged_through, first + i + 1, w);
      }
    }
    if (s.ok()) {
      s = Write("table.merge_us", w, [&] {
        payg::obs::TraceSpan span("bench", "table.merge");
        return table_->MergeAll();
      });
    }
    if (s.ok() && (d + 1) % shape_.age_every == 0) {
      const auto threshold = static_cast<int64_t>(d - shape_.keep_hot);
      const uint64_t expected =
          (threshold - aged_through) * shape_.rows_per_day;
      payg::Result<uint64_t> moved = uint64_t{0};
      // A new cold partition only on the epoch's last day: every read of an
      // epoch then fans out over the same two partitions.
      if (d + 1 == shape_.initial_days + shape_.epoch_days) {
        s = Write("table.add_cold_partition_us", w, [&] {
          payg::obs::TraceSpan span("bench", "table.add_cold_partition");
          return table_->AddColdPartition();
        });
      }
      if (s.ok()) {
        s = Write("table.age_us", w, [&] {
          payg::obs::TraceSpan span("bench", "table.age");
          moved = table_->AgeRows(Value(threshold));
          return moved.status();
        });
      }
      if (s.ok() && *moved != expected + bias_) {
        w->Wrong("aged " + std::to_string(*moved) + " rows, expected " +
                 std::to_string(expected));
      }
      aged_through = threshold;
      if (s.ok()) {
        s = Write("table.merge_us", w, [&] {
          payg::obs::TraceSpan span("bench", "table.merge");
          return table_->MergeAll();
        });
      }
    }
  }
  w->wall_s += SecondsSince(start);
  w->peak_resident_bytes.push_back(static_cast<double>(peak.peak()));
  w->disk_bytes.push_back(static_cast<double>(DirectoryBytes(dir_ + "/data")));
  peak_ = nullptr;
  const uint64_t rows = shape_.initial_days * shape_.rows_per_day + inserted;
  if (s.ok() && table_->visible_row_count() != rows + bias_) {
    w->Wrong("table holds " + std::to_string(table_->visible_row_count()) +
             " visible rows, expected " + std::to_string(rows));
  }
  return s;
}

}  // namespace

std::unique_ptr<Workload> MakeIngestAge(const Options& options) {
  return std::make_unique<IngestAge>(options);
}

}  // namespace perfbench
