#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "buffer/resource_manager.h"
#include "exec/exec_context.h"
#include "exec/query_executor.h"
#include "exec/thread_pool.h"
#include "table/table.h"
#include "test_util.h"

namespace payg {
namespace {

// --- ThreadPool / QueryExecutor -------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(QueryExecutorTest, SerialModeRunsInlineInOrder) {
  QueryExecutor exec(ExecOptions{/*worker_threads=*/0});
  EXPECT_FALSE(exec.parallel());
  std::vector<size_t> order;
  ASSERT_TRUE(exec.ForEach(nullptr, 5,
                           [&order](size_t i) {
                             order.push_back(i);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(QueryExecutorTest, ParallelModeRunsEveryTask) {
  QueryExecutor exec(ExecOptions{/*worker_threads=*/4});
  EXPECT_TRUE(exec.parallel());
  std::atomic<uint64_t> sum{0};
  ASSERT_TRUE(exec.ForEach(nullptr, 64,
                           [&sum](size_t i) {
                             sum.fetch_add(i + 1, std::memory_order_relaxed);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(sum.load(), 64u * 65u / 2);
}

// Scribbles over the stack below the caller, where the frame of the
// ForEach that just returned lived.
[[gnu::noinline]] void ClobberStack() {
  volatile unsigned char junk[4096];
  for (size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xff;
}

// Tasks that finish before the caller waits: the last one must be done
// with the join state (ForEach stack locals) by the time ForEach returns.
// A task that still touches it finds a clobbered mutex and blocks forever,
// so a watchdog turns that hang into a failure.
TEST(QueryExecutorTest, ForEachReturnsOnlyAfterTheLastTaskLetsGo) {
  std::promise<void> finished;
  std::thread watchdog([done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "ForEach join hung: a task outlived ForEach\n");
      std::abort();
    }
  });
  QueryExecutor exec(ExecOptions{/*worker_threads=*/2});
  std::atomic<uint64_t> ran{0};
  bool ok = true;
  for (int q = 0; q < 20000; ++q) {
    ok = exec.ForEach(nullptr, 2,
                      [&ran](size_t) {
                        ran.fetch_add(1, std::memory_order_relaxed);
                        return Status::OK();
                      })
             .ok() &&
         ok;
    ClobberStack();
  }
  finished.set_value();
  watchdog.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ran.load(), 40000u);
}

TEST(QueryExecutorTest, ReportsFirstErrorInIndexOrder) {
  for (uint32_t workers : {0u, 4u}) {
    QueryExecutor exec(ExecOptions{workers});
    Status s = exec.ForEach(nullptr, 8, [](size_t i) -> Status {
      if (i == 2) return Status::InvalidArgument("task 2");
      if (i == 5) return Status::Internal("task 5");
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    // Index order, not completion order: task 2's error wins.
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "workers=" << workers;
  }
}

TEST(QueryExecutorTest, ExpiredDeadlineFailsFanOut) {
  for (uint32_t workers : {0u, 4u}) {
    QueryExecutor exec(ExecOptions{workers});
    ExecContext ctx;
    ctx.deadline = ExecContext::Clock::now() - std::chrono::seconds(1);
    std::atomic<int> ran{0};
    Status s = exec.ForEach(&ctx, 4, [&ran](size_t) {
      ran.fetch_add(1);
      return Status::OK();
    });
    EXPECT_TRUE(s.IsDeadlineExceeded()) << "workers=" << workers;
    EXPECT_EQ(ran.load(), 0) << "workers=" << workers;
  }
}

// --- Table-level parallel execution ---------------------------------------

TableSchema OrdersSchema(const std::string& name = "orders") {
  TableSchema schema;
  schema.name = name;
  schema.columns.push_back({"id", ValueType::kString, /*page_loadable=*/true,
                            /*with_index=*/true, /*primary_key=*/true});
  schema.columns.push_back(
      {"aging_date", ValueType::kInt64, true, false, false});
  schema.columns.push_back({"status", ValueType::kString, true, false, false});
  schema.columns.push_back({"amount", ValueType::kInt64, true, false, false});
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

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("exec");
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 8192;
    opts.dict_page_size = 8192;
    auto sm = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
    rm_ = std::make_unique<ResourceManager>();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Hot partition (dates 200..299) plus two merged cold partitions
  // (0..99 and 100..199), all columns page loadable, nothing resident.
  std::unique_ptr<Table> MakeAgedOrders(int rows = 300) {
    auto table =
        std::make_unique<Table>(OrdersSchema(), storage_.get(), rm_.get());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(
          table
              ->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
              .ok());
    }
    EXPECT_TRUE(table->MergeAll().ok());
    EXPECT_TRUE(table->AddColdPartition().ok());
    auto moved1 = table->AgeRows(Value(int64_t{99}));
    EXPECT_TRUE(moved1.ok());
    EXPECT_EQ(*moved1, 100u);
    EXPECT_TRUE(table->MergeAll().ok());
    EXPECT_TRUE(table->AddColdPartition().ok());
    auto moved2 = table->AgeRows(Value(int64_t{199}));
    EXPECT_TRUE(moved2.ok());
    EXPECT_EQ(*moved2, 100u);
    EXPECT_TRUE(table->MergeAll().ok());
    EXPECT_EQ(table->partition_count(), 3u);
    table->UnloadAll();  // every query starts against cold partitions
    return table;
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

// Runs `query` once with worker_threads = 0 and once with 4 workers and
// requires the exact same result (QueryResult rows, counts, row ids, and —
// because partials merge in partition order — even SUM doubles).
template <typename Fn>
void ExpectSerialParallelEqual(Table* table, const char* label, Fn query) {
  table->set_exec_options(ExecOptions{/*worker_threads=*/0});
  auto serial = query();
  ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
  table->set_exec_options(ExecOptions{/*worker_threads=*/4});
  auto parallel = query();
  ASSERT_TRUE(parallel.ok()) << label << ": " << parallel.status().ToString();
  EXPECT_EQ(*serial, *parallel) << label;
  table->set_exec_options(ExecOptions{/*worker_threads=*/0});
}

TEST_F(ExecTest, ParallelMatchesSerialOnEveryTemplate) {
  auto table = MakeAgedOrders();
  Table* t = table.get();
  const std::vector<std::string> all_cols = {};  // empty = all columns

  ExpectSerialParallelEqual(t, "SelectByValue(status)", [t, &all_cols] {
    return t->SelectByValue("status", Value(std::string("S3")), all_cols);
  });
  ExpectSerialParallelEqual(t, "SelectByValue(id)", [t, &all_cols] {
    return t->SelectByValue("id", OrderRow(142, 0, "", 0)[0], all_cols);
  });
  ExpectSerialParallelEqual(t, "CountByValue", [t] {
    return t->CountByValue("status", Value(std::string("S1")));
  });
  ExpectSerialParallelEqual(t, "RowIdsByValue", [t] {
    return t->RowIdsByValue("status", Value(std::string("S2")));
  });
  ExpectSerialParallelEqual(t, "SelectRange", [t, &all_cols] {
    return t->SelectRange("aging_date", Value(int64_t{50}), Value(int64_t{250}),
                          all_cols);
  });
  ExpectSerialParallelEqual(t, "SumRange", [t] {
    return t->SumRange("aging_date", Value(int64_t{10}), Value(int64_t{290}),
                       "amount");
  });
  ExpectSerialParallelEqual(t, "SelectIn", [t, &all_cols] {
    return t->SelectIn(
        "id",
        {OrderRow(7, 0, "", 0)[0], OrderRow(107, 0, "", 0)[0],
         OrderRow(207, 0, "", 0)[0]},
        all_cols);
  });
  ExpectSerialParallelEqual(t, "CountIn", [t] {
    return t->CountIn("status",
                      {Value(std::string("S0")), Value(std::string("S4"))});
  });
  ExpectSerialParallelEqual(t, "SelectPrefix", [t, &all_cols] {
    return t->SelectPrefix("id", "ORD000001", all_cols);
  });
  ExpectSerialParallelEqual(t, "CountPrefix",
                            [t] { return t->CountPrefix("id", "ORD0000"); });
  ExpectSerialParallelEqual(t, "SelectWhere", [t, &all_cols] {
    return t->SelectWhere(
        {Predicate::Eq("status", Value(std::string("S3"))),
         Predicate::Between("aging_date", Value(int64_t{20}),
                            Value(int64_t{280}))},
        all_cols);
  });
  ExpectSerialParallelEqual(t, "CountWhere", [t] {
    return t->CountWhere({Predicate::Between("aging_date", Value(int64_t{0}),
                                             Value(int64_t{299})),
                          Predicate::Eq("status", Value(std::string("S0")))});
  });
}

TEST_F(ExecTest, RowIdsIdentifyPartitionsInBothModes) {
  auto table = MakeAgedOrders();
  for (uint32_t workers : {0u, 4u}) {
    table->set_exec_options(ExecOptions{workers});
    // Date 150 lives in cold partition 2 (second aging wave).
    auto ids = table->RowIdsByValue("aging_date", Value(int64_t{150}));
    ASSERT_TRUE(ids.ok());
    ASSERT_EQ(ids->size(), 1u) << "workers=" << workers;
    EXPECT_EQ((*ids)[0].partition, 2u) << "workers=" << workers;
  }
}

TEST_F(ExecTest, SelectByValueCountersPopulated) {
  auto table = MakeAgedOrders();
  for (uint32_t workers : {0u, 4u}) {
    table->set_exec_options(ExecOptions{workers});
    table->UnloadAll();

    // Unindexed string column: served by data-vector scans.
    ExecContext scan_ctx;
    auto rows =
        table->SelectByValue("status", Value(std::string("S3")), {}, &scan_ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), 60u);
    auto s = scan_ctx.stats.snapshot();
    EXPECT_EQ(s.partitions_visited, 3u) << "workers=" << workers;
    EXPECT_GT(s.pages_pinned, 0u) << "workers=" << workers;
    EXPECT_GT(s.pages_read, 0u) << "workers=" << workers;
    EXPECT_GT(s.bytes_read, 0u) << "workers=" << workers;
    EXPECT_GT(s.rows_scanned, 0u) << "workers=" << workers;
    EXPECT_GT(s.vector_scans, 0u) << "workers=" << workers;

    // Indexed pk column: served by inverted-index lookups.
    ExecContext idx_ctx;
    auto row =
        table->SelectByValue("id", OrderRow(42, 0, "", 0)[0], {}, &idx_ctx);
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row->rows.size(), 1u);
    EXPECT_GT(idx_ctx.stats.snapshot().index_lookups, 0u)
        << "workers=" << workers;
  }
}

TEST_F(ExecTest, SelectRangeCountersPopulated) {
  auto table = MakeAgedOrders();
  for (uint32_t workers : {0u, 4u}) {
    table->set_exec_options(ExecOptions{workers});
    table->UnloadAll();
    ExecContext ctx;
    auto rows = table->SelectRange("aging_date", Value(int64_t{80}),
                                   Value(int64_t{220}), {}, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), 141u);
    auto s = ctx.stats.snapshot();
    EXPECT_EQ(s.partitions_visited, 3u) << "workers=" << workers;
    EXPECT_GT(s.pages_pinned, 0u) << "workers=" << workers;
    EXPECT_GT(s.rows_scanned, 0u) << "workers=" << workers;
  }
}

TEST_F(ExecTest, SelectWhereCountersPopulated) {
  auto table = MakeAgedOrders();
  for (uint32_t workers : {0u, 4u}) {
    table->set_exec_options(ExecOptions{workers});
    table->UnloadAll();
    ExecContext ctx;
    auto rows = table->SelectWhere(
        {Predicate::Eq("status", Value(std::string("S2"))),
         Predicate::Between("aging_date", Value(int64_t{0}),
                            Value(int64_t{299}))},
        {}, &ctx);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), 60u);
    auto s = ctx.stats.snapshot();
    EXPECT_EQ(s.partitions_visited, 3u) << "workers=" << workers;
    EXPECT_GT(s.pages_pinned, 0u) << "workers=" << workers;
    EXPECT_GT(s.rows_scanned, 0u) << "workers=" << workers;
  }
}

TEST_F(ExecTest, ExpiredDeadlineCancelsQueryInBothModes) {
  auto table = MakeAgedOrders();
  for (uint32_t workers : {0u, 4u}) {
    table->set_exec_options(ExecOptions{workers});
    ExecContext ctx;
    ctx.deadline = ExecContext::Clock::now() - std::chrono::seconds(1);
    auto rows =
        table->SelectByValue("status", Value(std::string("S3")), {}, &ctx);
    ASSERT_FALSE(rows.ok()) << "workers=" << workers;
    EXPECT_TRUE(rows.status().IsDeadlineExceeded()) << "workers=" << workers;
  }
}

TEST_F(ExecTest, ZeroWorkerOptionKeepsSerialExecutor) {
  Table table(OrdersSchema("serial"), storage_.get(), rm_.get(),
              ExecOptions{/*worker_threads=*/0});
  EXPECT_EQ(table.exec_options().worker_threads, 0u);
  Table par(OrdersSchema("par"), storage_.get(), rm_.get(),
            ExecOptions{/*worker_threads=*/2});
  EXPECT_EQ(par.exec_options().worker_threads, 2u);
}

}  // namespace
}  // namespace payg
