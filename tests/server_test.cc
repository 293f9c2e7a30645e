// Tests of the S25 network front door: wire protocol round trips, the
// end-to-end query surface over a unix socket, the same-partition batcher,
// deadline shedding in the admission queue, overload shedding, and the
// stats-dump admin op.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/column_store.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/seed.h"
#include "server/server.h"
#include "test_util.h"

namespace payg::server {
namespace {

using obs::MetricsRegistry;

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name)->value();
}

// --- wire protocol unit tests ---------------------------------------------

TEST(WireTest, RequestRoundTripsEveryOp) {
  for (int op = 0; op <= static_cast<int>(wire::Op::kDumpStats); ++op) {
    wire::Request req;
    req.op = static_cast<wire::Op>(op);
    req.deadline_us = 12345;
    req.table = "T";
    req.column = "k";
    req.sum_column = "v";
    req.value = Value(int64_t{42});
    req.lo = Value(int64_t{-7});
    req.hi = Value(3.25);
    req.values = {Value(int64_t{1}), Value(std::string("x"))};
    req.prefix = "K00";
    req.predicates = {Predicate::Eq("k", Value(int64_t{5})),
                      Predicate::Between("v", Value(int64_t{0}),
                                         Value(int64_t{9})),
                      Predicate::In("k", {Value(int64_t{1})}),
                      Predicate::Prefix("tag", "K")};
    req.select_columns = {"k", "v"};

    wire::Request out;
    ASSERT_TRUE(wire::DecodeRequest(wire::EncodeRequest(req), &out).ok())
        << "op " << op;
    EXPECT_EQ(out.op, req.op);
    EXPECT_EQ(out.deadline_us, req.deadline_us);
    EXPECT_EQ(out.table, req.table);
    // Operand fields the opcode does not carry come back defaulted; check
    // a few representative per-op payloads instead of all fields.
    if (req.op == wire::Op::kSelectByValue) {
      EXPECT_EQ(out.column, "k");
      EXPECT_EQ(out.value, req.value);
      EXPECT_EQ(out.select_columns, req.select_columns);
    }
    if (req.op == wire::Op::kSumRange) {
      EXPECT_EQ(out.lo, req.lo);
      EXPECT_EQ(out.hi, req.hi);
      EXPECT_EQ(out.sum_column, "v");
    }
    if (req.op == wire::Op::kSelectWhere) {
      ASSERT_EQ(out.predicates.size(), 4u);
      EXPECT_EQ(out.predicates[3].prefix, "K");
    }
  }
}

TEST(WireTest, ResponseRoundTrips) {
  wire::Response resp;
  resp.query_id = 99;
  resp.result.rows = {{Value(int64_t{1}), Value(std::string("a"))},
                      {Value(2.5), Value(int64_t{-3})}};
  wire::Response out;
  ASSERT_TRUE(wire::DecodeResponse(wire::Op::kSelectByValue,
                                   wire::EncodeResponse(
                                       wire::Op::kSelectByValue, resp),
                                   &out)
                  .ok());
  EXPECT_EQ(out.query_id, 99u);
  EXPECT_EQ(out.result, resp.result);

  wire::Response err;
  err.code = wire::Code::kShedDeadline;
  err.message = "late";
  ASSERT_TRUE(wire::DecodeResponse(wire::Op::kCountByValue,
                                   wire::EncodeResponse(
                                       wire::Op::kCountByValue, err),
                                   &out)
                  .ok());
  EXPECT_EQ(out.code, wire::Code::kShedDeadline);
  EXPECT_EQ(out.message, "late");
}

TEST(WireTest, TruncatedPayloadIsRejected) {
  wire::Request req;
  req.op = wire::Op::kSelectByValue;
  req.table = "T";
  req.column = "k";
  req.value = Value(std::string("hello"));
  std::string enc = wire::EncodeRequest(req);
  wire::Request out;
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(
        wire::DecodeRequest(std::string_view(enc).substr(0, cut), &out).ok())
        << "cut at " << cut;
  }
}

// --- end-to-end server tests ----------------------------------------------

constexpr uint64_t kRows = 4096;
constexpr uint64_t kKeySpace = kRows / 8;  // every key occurs 8 times

class ServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    server_.reset();
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  // Opens a seeded store; latency_us > 0 simulates slow page reads so a
  // full-scan query reliably occupies a worker for tens of ms.
  void OpenStore(uint32_t latency_us) {
    dir_ = TestDir("server");
    std::filesystem::remove_all(dir_);
    ColumnStoreOptions options;
    options.directory = dir_ + "/data";
    options.storage.page_size = 4096;
    options.storage.dict_page_size = 8192;
    options.storage.simulated_read_latency_us = latency_us;
    auto store = ColumnStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    ASSERT_TRUE(
        SeedDemoTable(store_.get(), {.rows = kRows, .key_space = kKeySpace})
            .ok());
  }

  void StartServer(ServerOptions options) {
    options.unix_path = dir_ + "/sock";
    options.stats_dir = dir_ + "/stats";
    server_ = std::make_unique<Server>(store_.get(), std::move(options));
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::ConnectUnix(server_->unix_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  // Evicts every page so the next queries pay the simulated latency.
  void UnloadTable() { (*store_->GetTable("T"))->UnloadAll(); }

  // Runs a full-scan SumRange; with latency and unloaded pages this holds
  // one worker for (pages × latency) — the "slow query" of the shed tests.
  void RunSlowQuery(Client* client) {
    auto sum = client->SumRange("T", "k", Value(int64_t{0}),
                                Value(static_cast<int64_t>(kKeySpace)), "v");
    EXPECT_TRUE(sum.ok()) << sum.status().ToString();
  }

  std::string dir_;
  std::unique_ptr<ColumnStore> store_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ServesEveryQueryShape) {
  OpenStore(/*latency_us=*/0);
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(client->Ping().ok());

  Table* table = *store_->GetTable("T");
  const Value k7(int64_t{7});

  auto select = client->SelectByValue("T", "k", k7, {"v"});
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(*select, *table->SelectByValue("k", k7, {"v"}));
  EXPECT_GT(select->rows.size(), 0u);
  EXPECT_GT(client->last_query_id(), 0u);

  auto count = client->CountByValue("T", "k", k7);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, *table->CountByValue("k", k7));
  EXPECT_EQ(*count, select->rows.size());

  auto row_ids = client->RowIdsByValue("T", "k", k7);
  ASSERT_TRUE(row_ids.ok());
  EXPECT_EQ(*row_ids, *table->RowIdsByValue("k", k7));

  auto range = client->SelectRange("T", "k", Value(int64_t{3}),
                                   Value(int64_t{5}), {"v"});
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, *table->SelectRange("k", Value(int64_t{3}),
                                        Value(int64_t{5}), {"v"}));

  auto sum = client->SumRange("T", "k", Value(int64_t{0}),
                              Value(int64_t{10}), "v");
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum, *table->SumRange("k", Value(int64_t{0}),
                                          Value(int64_t{10}), "v"));

  const std::vector<Value> in = {Value(int64_t{1}), Value(int64_t{9})};
  auto select_in = client->SelectIn("T", "k", in, {"v"});
  ASSERT_TRUE(select_in.ok());
  EXPECT_EQ(*select_in, *table->SelectIn("k", in, {"v"}));

  auto count_in = client->CountIn("T", "k", in);
  ASSERT_TRUE(count_in.ok());
  EXPECT_EQ(*count_in, *table->CountIn("k", in));
  EXPECT_EQ(*count_in, select_in->rows.size());

  auto prefix = client->SelectPrefix("T", "tag", "K00000", {"k"});
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, *table->SelectPrefix("tag", "K00000", {"k"}));

  auto count_prefix = client->CountPrefix("T", "tag", "K00000");
  ASSERT_TRUE(count_prefix.ok());
  EXPECT_EQ(*count_prefix, *table->CountPrefix("tag", "K00000"));
  EXPECT_GT(*count_prefix, 0u);  // keys K000000..K000009 all occur

  const std::vector<Predicate> where = {
      Predicate::Between("k", Value(int64_t{0}), Value(int64_t{3})),
      Predicate::Prefix("tag", "K000")};
  auto select_where = client->SelectWhere("T", where, {"v"});
  ASSERT_TRUE(select_where.ok());
  EXPECT_EQ(*select_where, *table->SelectWhere(where, {"v"}));

  auto count_where = client->CountWhere("T", where);
  ASSERT_TRUE(count_where.ok());
  EXPECT_EQ(*count_where, *table->CountWhere(where));
  EXPECT_EQ(*count_where, select_where->rows.size());
}

TEST_F(ServerTest, RejectsBadRequestsWithoutDroppingTheSession) {
  OpenStore(0);
  StartServer(ServerOptions{});
  auto client = Connect();

  // Unknown table / column / mistyped operand come back as engine codes.
  auto r1 = client->CountByValue("nope", "k", Value(int64_t{1}));
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  auto r2 = client->CountByValue("T", "nope", Value(int64_t{1}));
  EXPECT_EQ(r2.status().code(), StatusCode::kNotFound);
  auto r3 = client->CountByValue("T", "k", Value(std::string("seven")));
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  auto r4 = client->SumRange("T", "k", Value(int64_t{0}), Value(int64_t{1}),
                             "tag");  // SUM over a string column
  EXPECT_FALSE(r4.ok());

  // A malformed frame gets kBadRequest and the connection survives.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server_->unix_path().c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_TRUE(wire::WriteFrame(fd, "\xff garbage").ok());
  std::string payload;
  ASSERT_TRUE(wire::ReadFrame(fd, &payload).ok());
  wire::Response resp;
  ASSERT_TRUE(wire::DecodeResponse(wire::Op::kPing, payload, &resp).ok());
  EXPECT_EQ(resp.code, wire::Code::kBadRequest);
  ::close(fd);

  // The original client still works.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, BatchesConcurrentSamePartitionLookups) {
  OpenStore(0);
  ServerOptions options;
  options.worker_threads = 1;
  options.max_batch = 8;
  // A long window with max_batch == client count: the worker pops the
  // first lookup, then provably waits until all eight are coalesced (the
  // window only runs out if clients fail to arrive at all).
  options.batch_window_us = 2000000;
  StartServer(options);

  Table* table = *store_->GetTable("T");
  uint64_t expected[8];
  for (int t = 0; t < 8; ++t) {
    expected[t] = *table->CountByValue("k", Value(static_cast<int64_t>(t)));
  }

  const uint64_t batches0 = CounterValue("server.batches");
  const uint64_t size0 =
      MetricsRegistry::Global().histogram("server.batch_size")->sum();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, t, &failures, &expected] {
      auto client = Client::ConnectUnix(server_->unix_path());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto count =
          (*client)->CountByValue("T", "k", Value(static_cast<int64_t>(t)));
      if (!count.ok() || *count != expected[t]) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // All eight lookups ran as exactly one merged executor task.
  EXPECT_EQ(CounterValue("server.batches") - batches0, 1u);
  EXPECT_EQ(
      MetricsRegistry::Global().histogram("server.batch_size")->sum() - size0,
      8u);
}

TEST_F(ServerTest, DeadlineExpiredInQueueIsShedBeforeTheExecutor) {
  OpenStore(/*latency_us=*/1000);
  ServerOptions options;
  options.worker_threads = 1;
  options.max_batch = 1;  // no batching: the shed path must stand alone
  StartServer(options);
  UnloadTable();

  const uint64_t exec0 = CounterValue("exec.queries");
  const uint64_t shed0 = CounterValue("server.shed");
  const uint64_t shed_deadline0 = CounterValue("server.shed_deadline");

  // Hold the single worker on a cold full scan (hundreds of simulated-slow
  // page reads).
  std::thread slow([this] {
    auto client = Client::ConnectUnix(server_->unix_path());
    ASSERT_TRUE(client.ok());
    RunSlowQuery(client->get());
  });
  // Wait until the slow query reached the executor, so the next request
  // provably sits behind it in the queue.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (CounterValue("exec.queries") == exec0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(CounterValue("exec.queries"), exec0) << "slow query never ran";

  auto client = Connect();
  auto count =
      client->CountByValue("T", "k", Value(int64_t{1}), /*deadline_us=*/1);
  slow.join();

  // Shed with the distinct wire status, not executed-and-timed-out.
  ASSERT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsDeadlineExceeded());
  EXPECT_EQ(client->last_code(), wire::Code::kShedDeadline);
  EXPECT_EQ(CounterValue("server.shed") - shed0, 1u);
  EXPECT_EQ(CounterValue("server.shed_deadline") - shed_deadline0, 1u);
  // Only the slow query reached the executor; the shed lookup never did.
  EXPECT_EQ(CounterValue("exec.queries") - exec0, 1u);
}

TEST_F(ServerTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  OpenStore(/*latency_us=*/1000);
  ServerOptions options;
  options.worker_threads = 1;
  options.max_batch = 1;
  options.queue_capacity = 1;
  StartServer(options);
  UnloadTable();

  const uint64_t exec0 = CounterValue("exec.queries");
  const uint64_t shed_overload0 = CounterValue("server.shed_overload");

  // Pre-connect so the flood below is pure request traffic.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(Connect());

  std::thread slow([this] {
    auto client = Client::ConnectUnix(server_->unix_path());
    ASSERT_TRUE(client.ok());
    RunSlowQuery(client->get());
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (CounterValue("exec.queries") == exec0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(CounterValue("exec.queries"), exec0);

  std::atomic<int> overloaded{0}, other_failure{0};
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&client, &overloaded, &other_failure] {
      auto count = (*client).CountByValue("T", "k", Value(int64_t{1}));
      if (count.ok()) return;
      if (client->last_code() == wire::Code::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        other_failure.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  slow.join();

  // Queue bound 1 + busy worker: at least two of the four shed fast.
  EXPECT_GE(overloaded.load(), 2);
  EXPECT_EQ(other_failure.load(), 0);
  EXPECT_GE(CounterValue("server.shed_overload") - shed_overload0, 2u);
}

TEST_F(ServerTest, DumpStatsAdminRequestWritesPromFile) {
  OpenStore(0);
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->DumpStats().ok());

  const std::string prom = dir_ + "/stats/metrics.prom";
  ASSERT_TRUE(std::filesystem::exists(prom));
  std::ifstream in(prom);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("payg_server_requests_total"), std::string::npos);
  EXPECT_NE(contents.find("payg_server_accepted_total"), std::string::npos);
}

TEST_F(ServerTest, SessionLimitRejectsExtraConnections) {
  OpenStore(0);
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);

  auto first = Connect();
  ASSERT_TRUE(first->Ping().ok());

  // The second connection is accepted at the socket level, then refused
  // with a best-effort overload frame and closed.
  auto second = Client::ConnectUnix(server_->unix_path());
  ASSERT_TRUE(second.ok());
  Status s = (*second)->Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_GE(CounterValue("server.rejected_sessions"), 1u);

  // The first session is unaffected.
  EXPECT_TRUE(first->Ping().ok());
}

TEST_F(ServerTest, StopDrainsQueuedRequests) {
  OpenStore(/*latency_us=*/500);
  ServerOptions options;
  options.worker_threads = 1;
  options.max_batch = 4;
  StartServer(options);
  UnloadTable();

  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &completed] {
      auto client = Client::ConnectUnix(server_->unix_path());
      if (!client.ok()) return;
      auto count =
          (*client)->CountByValue("T", "k", Value(static_cast<int64_t>(t)));
      if (count.ok() && *count == 8u) completed.fetch_add(1);
    });
  }
  // Stop while requests are likely in flight: queued work must complete
  // (drain semantics), not hang or crash.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server_->Stop();
  for (auto& t : threads) t.join();
  // No assertion on the count: requests that arrived after Stop were shed
  // with kOverloaded. What matters is that every thread got an answer.
  SUCCEED();
}

}  // namespace
}  // namespace payg::server
