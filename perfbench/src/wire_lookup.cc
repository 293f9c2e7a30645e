// wire_lookup: point lookups through the network front door. A self-hosted
// Server over a unix socket serves a table the benchmark builds from its
// seed; kClients closed-loop connections with no think time outnumber the
// worker pool, so the admission queue builds and the batcher has something
// to coalesce. 80% of requests are batchable lookups on the page-loadable,
// unindexed, randomly placed key column `k`; the rest (prefix counts and
// range sums) cannot be batched and show what batching costs them.

#include <filesystem>
#include <latch>
#include <random>
#include <thread>

#include "core/column_store.h"
#include "harness.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"

namespace perfbench {
namespace {

using payg::Status;
using payg::Value;
namespace fs = std::filesystem;

constexpr int kClients = 4;
// One worker keeps three requests queued behind the one running, so the
// batcher always has mates to coalesce, and leaves the other cores to the
// clients and session threads rather than to contention between workers.
constexpr uint32_t kServerWorkers = 1;
// Requests each client sends, checked but untimed, before the window opens.
constexpr int kWarmupRequests = 20;
// Rows summed by one SumRange request.
constexpr uint64_t kSumRangeRows = 2000;

enum Op { kCountByValue, kSelectByValue, kCountPrefix, kSumRange, kNumOps };
constexpr const char* kSpanNames[kNumOps] = {
    "client.count_by_value", "client.select_by_value", "client.count_prefix",
    "client.sum_range"};
constexpr const char* kStems[kNumOps] = {
    "wire.count_by_value_us", "wire.select_by_value_us", "wire.count_prefix_us",
    "wire.sum_range_us"};

// 40% counts and 40% selects (batchable), 10% prefix counts, 10% range sums.
Op PickOp(uint64_t r) {
  const uint64_t p = r % 100;
  return p < 40 ? kCountByValue
         : p < 80 ? kSelectByValue
         : p < 90 ? kCountPrefix
                  : kSumRange;
}

std::string Tag(int64_t key) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "K%06lld", static_cast<long long>(key));
  return buf;
}

class WireLookup : public Workload {
 public:
  explicit WireLookup(const Options& opt) : opt_(opt) {
    rows_ = opt.scale == Scale::kTiny ? 20000 : 500000;
    key_space_ = rows_ / 8;
    Generate();
  }
  ~WireLookup() override { Teardown(); }

  Status Setup(const std::string& dir, SetupStats* stats) override;
  void Teardown() override;
  Status Measure(double seconds, Window* w) override;
  const char* latency_model() const override { return "real-files"; }

 private:
  // Inputs and the reference kept beside them: the key of every row, the
  // rows of every key (CSR, ascending) and prefix sums of k by row.
  void Generate();
  // Issues one request, checks the answer and records it in *w.
  void Issue(payg::server::Client& client, std::mt19937_64& rng, Window* w);

  uint64_t KeyCount(uint64_t lo, uint64_t hi) const {  // keys [lo, hi]
    return key_start_[hi + 1] - key_start_[lo];
  }

  const Options opt_;
  uint64_t rows_ = 0;
  uint64_t key_space_ = 0;
  // Added to every expected answer: non-zero only when the self-test
  // corrupts the reference on purpose.
  int64_t bias_ = 0;
  std::vector<int64_t> key_of_row_;
  std::vector<uint32_t> key_start_;
  std::vector<uint32_t> rows_by_key_;
  std::vector<int64_t> key_sum_;
  uint64_t streams_ = 0;

  std::string dir_;
  std::unique_ptr<payg::ColumnStore> store_;
  std::unique_ptr<payg::server::Server> server_;
};

void WireLookup::Generate() {
  bias_ = opt_.corrupt_reference ? 1 : 0;
  // Keys are placed uniformly at random: a clustered layout would let page
  // summaries prune a point lookup to one page.
  std::mt19937_64 rng(opt_.seed * 0x9E3779B97F4A7C15ull + 1);
  key_of_row_.resize(rows_);
  key_start_.assign(key_space_ + 2, 0);
  key_sum_.assign(rows_ + 1, 0);
  for (uint64_t r = 0; r < rows_; ++r) {
    key_of_row_[r] = static_cast<int64_t>(rng() % key_space_);
    key_start_[key_of_row_[r] + 2] += 1;
    key_sum_[r + 1] = key_sum_[r] + key_of_row_[r];
  }
  for (uint64_t k = 0; k < key_space_; ++k) key_start_[k + 2] += key_start_[k + 1];
  rows_by_key_.resize(rows_);
  for (uint64_t r = 0; r < rows_; ++r) {
    rows_by_key_[key_start_[key_of_row_[r] + 1]++] = static_cast<uint32_t>(r);
  }
}

Status WireLookup::Setup(const std::string& dir, SetupStats* stats) {
  dir_ = dir;
  std::error_code ec;
  fs::remove_all(dir_, ec);
  fs::create_directories(dir_, ec);
  payg::ColumnStoreOptions options;
  options.directory = dir_ + "/data";
  options.storage.page_size = 8 * 1024;
  options.storage.dict_page_size = 32 * 1024;
  auto store = payg::ColumnStore::Open(options);
  if (!store.ok()) return store.status();
  store_ = std::move(*store);

  payg::TableSchema schema;
  schema.name = "T";
  schema.columns.push_back(
      {.name = "k", .type = payg::ValueType::kInt64, .page_loadable = true});
  schema.columns.push_back(
      {.name = "v", .type = payg::ValueType::kInt64, .page_loadable = true});
  schema.columns.push_back(
      {.name = "tag", .type = payg::ValueType::kString, .page_loadable = true});
  auto table = store_->CreateTable(schema);
  if (!table.ok()) return table.status();

  const auto t0 = Clock::now();
  for (uint64_t r = 0; r < rows_; ++r) {
    const int64_t k = key_of_row_[r];
    Status s = (*table)->Insert(
        {Value(k), Value(static_cast<int64_t>(r)), Value(Tag(k))});
    if (!s.ok()) return s;
  }
  Status merged = (*table)->MergeAll();
  if (!merged.ok()) return merged;
  stats->rows_loaded = rows_;
  stats->load_s = SecondsSince(t0);

  payg::server::ServerOptions server_options;
  server_options.unix_path = dir_ + "/s.sock";
  server_options.worker_threads = kServerWorkers;
  server_options.stats_dir = dir_ + "/stats";
  server_ = std::make_unique<payg::server::Server>(store_.get(), server_options);
  return server_->Start();
}

void WireLookup::Teardown() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  store_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    dir_.clear();
  }
}

void WireLookup::Issue(payg::server::Client& client, std::mt19937_64& rng,
                       Window* w) {
  const Op op = PickOp(rng());
  const uint64_t draw = rng();
  // Parameters are drawn before the clock starts and answers are checked
  // after it stops, so the latency is the round trip alone.
  const uint64_t key = draw % key_space_;
  const uint64_t prefix_id = draw % ((key_space_ + 99) / 100);
  const uint64_t lo = draw % (rows_ - kSumRangeRows);
  const uint64_t hi = lo + kSumRangeRows - 1;
  // "K" + the first four of six digits selects 100 consecutive keys.
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "K%04llu",
                static_cast<unsigned long long>(prefix_id));

  const auto t0 = Clock::now();
  payg::Result<uint64_t> count = Status::Internal("not issued");
  payg::Result<payg::QueryResult> rows = Status::Internal("not issued");
  payg::Result<double> sum = Status::Internal("not issued");
  switch (op) {
    case kCountByValue:
      count = client.CountByValue("T", "k", Value(static_cast<int64_t>(key)));
      break;
    case kSelectByValue:
      rows = client.SelectByValue("T", "k", Value(static_cast<int64_t>(key)),
                                  {"v"});
      break;
    case kCountPrefix:
      count = client.CountPrefix("T", "tag", prefix);
      break;
    case kSumRange:
      sum = client.SumRange("T", "v", Value(static_cast<int64_t>(lo)),
                            Value(static_cast<int64_t>(hi)), "k");
      break;
    case kNumOps:
      break;
  }
  const double us = MicrosSince(t0);
  if (payg::obs::Tracer::enabled()) {
    payg::obs::Tracer::Global().RecordSpan("bench", kSpanNames[op], t0,
                                           client.last_query_id());
  }
  ++w->attempted;
  ++w->queries;

  uint64_t matched = 0;
  Status status;
  bool right = false;
  switch (op) {
    case kCountByValue:
    case kCountPrefix:
      matched = op == kCountByValue
                    ? KeyCount(key, key)
                    : KeyCount(prefix_id * 100,
                               std::min(prefix_id * 100 + 99, key_space_ - 1));
      status = count.status();
      right = count.ok() && *count == matched + bias_;
      break;
    case kSelectByValue:
      matched = KeyCount(key, key);
      status = rows.status();
      if (rows.ok()) {
        std::vector<uint32_t> got;
        for (const auto& row : rows->rows) {
          got.push_back(static_cast<uint32_t>(row.at(0).AsInt64() + bias_));
        }
        std::sort(got.begin(), got.end());
        right = std::equal(got.begin(), got.end(),
                           rows_by_key_.begin() + key_start_[key],
                           rows_by_key_.begin() + key_start_[key + 1]);
      }
      break;
    case kSumRange:
      matched = kSumRangeRows;
      status = sum.status();
      right = sum.ok() && *sum == static_cast<double>(key_sum_[hi + 1] -
                                                      key_sum_[lo] + bias_);
      break;
    case kNumOps:
      break;
  }
  if (!status.ok() || !right) {
    const std::string what =
        op == kCountPrefix ? std::string(kSpanNames[op]) + " " + prefix
        : op == kSumRange  ? std::string(kSpanNames[op]) + " v in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]"
                           : std::string(kSpanNames[op]) + " k=" + std::to_string(key);
    if (!status.ok()) {
      w->Failed(what, status);
    } else {
      w->Wrong(what);
    }
    return;
  }
  w->matched_rows += matched;
  w->latency_us.Add(us);
  w->op_us[kStems[op]].Add(us);
}

Status WireLookup::Measure(double seconds, Window* w) {
  const uint64_t stream = streams_++;
  std::vector<Window> local(kClients);
  std::vector<Status> status(kClients);
  PeakTracker peak;
  std::latch ready(kClients + 1);
  std::latch go(1);
  Clock::time_point end;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = payg::server::Client::ConnectUnix(dir_ + "/s.sock");
      std::mt19937_64 rng(opt_.seed * 1000003 + stream * kClients + c);
      Window warmup;
      if (!client.ok()) {
        status[c] = client.status();
      } else {
        for (int i = 0; i < kWarmupRequests; ++i) Issue(**client, rng, &warmup);
      }
      ready.count_down();
      go.wait();
      if (!client.ok()) return;
      local[c].failed += warmup.failed;
      local[c].wrong += warmup.wrong;
      while (Clock::now() < end && !TraceBudgetSpent()) {
        Issue(**client, rng, &local[c]);
        peak.Observe(store_->MemoryFootprint());
      }
    });
  }
  ready.arrive_and_wait();
  const auto start = Clock::now();
  end = start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  go.count_down();
  for (auto& t : threads) t.join();
  const double wall = SecondsSince(start);
  for (int c = 0; c < kClients; ++c) {
    if (!status[c].ok()) return status[c];
    w->Merge(local[c]);
  }
  w->wall_s += wall;
  w->peak_resident_bytes.push_back(static_cast<double>(peak.peak()));
  w->disk_bytes.push_back(static_cast<double>(DirectoryBytes(dir_ + "/data")));
  return Status::OK();
}

}  // namespace

std::unique_ptr<Workload> MakeWireLookup(const Options& options) {
  return std::make_unique<WireLookup>(options);
}

}  // namespace perfbench
