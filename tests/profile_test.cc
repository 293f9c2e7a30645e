#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "exec/exec_context.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/slow_query_ring.h"
#include "obs/stats_dumper.h"
#include "table/table.h"
#include "test_util.h"

namespace payg {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (same shape as the one in obs_test.cc):
// validates the machine-readable dumps without a JSON library.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool Value() {
    switch (Peek()) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Literal(const char* word) {
    SkipWs();
    size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool Object() {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    do {
      if (!String() || !Eat(':') || !Value()) return false;
    } while (Eat(','));
    return Eat('}');
  }
  bool Array() {
    if (!Eat('[')) return false;
    if (Eat(']')) return true;
    do {
      if (!Value()) return false;
    } while (Eat(','));
    return Eat(']');
  }
  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }
  bool Number() {
    SkipWs();
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s_[pos_]))) digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Prometheus text exposition (v0.0.4) line-format validator. Checks, line by
// line, what a scraper's parser would reject:
//   - every line is `# TYPE <name> <kind>`, `# HELP ...`, blank, or a sample
//   - sample names are [a-zA-Z_:][a-zA-Z0-9_:]* and belong to a family whose
//     `# TYPE` line came first (counters via `_total`, histograms via
//     `_bucket`/`_sum`/`_count`)
//   - sample values parse as numbers (or +Inf/NaN)
//   - per histogram family: `le` labels strictly increase, cumulative bucket
//     counts never decrease, the final bucket is `+Inf` and equals `_count`
// ---------------------------------------------------------------------------

class PromChecker {
 public:
  explicit PromChecker(const std::string& text) : text_(text) {}

  // Returns true when every line validates; first problem lands in error().
  bool Valid() {
    std::istringstream in(text_);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      if (line[0] == '#') {
        if (!CheckComment(line, lineno)) return false;
        continue;
      }
      if (!CheckSample(line, lineno)) return false;
    }
    // Histogram family epilogue checks need the whole text.
    for (const auto& [family, hist] : histograms_) {
      if (hist.buckets.empty()) {
        return Fail(0, "histogram " + family + " has no _bucket samples");
      }
      if (!hist.saw_inf) {
        return Fail(0, "histogram " + family + " missing le=\"+Inf\" bucket");
      }
      if (hist.count_value != hist.inf_value) {
        return Fail(0, "histogram " + family + " _count != +Inf bucket");
      }
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  struct HistogramState {
    std::vector<double> bucket_les;
    std::vector<double> buckets;
    bool saw_inf = false;
    double inf_value = 0;
    double count_value = 0;
    bool saw_count = false;
  };

  bool Fail(int lineno, const std::string& msg) {
    error_ = "line " + std::to_string(lineno) + ": " + msg;
    return false;
  }

  static bool ValidName(const std::string& s) {
    if (s.empty()) return false;
    auto head = [](char c) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
             c == ':';
    };
    if (!head(s[0])) return false;
    for (char c : s) {
      if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) {
        return false;
      }
    }
    return true;
  }

  static bool ParseValue(const std::string& s, double* out) {
    if (s == "+Inf") {
      *out = 1e308;
      return true;
    }
    if (s == "-Inf" || s == "NaN") {
      *out = 0;
      return true;
    }
    char* end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && end != s.c_str();
  }

  bool CheckComment(const std::string& line, int lineno) {
    std::istringstream ls(line);
    std::string hash, kind, name, rest;
    ls >> hash >> kind >> name;
    if (kind == "TYPE") {
      ls >> rest;
      if (!ValidName(name)) return Fail(lineno, "bad TYPE name: " + name);
      if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
          rest != "summary" && rest != "untyped") {
        return Fail(lineno, "bad TYPE kind: " + rest);
      }
      if (types_.count(name) > 0) {
        return Fail(lineno, "duplicate TYPE for " + name);
      }
      types_[name] = rest;
      return true;
    }
    if (kind == "HELP") {
      return ValidName(name) ? true : Fail(lineno, "bad HELP name: " + name);
    }
    return Fail(lineno, "unknown comment directive: " + kind);
  }

  bool CheckSample(const std::string& line, int lineno) {
    // <name>[{<labels>}] <value>
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      return Fail(lineno, "sample has no value: " + line);
    }
    const std::string name = line.substr(0, name_end);
    if (!ValidName(name)) return Fail(lineno, "bad sample name: " + name);

    std::string le_label;
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        return Fail(lineno, "unterminated label set");
      }
      const std::string labels = line.substr(name_end + 1,
                                             close - name_end - 1);
      if (!CheckLabels(labels, lineno, &le_label)) return false;
      value_start = close + 1;
    }
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    double value = 0;
    if (!ParseValue(line.substr(value_start), &value)) {
      return Fail(lineno, "bad sample value: " + line.substr(value_start));
    }

    // Resolve the family: `name` itself, or name minus a histogram/counter
    // suffix, must have a preceding TYPE line.
    std::string family = name;
    std::string suffix;
    for (const char* suf : {"_total", "_bucket", "_sum", "_count"}) {
      size_t n = std::strlen(suf);
      if (name.size() > n && name.compare(name.size() - n, n, suf) == 0) {
        const std::string base = name.substr(0, name.size() - n);
        if (types_.count(base) > 0) {
          family = base;
          suffix = suf;
          break;
        }
      }
    }
    auto it = types_.find(family);
    if (it == types_.end()) {
      return Fail(lineno, "sample " + name + " has no preceding # TYPE");
    }
    const std::string& kind = it->second;
    if (kind == "counter" && suffix != "_total") {
      return Fail(lineno, "counter sample " + name + " missing _total");
    }
    if (kind == "histogram") {
      HistogramState& h = histograms_[family];
      if (suffix == "_bucket") {
        if (le_label.empty()) {
          return Fail(lineno, "_bucket sample without le label");
        }
        double le = 0;
        if (!ParseValue(le_label, &le)) {
          return Fail(lineno, "bad le value: " + le_label);
        }
        if (!h.bucket_les.empty() && le <= h.bucket_les.back()) {
          return Fail(lineno, family + " le not strictly increasing");
        }
        if (!h.buckets.empty() && value < h.buckets.back()) {
          return Fail(lineno, family + " cumulative bucket count decreased");
        }
        h.bucket_les.push_back(le);
        h.buckets.push_back(value);
        if (le_label == "+Inf") {
          h.saw_inf = true;
          h.inf_value = value;
        }
      } else if (suffix == "_count") {
        h.count_value = value;
        h.saw_count = true;
      } else if (suffix != "_sum") {
        return Fail(lineno, "unexpected histogram sample " + name);
      }
    }
    return true;
  }

  bool CheckLabels(const std::string& labels, int lineno,
                   std::string* le_label) {
    // name="value"[,name="value"]*
    size_t pos = 0;
    while (pos < labels.size()) {
      size_t eq = labels.find('=', pos);
      if (eq == std::string::npos) return Fail(lineno, "label without =");
      const std::string lname = labels.substr(pos, eq - pos);
      if (!ValidName(lname)) return Fail(lineno, "bad label name " + lname);
      if (eq + 1 >= labels.size() || labels[eq + 1] != '"') {
        return Fail(lineno, "label value not quoted");
      }
      size_t close = labels.find('"', eq + 2);
      if (close == std::string::npos) {
        return Fail(lineno, "unterminated label value");
      }
      const std::string lvalue = labels.substr(eq + 2, close - eq - 2);
      if (lname == "le") *le_label = lvalue;
      pos = close + 1;
      if (pos < labels.size()) {
        if (labels[pos] != ',') return Fail(lineno, "junk after label");
        ++pos;
      }
    }
    return true;
  }

  const std::string& text_;
  std::string error_;
  std::map<std::string, std::string> types_;
  std::map<std::string, HistogramState> histograms_;
};

// ---------------------------------------------------------------------------
// Fixture: the aged orders table from exec_test, opened with a simulated
// device latency so cold page reads dominate query wall time — the stage
// accounting assertions then test attribution, not noise.
// ---------------------------------------------------------------------------

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

class ProfileTest : public ::testing::Test {
 protected:
  // Per-page read latency. Large against per-page CPU work (so cold reads
  // dominate wall time) but small enough that the 3-partition query stays
  // well under a second.
  static constexpr uint32_t kReadLatencyUs = 100;

  void SetUp() override {
    dir_ = TestDir("profile");
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 8192;
    opts.dict_page_size = 8192;
    // Baked into the options (not flipped later): page chains copy the
    // options at open, and Unload keeps chains open, so a post-build flip
    // would never reach the files the query reads.
    opts.simulated_read_latency_us = kReadLatencyUs;
    auto sm = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
    rm_ = std::make_unique<ResourceManager>();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Hot partition (dates 200..299) plus two merged cold partitions, all
  // columns page loadable, nothing resident. Built with zero simulated
  // latency; the caller flips it on before querying (chains opened by the
  // query's page loads pick up the new latency).
  std::unique_ptr<Table> MakeAgedOrders(int rows = 300) {
    auto table =
        std::make_unique<Table>(OrdersSchema(), storage_.get(), rm_.get());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(
          table->Insert(OrderRow(i, i, "S" + std::to_string(i % 5), i * 100))
              .ok());
    }
    EXPECT_TRUE(table->MergeAll().ok());
    EXPECT_TRUE(table->AddColdPartition().ok());
    EXPECT_TRUE(table->AgeRows(Value(int64_t{99})).ok());
    EXPECT_TRUE(table->MergeAll().ok());
    EXPECT_TRUE(table->AddColdPartition().ok());
    EXPECT_TRUE(table->AgeRows(Value(int64_t{199})).ok());
    EXPECT_TRUE(table->MergeAll().ok());
    EXPECT_EQ(table->partition_count(), 3u);
    table->UnloadAll();
    return table;
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

// ---------------------------------------------------------------------------
// The end-to-end acceptance test: a multi-partition cold-cache query whose
// profile must account for its own wall time and reconcile exactly with the
// ExecContext counters, with the Prometheus exposition it feeds validating
// line by line.
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, ColdQueryProfileAccountsForWallTime) {
  auto table = MakeAgedOrders();
  table->set_exec_options(ExecOptions{/*worker_threads=*/0});

  ExecContext ctx;
  auto rows = table->SelectRange("aging_date", Value(int64_t{0}),
                                 Value(int64_t{299}), {}, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 300u);

  const obs::QueryProfile& p = ctx.profile;
  const QueryStats::Snapshot s = ctx.stats.snapshot();

  // Identity and shape.
  EXPECT_EQ(p.query_id, ctx.query_id);
  EXPECT_NE(p.query_id, 0u);
  EXPECT_EQ(p.partitions, 3u);
  ASSERT_EQ(p.partition_us.size(), 3u);
  EXPECT_FALSE(p.deadline_exceeded);

  // Acceptance: stage durations sum to within 20% of wall. Serial mode, so
  // queue wait is zero and the partition tasks are the only stage.
  EXPECT_EQ(p.queue_wait_us, 0u);
  const uint64_t stage_sum = p.queue_wait_us + p.scan_us;
  EXPECT_GT(p.wall_us, 0u);
  EXPECT_GE(stage_sum, p.wall_us * 8 / 10)
      << "stages " << stage_sum << "us vs wall " << p.wall_us << "us";
  EXPECT_LE(stage_sum, p.wall_us * 12 / 10)
      << "stages " << stage_sum << "us vs wall " << p.wall_us << "us";

  // scan_us is the sum of the per-partition slots.
  uint64_t part_sum = 0;
  for (uint64_t us : p.partition_us) part_sum += us;
  EXPECT_EQ(part_sum, p.scan_us);

  // Acceptance: the profile's page numbers equal the ExecContext counters.
  // Cold accesses are counted at GetPage, physical reads inside
  // PageFile::ReadPage — two independent code sites that must agree.
  EXPECT_GT(p.page_cold_count, 0u);
  EXPECT_EQ(p.page_cold_count, s.pages_read);
  EXPECT_EQ(p.page_cold_count, s.page_cold_count);
  EXPECT_EQ(p.page_hit_count, s.page_hit_count);
  EXPECT_EQ(p.page_cold_count + p.page_hit_count, s.pages_pinned);
  EXPECT_EQ(p.bytes_read, s.bytes_read);
  EXPECT_EQ(p.rows_scanned, s.rows_scanned);
  EXPECT_EQ(p.vector_scans, s.vector_scans);
  EXPECT_EQ(p.codec_native, s.codec_native);
  EXPECT_EQ(p.codec_fallback, s.codec_fallback);

  // Cold page waits happened inside partition tasks: the decomposition must
  // not exceed the stage it decomposes, and with the simulated latency the
  // cold wait is the dominant share.
  EXPECT_GE(p.page_cold_us, p.page_cold_count * kReadLatencyUs);
  EXPECT_LE(p.page_cold_us + p.page_hit_us, p.scan_us);

  // The profile renders both ways.
  const std::string text = p.ToText();
  EXPECT_NE(text.find("qid="), std::string::npos) << text;
  EXPECT_NE(text.find("wall_us="), std::string::npos) << text;
  EXPECT_NE(text.find("cold="), std::string::npos) << text;
  const std::string json = p.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"query_id\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"partition_us\""), std::string::npos) << json;

  // The default slow-query ring (threshold 0) admitted this query.
  bool in_ring = false;
  for (const obs::QueryProfile& q : obs::SlowQueryRing::Global().Snapshot()) {
    if (q.query_id == p.query_id) in_ring = true;
  }
  EXPECT_TRUE(in_ring);

  // Acceptance: the Prometheus exposition this query fed round-trips
  // through the line-format validator.
  const std::string prom = obs::MetricsRegistry::Global().PrometheusDump();
  PromChecker checker(prom);
  EXPECT_TRUE(checker.Valid()) << checker.error();
  EXPECT_NE(prom.find("payg_exec_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("payg_exec_query_latency_us_bucket"),
            std::string::npos);
}

TEST_F(ProfileTest, WarmRerunShiftsColdCountsToHits) {
  auto table = MakeAgedOrders();
  table->set_exec_options(ExecOptions{/*worker_threads=*/0});

  ExecContext cold_ctx;
  ASSERT_TRUE(table
                  ->SelectRange("aging_date", Value(int64_t{0}),
                                Value(int64_t{299}), {}, &cold_ctx)
                  .ok());
  const uint64_t cold_first = cold_ctx.profile.page_cold_count;
  EXPECT_GT(cold_first, 0u);

  // Same query against the now-resident pages: hits, not loads.
  ExecContext warm_ctx;
  ASSERT_TRUE(table
                  ->SelectRange("aging_date", Value(int64_t{0}),
                                Value(int64_t{299}), {}, &warm_ctx)
                  .ok());
  EXPECT_GT(warm_ctx.profile.page_hit_count, 0u);
  EXPECT_LT(warm_ctx.profile.page_cold_count, cold_first);
  EXPECT_NE(warm_ctx.profile.query_id, cold_ctx.profile.query_id);
}

TEST_F(ProfileTest, ParallelQueryAccountsQueueWaitSeparately) {
  auto table = MakeAgedOrders();
  table->set_exec_options(ExecOptions{/*worker_threads=*/4});

  ExecContext ctx;
  ASSERT_TRUE(table
                  ->SelectRange("aging_date", Value(int64_t{0}),
                                Value(int64_t{299}), {}, &ctx)
                  .ok());
  const obs::QueryProfile& p = ctx.profile;
  EXPECT_EQ(p.partitions, 3u);
  // Tasks overlap, so their summed time may exceed wall; each partition
  // slot is still individually filled.
  for (uint64_t us : p.partition_us) EXPECT_GT(us, 0u);
  EXPECT_EQ(p.page_cold_count, ctx.stats.snapshot().pages_read);
}

TEST_F(ProfileTest, QueryIdsAreProcessUnique) {
  ExecContext a;
  ExecContext b;
  EXPECT_NE(a.query_id, 0u);
  EXPECT_NE(b.query_id, 0u);
  EXPECT_NE(a.query_id, b.query_id);
}

// ---------------------------------------------------------------------------
// QueryProfile rendering on hand-built values (no engine involved).
// ---------------------------------------------------------------------------

TEST(QueryProfileTest, TextAndJsonCarryEveryStage) {
  obs::QueryProfile p;
  p.query_id = 42;
  p.wall_us = 1500;
  p.queue_wait_us = 30;
  p.scan_us = 1400;
  p.partition_us = {700, 700};
  p.page_cold_count = 5;
  p.page_cold_us = 1100;
  p.page_hit_count = 12;
  p.page_hit_us = 3;
  p.bytes_read = 8192;
  p.rows_scanned = 600;
  p.index_lookups = 1;
  p.vector_scans = 2;
  p.codec_native = 9;
  p.partitions = 2;

  const std::string text = p.ToText();
  EXPECT_NE(text.find("qid=42"), std::string::npos) << text;
  EXPECT_NE(text.find("wall_us=1500"), std::string::npos) << text;
  EXPECT_NE(text.find("cold=5/1100us"), std::string::npos) << text;
  EXPECT_NE(text.find("hit=12/3us"), std::string::npos) << text;

  const std::string json = p.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"query_id\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"partition_us\":[700,700]"), std::string::npos)
      << json;
}

TEST(QueryProfileTest, JsonCarriesEveryListCounter) {
  obs::QueryProfile p;
  uint64_t v = 100;
#define PAYG_QUERY_SET(name, scale) p.name = v++;
  PAYG_QUERY_COUNTERS(PAYG_QUERY_SET)
#undef PAYG_QUERY_SET

  const std::string json = p.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  v = 100;
#define PAYG_QUERY_KEY(name, scale)                                  \
  EXPECT_NE(json.find("\"" #name "\":" + std::to_string(v++) + ","), \
            std::string::npos)                                       \
      << #name << " in " << json;
  PAYG_QUERY_COUNTERS(PAYG_QUERY_KEY)
#undef PAYG_QUERY_KEY
}

// ---------------------------------------------------------------------------
// The per-query counter list: every entry folds into its registry counter,
// and page waits accumulate ns until they are read.
// ---------------------------------------------------------------------------

TEST(QueryCountersTest, ExecContextFoldsEveryListCounter) {
  auto& reg = obs::MetricsRegistry::Global();
  std::vector<std::string> names;
  std::vector<uint64_t> before;
  {
    ExecContext ctx;
    uint64_t v = 1;
#define PAYG_QUERY_BUMP(name, scale)                       \
  names.push_back("query." #name);                         \
  before.push_back(reg.counter(names.back())->value());    \
  Bump(&ctx, &QueryStats::name, v++ * (scale));
    PAYG_QUERY_COUNTERS(PAYG_QUERY_BUMP)
#undef PAYG_QUERY_BUMP
  }
  // Counter i was bumped by i + 1 in its reported unit: distinct values,
  // so a fold into the wrong registry counter cannot pass.
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(reg.counter(names[i])->value() - before[i], i + 1) << names[i];
  }
}

TEST(QueryCountersTest, PageWaitsAccumulateNanosBeforeConverting) {
  ExecContext ctx;
  for (int i = 0; i < 10; ++i) CountPageAccess(&ctx, /*cold=*/false, 400);
  const QueryStats::Snapshot s = ctx.stats.snapshot();
  EXPECT_EQ(s.page_hit_count, 10u);
  // 10 x 400 ns = 4 µs; truncating each hit to whole µs would give 0.
  EXPECT_EQ(s.page_hit_us, 4u);
  EXPECT_EQ(s.page_cold_count, 0u);
  EXPECT_EQ(s.page_cold_us, 0u);
}

// ---------------------------------------------------------------------------
// Slow-query ring admission protocol.
// ---------------------------------------------------------------------------

obs::QueryProfile ProfileWithLatency(uint64_t qid, uint64_t wall_us) {
  obs::QueryProfile p;
  p.query_id = qid;
  p.wall_us = wall_us;
  return p;
}

TEST(SlowQueryRingTest, KeepsTheWorstProfiles) {
  obs::SlowQueryRing ring(/*capacity=*/2, /*threshold_us=*/0);
  ring.Observe(ProfileWithLatency(1, 10));
  ring.Observe(ProfileWithLatency(2, 30));
  ring.Observe(ProfileWithLatency(3, 20));
  ring.Observe(ProfileWithLatency(4, 5));  // faster than both: rejected
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].wall_us, 30u);  // slowest first
  EXPECT_EQ(snap[1].wall_us, 20u);
  EXPECT_EQ(snap[0].query_id, 2u);
  EXPECT_EQ(snap[1].query_id, 3u);
}

TEST(SlowQueryRingTest, ThresholdFiltersFastQueries) {
  obs::SlowQueryRing ring(/*capacity=*/4, /*threshold_us=*/100);
  EXPECT_EQ(ring.threshold_us(), 100u);
  ring.Observe(ProfileWithLatency(1, 50));
  EXPECT_TRUE(ring.Snapshot().empty());
  ring.Observe(ProfileWithLatency(2, 150));
  ASSERT_EQ(ring.Snapshot().size(), 1u);
  EXPECT_EQ(ring.Snapshot()[0].query_id, 2u);
}

TEST(SlowQueryRingTest, ZeroLatencyProfilesNeverOccupySlots) {
  obs::SlowQueryRing ring(/*capacity=*/2, /*threshold_us=*/0);
  ring.Observe(ProfileWithLatency(1, 0));  // 0 is the empty-slot sentinel
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(SlowQueryRingTest, ResetEmptiesTheRing) {
  obs::SlowQueryRing ring(/*capacity=*/2, /*threshold_us=*/0);
  ring.Observe(ProfileWithLatency(1, 10));
  ASSERT_FALSE(ring.Snapshot().empty());
  ring.Reset();
  EXPECT_TRUE(ring.Snapshot().empty());
}

TEST(SlowQueryRingTest, DumpJsonIsValid) {
  obs::SlowQueryRing ring(/*capacity=*/3, /*threshold_us=*/7);
  ring.Observe(ProfileWithLatency(11, 400));
  ring.Observe(ProfileWithLatency(12, 200));
  const std::string json = ring.DumpJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"threshold_us\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query_id\":11"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Stats dumper: one synchronous export writes all three files, each valid
// in its own format.
// ---------------------------------------------------------------------------

TEST(StatsDumperTest, DumpOnceWritesAllThreeFiles) {
  const std::string dir = TestDir("stats_dump");
  std::filesystem::remove_all(dir);

  obs::MetricsRegistry::Global().counter("obs.dumper_test")->Add(3);
  obs::SlowQueryRing::Global().Observe(ProfileWithLatency(99, 123456));

  Status s = obs::StatsDumper::DumpOnce(dir);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto slurp = [&dir](const char* name) {
    std::ifstream in(dir + "/" + name);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string metrics_json = slurp("metrics.json");
  const std::string metrics_prom = slurp("metrics.prom");
  const std::string slow_json = slurp("slow_queries.json");

  EXPECT_TRUE(JsonChecker(metrics_json).Valid());
  EXPECT_NE(metrics_json.find("\"obs.dumper_test\""), std::string::npos);

  PromChecker prom(metrics_prom);
  EXPECT_TRUE(prom.Valid()) << prom.error();
  EXPECT_NE(metrics_prom.find("payg_obs_dumper_test_total"),
            std::string::npos);

  EXPECT_TRUE(JsonChecker(slow_json).Valid());
  EXPECT_NE(slow_json.find("\"profiles\""), std::string::npos);

  // No temp files left behind: every write renamed into place.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_FALSE(entry.path().string().ends_with(".tmp"))
        << entry.path().string();
  }
  std::filesystem::remove_all(dir);
}

TEST(StatsDumperTest, StartAndStopAreIdempotent) {
  const std::string dir = TestDir("stats_loop");
  std::filesystem::remove_all(dir);
  obs::StatsDumper dumper;
  EXPECT_FALSE(dumper.running());
  dumper.Start(/*period_secs=*/3600, dir);
  EXPECT_TRUE(dumper.running());
  dumper.Start(3600, dir);  // second start is a no-op
  EXPECT_TRUE(dumper.running());
  dumper.Stop();
  EXPECT_FALSE(dumper.running());
  dumper.Stop();  // stop when stopped is safe
  EXPECT_FALSE(dumper.running());
  // Stop flushed a final export even though the one-hour period never
  // elapsed: short-lived processes still leave a last snapshot behind.
  EXPECT_TRUE(std::filesystem::exists(dir + "/metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/metrics.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/slow_queries.json"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace payg
