#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace payg::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (objects, arrays, strings, numbers, literals)
// used to validate the machine-readable expositions without a JSON library.
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
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
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
        ++pos_;  // accept any escaped char (enough for our dumps)
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
// Counters, gauges, registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.Set(100);
  g.Add(-30);
  EXPECT_EQ(g.value(), 70);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.counter("obs_test.stable");
  Counter* b = reg.counter("obs_test.stable");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(b->value(), 7u);
  // Reset zeroes values but keeps registrations (cached pointers survive).
  reg.ResetAll();
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(reg.counter("obs_test.stable"), a);
}

TEST(MetricsTest, TextDumpListsEveryKind) {
  auto& reg = MetricsRegistry::Global();
  reg.counter("obs_test.dump.counter")->Add(3);
  reg.gauge("obs_test.dump.gauge")->Set(-5);
  reg.histogram("obs_test.dump.hist")->Record(100);
  std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("obs_test.dump.counter"), std::string::npos);
  EXPECT_NE(dump.find("obs_test.dump.gauge"), std::string::npos);
  EXPECT_NE(dump.find("obs_test.dump.hist"), std::string::npos);
  EXPECT_NE(dump.find("p99"), std::string::npos);
}

TEST(MetricsTest, JsonDumpIsValidJson) {
  auto& reg = MetricsRegistry::Global();
  reg.counter("obs_test.json.counter")->Add(1);
  reg.gauge("obs_test.json.gauge")->Set(-17);
  Histogram* h = reg.histogram("obs_test.json.hist");
  for (uint64_t v = 1; v <= 300; ++v) h->Record(v);
  std::string json = reg.JsonDump();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"obs_test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

TEST(PrometheusTest, DottedNamesMangleToPrefixedUnderscores) {
  auto& reg = MetricsRegistry::Global();
  reg.counter("obs_test.prom.requests")->Add(5);
  reg.gauge("obs_test.prom.level")->Set(-3);
  std::string prom = reg.PrometheusDump();
  // Counter family: TYPE line on the dotted-to-underscore name, sample with
  // the _total suffix; gauges keep their bare mangled name.
  EXPECT_NE(prom.find("# TYPE payg_obs_test_prom_requests counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("payg_obs_test_prom_requests_total 5"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE payg_obs_test_prom_level gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("payg_obs_test_prom_level -3"), std::string::npos);
  // No dotted metric name leaks into a sample line.
  std::istringstream in(prom);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    EXPECT_EQ(name.find('.'), std::string::npos) << line;
  }
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeWithMonotoneLe) {
  auto& reg = MetricsRegistry::Global();
  Histogram* h = reg.histogram("obs_test.prom.hist_us");
  h->Reset();
  for (uint64_t v : {0ull, 1ull, 3ull, 7ull, 100ull, 5000ull}) h->Record(v);
  std::string prom = reg.PrometheusDump();

  // Walk this family's _bucket lines: le strictly increasing, counts
  // non-decreasing, +Inf last and equal to _count.
  const std::string bucket_prefix = "payg_obs_test_prom_hist_us_bucket{le=\"";
  double last_le = -1;
  uint64_t last_count = 0;
  uint64_t inf_count = 0;
  bool saw_inf = false;
  std::istringstream in(prom);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, bucket_prefix.size(), bucket_prefix) != 0) continue;
    const size_t le_start = bucket_prefix.size();
    const size_t le_end = line.find('"', le_start);
    ASSERT_NE(le_end, std::string::npos);
    const std::string le_str = line.substr(le_start, le_end - le_start);
    const uint64_t count =
        std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
    EXPECT_GE(count, last_count) << line;
    last_count = count;
    if (le_str == "+Inf") {
      saw_inf = true;
      inf_count = count;
    } else {
      const double le = std::strtod(le_str.c_str(), nullptr);
      EXPECT_GT(le, last_le) << line;
      last_le = le;
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_count, 6u);
  EXPECT_NE(prom.find("payg_obs_test_prom_hist_us_count 6"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("payg_obs_test_prom_hist_us_sum 5111"),
            std::string::npos)
      << prom;
}

TEST(PrometheusTest, AgreesWithJsonDump) {
  auto& reg = MetricsRegistry::Global();
  reg.counter("obs_test.prom.consistency")->Add(17);
  std::string prom = reg.PrometheusDump();
  std::string json = reg.JsonDump();
  // Same value through both expositions.
  EXPECT_NE(prom.find("payg_obs_test_prom_consistency_total 17"),
            std::string::npos);
  EXPECT_NE(json.find("\"obs_test.prom.consistency\":17"), std::string::npos)
      << json;
}

TEST(PrometheusTest, ScrapeWhileRecordingStaysSelfConsistent) {
  auto& reg = MetricsRegistry::Global();
  Histogram* h = reg.histogram("obs_test.prom.concurrent_us");
  Counter* c = reg.counter("obs_test.prom.concurrent");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, h, c] {
      uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        h->Record(v++ % 4096);
        c->Inc();
      }
    });
  }
  // Scrape concurrently: every dump must stay parseable, and the histogram
  // family self-consistent (+Inf == _count is derived from one bucket walk,
  // so torn count/sum loads cannot produce an impossible exposition).
  for (int i = 0; i < 50; ++i) {
    std::string prom = reg.PrometheusDump();
    EXPECT_NE(prom.find("payg_obs_test_prom_concurrent_total"),
              std::string::npos);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  std::string prom = reg.PrometheusDump();
  EXPECT_TRUE(JsonChecker(reg.JsonDump()).Valid());
  EXPECT_NE(prom.find("payg_obs_test_prom_concurrent_us_bucket"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram buckets and quantiles
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  Histogram h;
  // Bucket i holds values of bit width i: {0} | {1} | [2,3] | [4,7] | [8,15].
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  h.Record(7);
  h.Record(8);
  h.Record(15);
  h.Record(16);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.buckets[4], 2u);
  EXPECT_EQ(s.buckets[5], 1u);
  EXPECT_EQ(s.count, 9u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8 + 15 + 16);
}

TEST(HistogramTest, LargeValuesLandInTopBuckets) {
  Histogram h;
  h.Record(~uint64_t{0});  // bit width 64
  h.Record(uint64_t{1} << 63);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[64], 2u);
}

TEST(HistogramTest, QuantileSingleValue) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(10);
  Histogram::Snapshot s = h.snapshot();
  // Everything sits in bucket [8, 16); every quantile must stay inside it.
  for (double q : {0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(s.Quantile(q), 8.0);
    EXPECT_LE(s.Quantile(q), 16.0);
  }
  EXPECT_EQ(s.Quantile(0.0), s.Quantile(0.001));  // clamped, not crashing
}

TEST(HistogramTest, QuantileUniformDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1024; ++v) h.Record(v);
  Histogram::Snapshot s = h.snapshot();
  // True p50 is 512; log2 bucketing bounds the estimate by the bucket ends.
  EXPECT_GE(s.p50(), 256.0);
  EXPECT_LE(s.p50(), 1024.0);
  EXPECT_GE(s.p95(), 512.0);
  EXPECT_LE(s.p95(), 1024.0);
  EXPECT_GE(s.p99(), 512.0);
  EXPECT_LE(s.p99(), 1100.0);
  // Quantiles are monotone in q.
  EXPECT_LE(s.p50(), s.p95());
  EXPECT_LE(s.p95(), s.p99());
  EXPECT_DOUBLE_EQ(s.mean(), (1024.0 + 1.0) / 2.0);
}

TEST(HistogramTest, EmptyHistogramQuantilesAreZero) {
  Histogram h;
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.p50(), 0.0);
  EXPECT_EQ(s.p99(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, ConcurrentRecording) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(i % 1024);
    });
  }
  for (auto& t : threads) t.join();
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t expect_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) expect_sum += i % 1024;
  EXPECT_EQ(s.sum, kThreads * expect_sum);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TraceTest, DisabledSpansRecordNothing) {
  Tracer::Global().Disable();
  uint64_t before = Tracer::Global().recorded();
  { TraceSpan span("test", "noop", 1); }
  EXPECT_EQ(Tracer::Global().recorded(), before);
}

TEST(TraceTest, SpansAppearWithTimingAndArgs) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  {
    TraceSpan outer("test", "outer", 7);
    TraceSpan inner("test", "inner", 8);
  }
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 2u);
  // Inner started later but ends first; Collect sorts by start time.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].arg, 8u);
  EXPECT_GE(events[0].dur_ns, events[1].dur_ns);
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
}

TEST(TraceTest, RingWrapsKeepingNewestEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(8);  // tiny ring
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.RecordSpan("test", "wrap", start, i);
  }
  tracer.Disable();
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 0u);  // single writer never contends
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 8u);
  // The ring overwrote the oldest 12; args 12..19 survive.
  uint64_t seen = 0;
  for (const TraceEvent& e : events) seen |= uint64_t{1} << e.arg;
  EXPECT_EQ(seen, 0xFF000ull);
}

TEST(TraceTest, ConcurrentWritersKeepTheRingConsistent) {
  Tracer& tracer = Tracer::Global();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  // Ring bigger than the total event count: nothing gets lapped, so every
  // event must either land in a slot or be counted as dropped (contention).
  tracer.Enable(1 << 14);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("test", "mt", static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  tracer.Disable();
  EXPECT_EQ(tracer.recorded(), uint64_t{kThreads} * kPerThread);
  std::vector<TraceEvent> events = tracer.Collect();
  EXPECT_EQ(events.size() + tracer.dropped(), uint64_t{kThreads} * kPerThread);
  uint64_t per_thread[kThreads] = {};
  for (const TraceEvent& e : events) {
    ASSERT_LT(e.arg, static_cast<uint64_t>(kThreads));
    EXPECT_STREQ(e.name, "mt");
    ++per_thread[e.arg];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LE(per_thread[t], static_cast<uint64_t>(kPerThread));
  }
}

TEST(TraceTest, ChromeDumpIsValidJson) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(256);
  {
    TraceSpan a("exec", "query", 1);
    TraceSpan b("io", "batch_read", 42);
  }
  tracer.Disable();
  std::string json = tracer.DumpChromeTrace();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"batch_read\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"io\""), std::string::npos);
}

TEST(TraceTest, NestedSpansFormAParentChildTree) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  {
    TraceSpan outer("test", "tree_outer", 1);
    const uint64_t outer_id = outer.span_id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(CurrentSpanId(), outer_id);
    TraceSpan inner("test", "tree_inner", 2);
    EXPECT_EQ(CurrentSpanId(), inner.span_id());
  }
  EXPECT_EQ(CurrentSpanId(), 0u);  // stack fully unwound
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& outer_ev = events[0];
  const TraceEvent& inner_ev = events[1];
  EXPECT_STREQ(outer_ev.name, "tree_outer");
  EXPECT_STREQ(inner_ev.name, "tree_inner");
  EXPECT_NE(outer_ev.span_id, 0u);
  EXPECT_EQ(inner_ev.parent_id, outer_ev.span_id);
  // Distinct spans get distinct ids.
  EXPECT_NE(inner_ev.span_id, outer_ev.span_id);
}

TEST(TraceTest, TaskScopePropagatesQueryIdAndParent) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  EXPECT_EQ(CurrentQueryId(), 0u);
  uint64_t parent_span = 0;
  {
    TraceSpan query("exec", "qscope", 0);
    parent_span = query.span_id();
    // Simulate a worker thread picking up this query's task: the scope
    // installs the query id and re-parents spans under the query span.
    std::thread worker([parent_span] {
      TraceTaskScope scope(/*query_id=*/77, parent_span);
      EXPECT_EQ(CurrentQueryId(), 77u);
      TraceSpan span("exec", "partition", 3);
    });
    worker.join();
  }
  EXPECT_EQ(CurrentQueryId(), 0u);  // scope restored on the worker only
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* part = nullptr;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "partition") == 0) part = &e;
  }
  ASSERT_NE(part, nullptr);
  EXPECT_EQ(part->query_id, 77u);
  EXPECT_EQ(part->parent_id, parent_span);
}

TEST(TraceTest, DirectRecordSpanParentsUnderCurrentSpan) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  {
    TraceSpan outer("test", "direct_outer", 0);
    // The RecordSpan(category, name, start, arg) form — used by the sweep
    // path — mints an id and parents under the enclosing span.
    tracer.RecordSpan("buffer", "sweep", std::chrono::steady_clock::now(), 4);
    const TraceEvent* sweep = nullptr;
    std::vector<TraceEvent> mid = tracer.Collect();
    for (const TraceEvent& e : mid) {
      if (std::strcmp(e.name, "sweep") == 0) sweep = &e;
    }
    ASSERT_NE(sweep, nullptr);
    EXPECT_NE(sweep->span_id, 0u);
    EXPECT_EQ(sweep->parent_id, outer.span_id());
  }
  tracer.Disable();
}

TEST(TraceTest, ChromeDumpCarriesMetadataAndQueryIds) {
  Tracer& tracer = Tracer::Global();
  Tracer::SetCurrentThreadName("obs-test-main");
  tracer.Enable(64);
  {
    TraceTaskScope scope(/*query_id=*/123);
    TraceSpan span("exec", "query", 9);
  }
  tracer.Disable();
  std::string json = tracer.DumpChromeTrace();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Metadata events label the process and the recording thread.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("obs-test-main"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  // The span carries its query id and tree links as Perfetto-visible args.
  EXPECT_NE(json.find("\"qid\":123"), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"parent\":"), std::string::npos) << json;
}

TEST(TraceTest, ReenableStartsFreshRing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  { TraceSpan span("test", "old", 1); }
  tracer.Enable(64);  // fresh ring, old events gone
  { TraceSpan span("test", "new", 2); }
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "new");
}

}  // namespace
}  // namespace payg::obs
