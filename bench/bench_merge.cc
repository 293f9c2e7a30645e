// Delta-merge cost: one 4-column table of PAYG_ROWS rows (300k) at the
// store's default page sizes — a page-loadable indexed string key, a
// page-loadable int64, a resident double and a resident string with 20
// values. Times the first merge of every row, then alternating rounds of
// {1000 deletes + 400 inserts, merge} and {empty merge}. Every merge reads
// the previous generation's freshly built mains back from their files (the
// OS page cache is warm; there is no latency model). Also reports the
// process's peak resident set over the whole run (getrusage).
//
// Writes the committed BENCH_merge.json. Knobs: PAYG_ROWS (300000),
// PAYG_BENCH_JSON (output path; no JSON when unset).

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "encoding/simd_dispatch.h"
#include "storage/io_backend.h"

namespace {

using namespace payg;
using namespace payg::bench;

constexpr int kRounds = 5;
constexpr uint64_t kDeletesPerRound = 1000;
constexpr uint64_t kInsertsPerRound = 400;

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

std::vector<Value> MakeRow(uint64_t id, Random* rng) {
  char key[24];
  std::snprintf(key, sizeof(key), "KEY%012llu",
                static_cast<unsigned long long>(id));
  return {Value(std::string(key)),
          Value(static_cast<int64_t>(rng->Uniform(1000000))),
          Value(0.01 * static_cast<double>(rng->Uniform(100000))),
          Value("STATUS_" + std::to_string(rng->Uniform(20)))};
}

double TimedMerge(Table* table) {
  Stopwatch timer;
  CheckOk(table->MergeAll(), "MergeAll");
  return timer.ElapsedMillis();
}

// Peak resident set of this process so far, in MiB (Linux reports
// ru_maxrss in KiB).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void JsonRuns(std::ofstream& out, const char* key,
              const std::vector<double>& runs) {
  out << "\"" << key << "\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? "" : ",", runs[i]);
    out << buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "],\"%s_median\":%.1f", key, Median(runs));
  out << buf;
}

}  // namespace

int main() {
  BenchEnv env = ReadEnv("merge");
  const uint64_t rows = EnvU64("PAYG_ROWS", 300000);
  ColumnStoreOptions options;
  options.directory = env.dir + "/store";
  auto store = ColumnStore::Open(options);
  BENCH_CHECK_OK(store);

  TableSchema schema;
  schema.name = "merge";
  schema.columns = {
      {"key", ValueType::kString, /*page_loadable=*/true, /*with_index=*/true,
       /*primary_key=*/true},
      {"amount", ValueType::kInt64, true, false, false},
      {"price", ValueType::kDouble, false, false, false},
      {"status", ValueType::kString, false, false, false}};
  auto created = (*store)->CreateTable(schema);
  BENCH_CHECK_OK(created);
  Table* table = *created;

  Random rng(2016);
  uint64_t next_id = 0;
  for (; next_id < rows; ++next_id) {
    CheckOk(table->Insert(MakeRow(next_id, &rng)), "Insert");
  }
  const double first_ms = TimedMerge(table);
  std::printf("merge: rows=%llu first_merge_ms=%.1f\n",
              static_cast<unsigned long long>(rows), first_ms);

  std::vector<double> churn_ms, empty_ms;
  for (int round = 0; round < kRounds; ++round) {
    Partition* hot = table->hot();
    for (uint64_t deleted = 0; deleted < kDeletesPerRound;) {
      const RowPos r = static_cast<RowPos>(rng.Uniform(hot->row_count()));
      if (!hot->IsVisible(r)) continue;
      CheckOk(hot->MarkDeleted(r), "MarkDeleted");
      ++deleted;
    }
    for (uint64_t i = 0; i < kInsertsPerRound; ++i, ++next_id) {
      CheckOk(table->Insert(MakeRow(next_id, &rng)), "Insert");
    }
    churn_ms.push_back(TimedMerge(table));
    empty_ms.push_back(TimedMerge(table));
    std::printf("merge: round=%d churn_merge_ms=%.1f empty_merge_ms=%.1f\n",
                round, churn_ms.back(), empty_ms.back());
  }

  // The merges kept every surviving row and the key index answers.
  const uint64_t expect =
      rows + kRounds * (kInsertsPerRound - kDeletesPerRound);
  if (table->visible_row_count() != expect) {
    std::fprintf(stderr, "visible rows %llu, expected %llu\n",
                 static_cast<unsigned long long>(table->visible_row_count()),
                 static_cast<unsigned long long>(expect));
    std::abort();
  }
  char last_key[24];
  std::snprintf(last_key, sizeof(last_key), "KEY%012llu",
                static_cast<unsigned long long>(next_id - 1));
  auto found = table->CountByValue("key", Value(std::string(last_key)));
  BENCH_CHECK_OK(found);
  if (*found != 1) {
    std::fprintf(stderr, "key %s found %llu times\n", last_key,
                 static_cast<unsigned long long>(*found));
    std::abort();
  }
  const double peak_rss_mb = PeakRssMb();
  std::printf("merge: churn_merge_ms_median=%.1f empty_merge_ms_median=%.1f "
              "peak_rss_mb=%.1f\n",
              Median(churn_ms), Median(empty_ms), peak_rss_mb);

  if (const char* path = std::getenv("PAYG_BENCH_JSON")) {
    std::ofstream out(path);
#ifdef NDEBUG
    const char* build = "optimized";
#else
    const char* build = "debug";
#endif
    char buf[128];
    out << "{\"bench\":\"merge\",\"rows\":" << rows
        << ",\"cores\":" << std::thread::hardware_concurrency()
        << ",\"build\":\"" << build << "\",\"simd\":\""
        << SimdLevelName(ActiveSimdLevel()) << "\",\"io_backend\":\""
        << CurrentIoBackend()->name() << "\",\"latency_us\":"
        << options.storage.simulated_read_latency_us
        << ",\"page_size\":" << options.storage.page_size
        << ",\"dict_page_size\":" << options.storage.dict_page_size
        << ",\"rounds\":" << kRounds
        << ",\"deletes_per_round\":" << kDeletesPerRound
        << ",\"inserts_per_round\":" << kInsertsPerRound << ",\n";
    std::snprintf(buf, sizeof(buf), "\"first_merge_ms\":%.1f,\n", first_ms);
    out << buf;
    JsonRuns(out, "churn_merge_ms", churn_ms);
    out << ",\n";
    JsonRuns(out, "empty_merge_ms", empty_ms);
    std::snprintf(buf, sizeof(buf), ",\n\"peak_rss_mb\":%.1f", peak_rss_mb);
    out << buf;
    out << ",\n\"note\":\"wall-clock ms per MergeAll on real files (warm OS "
           "cache, no latency model); churn = 1000 deletes + 400 inserts "
           "since the previous merge, empty = nothing changed; peak_rss_mb = "
           "getrusage(RUSAGE_SELF) ru_maxrss over the whole run, inserts "
           "included\"}\n";
    out.close();
    std::printf("merge: wrote %s\n", path);
  }

  store->reset();
  std::filesystem::remove_all(env.dir);
  return 0;
}
