// Concurrency stress for the sharded PageCache + lock-free pin path: many
// readers hammer GetPage/PrefetchRange/LoadBatch on overlapping page ranges
// while the resource manager applies constant eviction pressure. The suite is part of
// the TSan and ASan+UBSan legs of scripts/check.sh and CI, where the
// "TryPin/Unpin take no mutex" claim is actually checked. It also checks,
// over both I/O backends, that a page has one load path: concurrent misses
// of one page share one read, and a failed read reaches every caller.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <initializer_list>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "counter_delta.h"
#include "obs/metrics.h"
#include "paged/page_cache.h"
#include "storage/byte_stream.h"
#include "storage/io_backend.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace payg {
namespace {

class CacheStressTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPageSize = 4096;
  static constexpr uint64_t kPages = 48;

  void SetUp() override {
    dir_ = TestDir("cache_stress");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    file_.reset();
    std::filesystem::remove_all(dir_);
  }

  // A page chain of kPages pages; ReadPage verifies magic + checksum, and
  // each returned page carries its logical page number in the header and
  // `tag` as its one payload byte, so a reader can assert it got the bytes
  // it asked for, from the chain it asked.
  std::unique_ptr<PageFile> MakeChain(const std::string& name, uint8_t tag,
                                      uint32_t read_latency_us) {
    StorageOptions opts;
    opts.page_size = kPageSize;
    opts.simulated_read_latency_us = read_latency_us;
    auto file = PageFile::Create(dir_ + "/" + name, kPageSize, opts);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    if (!file.ok()) return nullptr;
    for (uint64_t i = 0; i < kPages; ++i) {
      Page page(kPageSize);
      page.header()->type = static_cast<uint16_t>(PageType::kDataVector);
      page.payload()[0] = tag;
      page.set_payload_size(1);
      auto lpn = (*file)->AppendPage(&page);
      EXPECT_TRUE(lpn.ok());
      EXPECT_EQ(lpn.ok() ? *lpn : kInvalidPageNo, i);
    }
    return std::move(*file);
  }

  void CreateFile(uint32_t read_latency_us = 0) {
    file_ = MakeChain("chain", /*tag=*/1, read_latency_us);
    ASSERT_NE(file_, nullptr);
  }

  // The prefetch invariant, checked at a full quiesce point (no concurrent
  // issuance, WaitForPrefetchIdle done, caches emptied so no loaded-but-
  // never-touched prefetched page is still waiting for its first touch to
  // pick a bucket): issued == hits + wasted + inflight, with inflight == 0.
  void ExpectPrefetchInvariant(std::initializer_list<const PageCache*> caches,
                               const CacheCounters& counters) {
    for (const PageCache* cache : caches) {
      EXPECT_EQ(cache->prefetch_inflight_count(), 0u);
    }
    EXPECT_EQ(counters.prefetch_issued(),
              counters.prefetch_hits() + counters.prefetch_wasted());
  }

  std::string dir_;
  std::unique_ptr<PageFile> file_;
};

TEST_F(CacheStressTest, ConcurrentReadersUnderEvictionPressure) {
  CreateFile();
  ResourceManager rm;
  // Budget of 12 pages over a 48-page working set: every few misses push
  // the total over budget and reactively evict, so pins race eviction all
  // the time. The pool sweep adds proactive churn on top.
  rm.SetGlobalBudget(12 * kPageSize);
  rm.SetPoolLimits(PoolId::kPagedPool,
                   {/*lower=*/6 * kPageSize, /*upper=*/10 * kPageSize});
  PageCache cache(file_.get(), &rm, PoolId::kPagedPool);
  // A second chain for the batch readers, whose batches span both caches.
  std::unique_ptr<PageFile> file2 = MakeChain("chain2", /*tag=*/2, 0);
  ASSERT_NE(file2, nullptr);
  PageCache cache2(file2.get(), &rm, PoolId::kPagedPool);
  CacheCounters counters;

  constexpr int kThreads = 8;
  constexpr int kBatchThreads = 2;
  constexpr int kItersPerThread = 1500;
  std::atomic<uint64_t> gets{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads + kBatchThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Random rng(0x5eed + t);
      // A small ring of held refs keeps a few pages pinned at any time, so
      // eviction constantly meets pinned entries it must skip.
      std::deque<PageRef> held;
      for (int i = 0; i < kItersPerThread; ++i) {
        const LogicalPageNo lpn = rng.Uniform(kPages);
        const uint64_t dice = rng.Uniform(100);
        if (dice < 60) {
          auto ref = cache.GetPage(lpn);
          if (!ref.ok()) {
            failures.fetch_add(1);
            continue;
          }
          gets.fetch_add(1, std::memory_order_relaxed);
          if (ref->page().header()->logical_page_no != lpn) {
            failures.fetch_add(1);
          }
          held.push_back(std::move(*ref));
          if (held.size() > 4) held.pop_front();
        } else if (dice < 90) {
          const uint64_t window = rng.UniformRange(1, 3);
          for (uint64_t w = 0; w < window; ++w) {
            cache.PrefetchRange((lpn + w) % kPages, 1);
          }
        } else {
          // Racy stat probes must stay safe against concurrent mutation.
          (void)cache.IsLoaded(lpn);
          (void)cache.loaded_page_count();
        }
      }
    });
  }
  // Batch readers: what Materialize does for one row, over two chains —
  // one blocking LoadBatch of a few pages of each cache, then a pin of
  // every page. Their batches race the readers above, each other's marks
  // and the evictions their own publishes cause.
  for (int t = 0; t < kBatchThreads; ++t) {
    readers.emplace_back([&, t] {
      Random rng(0xba7c + t);
      std::vector<PageLoad> pages;
      for (int i = 0; i < kItersPerThread / 4; ++i) {
        pages.clear();
        const LogicalPageNo lpn = rng.Uniform(kPages);
        const uint64_t width = rng.UniformRange(1, 3);
        for (uint64_t w = 0; w < width; ++w) {
          pages.push_back(PageLoad{&cache, (lpn + w) % kPages});
          pages.push_back(PageLoad{&cache2, (lpn + 2 * w) % kPages});
        }
        if (!PageCache::LoadBatch(pages).ok()) failures.fetch_add(1);
        for (const PageLoad& p : pages) {
          auto ref = p.cache->GetPage(p.lpn);
          if (!ref.ok()) {
            failures.fetch_add(1);
            continue;
          }
          gets.fetch_add(1, std::memory_order_relaxed);
          const uint8_t tag = p.cache == &cache ? 1 : 2;
          if (ref->page().header()->logical_page_no != p.lpn ||
              ref->page().payload()[0] != tag) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  cache.WaitForPrefetchIdle();
  cache2.WaitForPrefetchIdle();
  EXPECT_EQ(cache.prefetch_inflight_count(), 0u);
  EXPECT_EQ(cache2.prefetch_inflight_count(), 0u);
  // Prefetched pages still resident and untouched have not picked a bucket
  // yet, so mid-run the equality is only a lower bound.
  EXPECT_GE(counters.prefetch_issued(),
            counters.prefetch_hits() + counters.prefetch_wasted());
  EXPECT_EQ(counters.hits() + counters.misses(), gets.load());

  // No lost pins: with every ref released and the pool floor removed, a
  // 1-byte budget must be able to evict every remaining page. A leaked pin
  // would leave its resource behind (pinned entries are never victims).
  rm.SetPoolLimits(PoolId::kPagedPool, {/*lower=*/0, /*upper=*/0});
  rm.SetGlobalBudget(1);
  EXPECT_EQ(cache.loaded_page_count(), 0u);
  EXPECT_EQ(cache2.loaded_page_count(), 0u);
  EXPECT_EQ(rm.resource_count(), 0u);
  EXPECT_EQ(rm.total_bytes(), 0u);
  ExpectPrefetchInvariant({&cache, &cache2}, counters);
}

// Regression for the sharded DropAll protocol: DropAll drains one shard at
// a time and must never block a prefetch task publishing to another shard
// (or to the same shard — the cv wait releases the lock). Run the worst
// case (1 shard, everything serializes on it) and the opposite extreme
// (more shards than pages, so every page lives alone in its shard and
// DropAll's drain position races the publisher's shard choice).
class CacheDropAllRaceTest : public CacheStressTest,
                             public ::testing::WithParamInterface<uint32_t> {};

TEST_P(CacheDropAllRaceTest, DropAllDoesNotDeadlockWithPrefetchPublish) {
  // Simulated read latency keeps loads in flight long enough for DropAll
  // to overlap the publish window.
  CreateFile(/*read_latency_us=*/200);
  ResourceManager rm;
  PageCache cache(file_.get(), &rm, PoolId::kPagedPool,
                  /*shard_count=*/GetParam());
  ASSERT_EQ(cache.shard_count(), GetParam());
  CacheCounters counters;

  // The publisher is bounded (not stop-flag driven) so DropAll's per-shard
  // drain always terminates: a free-running publisher could keep a shard's
  // in-flight set permanently nonempty, which would stall the test itself
  // rather than exercise the deadlock.
  std::thread publisher([&] {
    Random rng(0xd06);
    for (int i = 0; i < 2000; ++i) {
      cache.PrefetchRange(rng.Uniform(kPages), 1);
    }
  });
  for (int round = 0; round < 50; ++round) {
    cache.DropAll();
  }
  publisher.join();

  cache.WaitForPrefetchIdle();
  cache.DropAll();
  ExpectPrefetchInvariant({&cache}, counters);
  EXPECT_EQ(cache.loaded_page_count(), 0u);
  EXPECT_EQ(rm.resource_count(), 0u);
  EXPECT_EQ(rm.total_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardExtremes, CacheDropAllRaceTest,
                         ::testing::Values(1u, 64u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

int AlwaysEio() { return EIO; }

// The one load path of a page, over each I/O backend (uring skips where the
// kernel lacks it): a GetPage miss is a one-page batch whose page is marked
// in flight, so every concurrent caller of the page waits for that read.
class CacheLoadPathTest : public CacheStressTest,
                          public ::testing::WithParamInterface<const char*> {
 protected:
  static constexpr int kCallers = 8;

  void SetUp() override {
    CacheStressTest::SetUp();
    if (std::strcmp(GetParam(), "uring") == 0 && !IoUringAvailable()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    saved_backend_ = CurrentIoBackend()->name();
    ASSERT_TRUE(SetIoBackend(GetParam()).ok());
  }

  void TearDown() override {
    SetIoFaultHookForTest(nullptr);
    if (saved_backend_ != nullptr) {
      EXPECT_TRUE(SetIoBackend(saved_backend_).ok());
    }
    CacheStressTest::TearDown();
  }

  // kCallers threads, released together, each GetPage `lpn` once; caller
  // t's page lands in (*refs)[t], its failure in (*statuses)[t].
  static void GetTogether(PageCache* cache, LogicalPageNo lpn,
                          std::vector<PageRef>* refs,
                          std::vector<Status>* statuses) {
    refs->clear();
    refs->resize(kCallers);
    statuses->assign(kCallers, Status::OK());
    std::latch start(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        start.arrive_and_wait();
        Result<PageRef> ref = cache->GetPage(lpn);
        if (ref.ok()) {
          (*refs)[t] = std::move(*ref);
        } else {
          (*statuses)[t] = ref.status();
        }
      });
    }
    for (auto& th : callers) th.join();
  }

  const char* saved_backend_ = nullptr;
};

TEST_P(CacheLoadPathTest, ConcurrentMissesOfOnePageShareOneRead) {
  // The read sleeps, so callers released together find it in flight.
  CreateFile(/*read_latency_us=*/20000);
  ResourceManager rm;
  PageCache cache(file_.get(), &rm, PoolId::kPagedPool);
  CacheCounters counters;
  CounterDelta pages_read("storage.read.pages");
  constexpr LogicalPageNo kLpn = 7;

  std::vector<PageRef> refs;
  std::vector<Status> statuses;
  GetTogether(&cache, kLpn, &refs, &statuses);

  EXPECT_EQ(pages_read(), 1u);
  EXPECT_EQ(cache.load_count(), 1u);
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.hits(), kCallers - 1u);
  for (int t = 0; t < kCallers; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "caller " << t << ": "
                                  << statuses[t].ToString();
    ASSERT_TRUE(refs[t].valid()) << "caller " << t;
    EXPECT_EQ(&refs[t].page(), &refs[0].page()) << "caller " << t;
    EXPECT_EQ(refs[t].page().header()->logical_page_no, kLpn);
  }
}

TEST_P(CacheLoadPathTest, FailedDemandReadReachesEveryCaller) {
  CreateFile(/*read_latency_us=*/2000);
  ResourceManager rm;
  PageCache cache(file_.get(), &rm, PoolId::kPagedPool);
  const uint64_t resources = rm.resource_count();
  CacheCounters counters;
  constexpr LogicalPageNo kLpn = 3;

  // Every read fails: the loader gets the error, and each caller that
  // waited on its in-flight entry then reads the page itself and fails too.
  SetIoFaultHookForTest(&AlwaysEio);
  std::vector<PageRef> refs;
  std::vector<Status> statuses;
  GetTogether(&cache, kLpn, &refs, &statuses);
  SetIoFaultHookForTest(nullptr);

  for (int t = 0; t < kCallers; ++t) {
    EXPECT_TRUE(statuses[t].IsIOError()) << "caller " << t << ": "
                                         << statuses[t].ToString();
    EXPECT_FALSE(refs[t].valid()) << "caller " << t;
  }
  EXPECT_EQ(counters.hits() + counters.misses(), 0u);
  EXPECT_EQ(cache.prefetch_inflight_count(), 0u);
  EXPECT_EQ(rm.resource_count(), resources);
  cache.DropAll();  // would wait forever on a stale in-flight entry

  auto ref = cache.GetPage(kLpn);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->page().header()->logical_page_no, kLpn);
}

TEST_P(CacheLoadPathTest, EveryPageReadRecordsOneLatencySample) {
  CreateFile();
  ResourceManager rm;
  PageCache cache(file_.get(), &rm, PoolId::kPagedPool);
  const obs::Histogram* latency =
      obs::MetricsRegistry::Global().histogram("storage.read.latency_us");
  const uint64_t samples_before = latency->count();
  CounterDelta pages_read("storage.read.pages");
  const auto expect_one_sample_per_page = [&](uint64_t pages,
                                              const char* what) {
    EXPECT_EQ(pages_read(), pages) << what;
    EXPECT_EQ(latency->count() - samples_before, pages_read()) << what;
  };

  ASSERT_TRUE(cache.GetPage(0).ok());
  expect_one_sample_per_page(1, "GetPage miss");
  cache.PrefetchRange(1, 4);
  cache.WaitForPrefetchIdle();
  expect_one_sample_per_page(5, "PrefetchRange");
  ASSERT_TRUE(PageCache::LoadBatch({PageLoad{&cache, 10},
                                    PageLoad{&cache, 11},
                                    PageLoad{&cache, 20}})
                  .ok());
  expect_one_sample_per_page(8, "LoadBatch");

  // A byte stream of a few pages, read back outside the cache.
  StorageOptions opts;
  opts.page_size = kPageSize;
  auto stream = PageFile::Create(dir_ + "/stream", kPageSize, opts);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  constexpr uint64_t kValues = 1500;  // 12000 bytes: three pages
  ChainByteWriter writer(stream->get());
  for (uint64_t v = 0; v < kValues; ++v) writer.PutU64(v);
  ASSERT_TRUE(writer.Finish().ok());
  const uint64_t stream_pages = (*stream)->page_count();
  ASSERT_GE(stream_pages, 3u);
  ChainByteReader reader(stream->get());
  for (uint64_t v = 0; v < kValues; ++v) {
    auto got = reader.GetU64();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
  expect_one_sample_per_page(8 + stream_pages, "ChainByteReader");
}

INSTANTIATE_TEST_SUITE_P(Backends, CacheLoadPathTest,
                         ::testing::Values("sync", "uring"));

}  // namespace
}  // namespace payg
