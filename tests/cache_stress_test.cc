// Concurrency stress for the sharded PageCache + lock-free pin path: many
// readers hammer GetPage/PrefetchRange/LoadBatch on overlapping page ranges
// while the resource manager applies constant eviction pressure. The suite is part of
// the TSan and ASan+UBSan legs of scripts/check.sh and CI, where the
// "TryPin/Unpin take no mutex" claim is actually checked.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "counter_delta.h"
#include "paged/page_cache.h"
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

}  // namespace
}  // namespace payg
