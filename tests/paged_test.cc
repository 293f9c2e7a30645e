#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <type_traits>

#include "buffer/lazy_resource.h"
#include "buffer/resource_manager.h"
#include "columnar/dictionary.h"
#include "common/random.h"
#include "counter_delta.h"
#include "exec/exec_context.h"
#include "paged/fragment_factory.h"
#include "paged/page_cache.h"
#include "paged/paged_data_vector.h"
#include "paged/paged_dictionary.h"
#include "paged/paged_fragment.h"
#include "paged/paged_inverted_index.h"
#include "paged/paged_numeric_dictionary.h"
#include "storage/byte_stream.h"
#include "test_util.h"

namespace payg {
namespace {

class PagedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("paged");
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 4096;        // tiny pages force multi-page structures
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

  std::vector<ValueId> RandomVids(uint64_t rows, uint64_t cardinality,
                                  uint64_t seed) {
    Random rng(seed);
    std::vector<ValueId> vids;
    vids.reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      vids.push_back(static_cast<ValueId>(rng.Uniform(cardinality)));
    }
    return vids;
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

// ---------------------------------------------------------------------------
// PagedDataVector
// ---------------------------------------------------------------------------

TEST_F(PagedTest, DataVectorSpansMultiplePages) {
  auto vids = RandomVids(100000, 1000, 1);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv1", vids);
  ASSERT_TRUE(dv.ok()) << dv.status().ToString();
  EXPECT_EQ((*dv)->row_count(), vids.size());
  EXPECT_EQ((*dv)->bits(), 10u);
  EXPECT_GT((*dv)->data_page_count(), 3u);
}

TEST_F(PagedTest, DataVectorGetMatchesSource) {
  auto vids = RandomVids(50000, 300, 2);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv2", vids);
  ASSERT_TRUE(dv.ok());
  PagedDataVectorIterator it(dv->get());
  Random rng(3);
  for (int i = 0; i < 500; ++i) {
    RowPos r = static_cast<RowPos>(rng.Uniform(vids.size()));
    auto vid = it.Get(r);
    ASSERT_TRUE(vid.ok());
    EXPECT_EQ(*vid, vids[r]);
  }
  EXPECT_TRUE(it.Get(vids.size()).status().IsOutOfRange());
}

TEST_F(PagedTest, DataVectorMGetCrossesPageBoundaries) {
  auto vids = RandomVids(50000, 64, 4);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv3", vids);
  ASSERT_TRUE(dv.ok());
  uint64_t per_page = (*dv)->values_per_page();
  PagedDataVectorIterator it(dv->get());
  // Range straddling a page boundary.
  RowPos from = static_cast<RowPos>(per_page - 100);
  RowPos to = static_cast<RowPos>(per_page + 100);
  std::vector<ValueId> got;
  ASSERT_TRUE(it.MGet(from, to, &got).ok());
  ASSERT_EQ(got.size(), 200u);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], vids[from + i]);
}

TEST_F(PagedTest, DataVectorLoadsOnlyNeededPages) {
  auto vids = RandomVids(100000, 1000, 5);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv4", vids);
  ASSERT_TRUE(dv.ok());
  // Fresh structure: nothing resident.
  EXPECT_EQ((*dv)->cache()->loaded_page_count(), 0u);
  PagedDataVectorIterator it(dv->get());
  ASSERT_TRUE(it.Get(10).ok());
  EXPECT_EQ((*dv)->cache()->loaded_page_count(), 1u);
  // A second read on the same page must not load another page.
  ASSERT_TRUE(it.Get(11).ok());
  EXPECT_EQ((*dv)->cache()->load_count(), 1u);
  // A far-away read loads exactly one more page.
  ASSERT_TRUE(it.Get(static_cast<RowPos>(vids.size() - 1)).ok());
  EXPECT_EQ((*dv)->cache()->load_count(), 2u);
}

TEST_F(PagedTest, PageCacheHitRatioHotVsCold) {
  auto vids = RandomVids(100000, 1000, 50);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv_hit", vids);
  ASSERT_TRUE(dv.ok());
  PageCache* cache = (*dv)->cache();
  CacheCounters counters;

  const RowPos near = 10;
  const RowPos far = static_cast<RowPos>(vids.size() - 1);
  {
    PagedDataVectorIterator it(dv->get());
    // The iterator holds one pinned page, so alternating between two
    // far-apart rows forces one GetPage per switch. Cold pass: both pages
    // miss. Hot passes: both pages are resident, every switch hits.
    for (int round = 0; round < 5; ++round) {
      ASSERT_TRUE(it.Get(near).ok());
      ASSERT_TRUE(it.Get(far).ok());
    }
  }
  EXPECT_EQ(counters.misses(), 2u);
  EXPECT_EQ(counters.hits(), 8u);
  double hot_ratio = static_cast<double>(counters.hits()) /
                     static_cast<double>(counters.hits() + counters.misses());
  EXPECT_DOUBLE_EQ(hot_ratio, 0.8);

  // Cold again: shrink the paged pool to nothing and sweep (the iterator and
  // its pin are gone), then re-read — the page must be loaded anew.
  rm_->SetPoolLimits(PoolId::kPagedPool, {/*lower=*/0, /*upper=*/1});
  rm_->SweepNow();
  EXPECT_EQ(cache->loaded_page_count(), 0u);
  {
    PagedDataVectorIterator it(dv->get());
    ASSERT_TRUE(it.Get(near).ok());
  }
  EXPECT_EQ(counters.misses(), 3u);
  EXPECT_EQ(counters.hits(), 8u);
}

// Regression for owners torn down while a victim pass is still releasing
// what it chose. The paged pool's oldest entry is a gate whose payload
// blocks in its destructor, so the pass parks after choosing every victim
// and before releasing the rest. Meanwhile a PageCache and a LazyResource
// whose objects the same pass chose are destroyed; releasing their payloads
// afterwards must reach neither owner (ASan and TSan legs run this), and
// the prefetch, eviction and occupancy accounting must still reconcile.
TEST_F(PagedTest, OwnersTornDownMidSweepAreNeverReached) {
  auto vids = RandomVids(100000, 1000, 60);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv_gate", vids);
  ASSERT_TRUE(dv.ok());
  CacheCounters cache_counters;
  EvictionCounters evictions;
  auto& reg = obs::MetricsRegistry::Global();
  auto occupancy = [&] {
    int64_t pages = 0;
    for (uint32_t k = 0; k < DefaultCacheShards(); ++k) {
      pages += reg.gauge("cache.shard" + std::to_string(k) + ".pages")->value();
    }
    return pages;
  };
  const int64_t occupancy_before = occupancy();

  class Gate {
   public:
    Gate(std::atomic<bool>* parked, std::atomic<bool>* open)
        : parked_(parked), open_(open) {}
    ~Gate() {
      parked_->store(true);
      while (!open_->load()) std::this_thread::yield();
    }

   private:
    std::atomic<bool>* parked_;
    std::atomic<bool>* open_;
  };
  std::atomic<bool> parked{false};
  std::atomic<bool> open{false};
  rm_->Register(1, Disposition::kPagedAttribute, PoolId::kPagedPool,
                std::make_shared<Gate>(&parked, &open));

  // Owner 1: a cache holding four read pages and two untouched prefetches.
  auto cache = std::make_unique<PageCache>((*dv)->cache()->file(), rm_.get(),
                                           PoolId::kPagedPool);
  for (LogicalPageNo lpn = 1; lpn <= 4; ++lpn) {
    ASSERT_TRUE(cache->GetPage(lpn).ok());
  }
  cache->PrefetchRange(5, 2);
  cache->WaitForPrefetchIdle();
  ASSERT_EQ(cache->loaded_page_count(), 6u);
  // Owner 2: a whole-loaded object.
  struct Blob {
    std::vector<uint64_t> words = std::vector<uint64_t>(512);
    uint64_t MemoryBytes() const { return words.size() * sizeof(uint64_t); }
  };
  auto lazy = std::make_unique<LazyResource<Blob>>(
      rm_.get(), Disposition::kPagedAttribute, PoolId::kPagedPool);
  {
    PinnedResource pin;
    ASSERT_TRUE(lazy->Pin(&pin, [] {
                      return Result<std::shared_ptr<Blob>>(
                          std::make_shared<Blob>());
                    }).ok());
  }
  const uint64_t pool_bytes = rm_->pool_bytes(PoolId::kPagedPool);
  ASSERT_EQ(pool_bytes, 1 + 6 * 4096 + Blob().MemoryBytes());

  rm_->SetPoolLimits(PoolId::kPagedPool, {/*lower=*/0, /*upper=*/1});
  std::thread sweep([&] { rm_->SweepNow(); });
  while (!parked.load()) std::this_thread::yield();
  // Every victim is chosen: the bytes have left the accounting and the
  // cache's slots are dead, but their payloads are not released yet.
  EXPECT_EQ(rm_->pool_bytes(PoolId::kPagedPool), 0u);
  EXPECT_EQ(cache->loaded_page_count(), 0u);
  EXPECT_EQ(lazy->resident_bytes(), 0u);
  cache.reset();
  lazy.reset();
  open.store(true);
  sweep.join();

  EXPECT_EQ(evictions.proactive(), 8u);  // the gate, 6 pages, the blob
  EXPECT_EQ(evictions.bytes(), pool_bytes);
  EXPECT_EQ(cache_counters.prefetch_issued(), 2u);
  EXPECT_EQ(cache_counters.prefetch_hits(), 0u);
  EXPECT_EQ(cache_counters.prefetch_wasted(), 2u);
  EXPECT_EQ(occupancy(), occupancy_before);
  EXPECT_EQ(rm_->resource_count(), 0u);
}

TEST_F(PagedTest, DataVectorSearchMatchesScalar) {
  auto vids = RandomVids(30000, 50, 6);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv5", vids);
  ASSERT_TRUE(dv.ok());
  PagedDataVectorIterator it(dv->get());
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(vids.size()), 17, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 17u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);

  rows.clear();
  ASSERT_TRUE(it.SearchRange(1000, 20000, 10, 20, &rows).ok());
  expect.clear();
  for (RowPos r = 1000; r < 20000; ++r) {
    if (vids[r] >= 10 && vids[r] <= 20) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);

  rows.clear();
  ASSERT_TRUE(it.SearchIn(0, 5000, {3, 30, 44}, &rows).ok());
  expect.clear();
  for (RowPos r = 0; r < 5000; ++r) {
    if (vids[r] == 3 || vids[r] == 30 || vids[r] == 44) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);

  rows.clear();
  std::vector<RowPos> probe{5, 500, 5000, 25000};
  ASSERT_TRUE(it.SearchRowsRange(probe, 0, 25, &rows).ok());
  expect.clear();
  for (RowPos r : probe) {
    if (vids[r] <= 25) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(PagedTest, DataVectorEvictedPageReloadsTransparently) {
  auto vids = RandomVids(100000, 1000, 7);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv6", vids);
  ASSERT_TRUE(dv.ok());
  {
    PagedDataVectorIterator it(dv->get());
    ASSERT_TRUE(it.Get(0).ok());
    ASSERT_TRUE(it.Get(static_cast<RowPos>(vids.size() / 2)).ok());
  }  // iterator gone → pins released
  EXPECT_EQ((*dv)->cache()->loaded_page_count(), 2u);
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 1});
  rm_->SweepNow();
  EXPECT_EQ((*dv)->cache()->loaded_page_count(), 0u);
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 0});
  PagedDataVectorIterator it(dv->get());
  auto vid = it.Get(42);
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, vids[42]);
}

TEST_F(PagedTest, DataVectorPinnedPageSurvivesSweep) {
  auto vids = RandomVids(100000, 1000, 8);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "dv7", vids);
  ASSERT_TRUE(dv.ok());
  PagedDataVectorIterator it(dv->get());
  ASSERT_TRUE(it.Get(0).ok());  // iterator keeps the page pinned
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 1});
  rm_->SweepNow();
  EXPECT_EQ((*dv)->cache()->loaded_page_count(), 1u);
  // And reads keep working without reload.
  uint64_t loads = (*dv)->cache()->load_count();
  ASSERT_TRUE(it.Get(1).ok());
  EXPECT_EQ((*dv)->cache()->load_count(), loads);
}

TEST_F(PagedTest, DataVectorReopen) {
  auto vids = RandomVids(20000, 128, 9);
  {
    auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "dv8", vids);
    ASSERT_TRUE(dv.ok());
  }
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv8");
  ASSERT_TRUE(dv.ok()) << dv.status().ToString();
  EXPECT_EQ((*dv)->row_count(), vids.size());
  PagedDataVectorIterator it(dv->get());
  for (RowPos r : {0u, 777u, 19999u}) {
    auto vid = it.Get(r);
    ASSERT_TRUE(vid.ok());
    EXPECT_EQ(*vid, vids[r]);
  }
}

// ---------------------------------------------------------------------------
// Meta-page compatibility (S22). Version-0 chains (pre-codec, 24-byte meta
// payload) must keep opening and scanning as plain; malformed meta pages
// must be rejected with a clear Status instead of decoding garbage.
// ---------------------------------------------------------------------------

// Hand-writes a `<name>.dv` chain whose meta page is produced by `fill`
// (which must also set the payload size). No data pages unless appended by
// the caller afterwards — Open() reads only the meta page.
void WriteRawMetaChain(StorageManager* storage, const std::string& name,
                       const std::function<void(Page*)>& fill) {
  const uint32_t page_size = storage->options().page_size;
  auto file = storage->CreateChain(name + ".dv", page_size);
  ASSERT_TRUE(file.ok());
  Page meta(page_size);
  meta.set_type(PageType::kMeta);
  fill(&meta);
  ASSERT_TRUE((*file)->AppendPage(&meta).ok());
  ASSERT_TRUE(storage->SyncChains().ok());
}

TEST_F(PagedTest, DataVectorVersionZeroChainOpensAsPlain) {
  // Replicate the exact pre-codec on-disk layout: a 24-byte meta payload
  // (bits @0, row_count @8, values_per_page @16 — no version word, no codec
  // byte) followed by uniformly n-bit-packed data pages.
  auto vids = RandomVids(20000, 500, 77);
  CodecChoice plain = MakeCodecChoice(CodecId::kPlain, vids);
  const uint32_t page_size = storage_->options().page_size;
  const uint64_t vpp = CodecValuesPerPage(Page(page_size).capacity(), plain);
  {
    auto file = storage_->CreateChain("dv_v0.dv", page_size);
    ASSERT_TRUE(file.ok());
    Page meta(page_size);
    meta.set_type(PageType::kMeta);
    uint8_t* p = meta.payload();
    const uint64_t row_count = vids.size();
    std::memcpy(p, &plain.params.bits, sizeof(plain.params.bits));
    std::memcpy(p + 8, &row_count, sizeof(row_count));
    std::memcpy(p + 16, &vpp, sizeof(vpp));
    meta.set_payload_size(24);
    ASSERT_TRUE((*file)->AppendPage(&meta).ok());
    Page page(page_size);
    page.set_type(PageType::kDataVector);
    for (uint64_t first = 0; first < vids.size(); first += vpp) {
      const uint64_t n = std::min<uint64_t>(vpp, vids.size() - first);
      uint32_t aux2 = 0;
      page.set_payload_size(CodecEncodePage(plain, vids.data() + first, n,
                                            page.payload(), page.capacity(),
                                            &aux2));
      page.header()->aux = static_cast<uint32_t>(n);
      page.header()->aux2 = aux2;
      ASSERT_TRUE((*file)->AppendPage(&page).ok());
    }
    ASSERT_TRUE(storage_->SyncChains().ok());
  }

  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_v0");
  ASSERT_TRUE(dv.ok()) << dv.status().ToString();
  EXPECT_EQ((*dv)->codec_id(), CodecId::kPlain);
  EXPECT_EQ((*dv)->row_count(), vids.size());
  EXPECT_EQ((*dv)->values_per_page(), vpp);

  PagedDataVectorIterator it(dv->get());
  std::vector<ValueId> got;
  ASSERT_TRUE(it.MGet(0, static_cast<RowPos>(vids.size()), &got).ok());
  EXPECT_EQ(got, vids);
  std::vector<RowPos> rows, expect;
  ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(vids.size()), 42, &rows)
                  .ok());
  for (uint64_t r = 0; r < vids.size(); ++r) {
    if (vids[r] == 42) expect.push_back(static_cast<RowPos>(r));
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(PagedTest, DataVectorUnknownMetaVersionRejected) {
  WriteRawMetaChain(storage_.get(), "dv_badver", [](Page* meta) {
    uint8_t* p = meta->payload();
    const uint32_t version = 7;  // a future format this build cannot read
    std::memcpy(p, &version, sizeof(version));
    meta->set_payload_size(36);
  });
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_badver");
  ASSERT_FALSE(dv.ok());
  EXPECT_NE(dv.status().ToString().find("unsupported meta format version 7"),
            std::string::npos)
      << dv.status().ToString();
}

TEST_F(PagedTest, DataVectorUnknownCodecIdRejected) {
  WriteRawMetaChain(storage_.get(), "dv_badcodec", [](Page* meta) {
    uint8_t* p = meta->payload();
    const uint32_t version = 1;
    const uint32_t bits = 8;
    const uint64_t rows = 64, vpp = 64;
    std::memcpy(p, &version, sizeof(version));
    std::memcpy(p + 4, &bits, sizeof(bits));
    std::memcpy(p + 8, &rows, sizeof(rows));
    std::memcpy(p + 16, &vpp, sizeof(vpp));
    p[24] = 9;  // no such codec
    meta->set_payload_size(36);
  });
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_badcodec");
  ASSERT_FALSE(dv.ok());
  EXPECT_NE(dv.status().ToString().find("unknown codec id 9"),
            std::string::npos)
      << dv.status().ToString();
}

TEST_F(PagedTest, DataVectorBadBitsRejected) {
  WriteRawMetaChain(storage_.get(), "dv_badbits", [](Page* meta) {
    uint8_t* p = meta->payload();
    const uint32_t bits = 77;  // packed width cannot exceed 32
    const uint64_t rows = 64, vpp = 64;
    std::memcpy(p, &bits, sizeof(bits));
    std::memcpy(p + 8, &rows, sizeof(rows));
    std::memcpy(p + 16, &vpp, sizeof(vpp));
    meta->set_payload_size(24);
  });
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_badbits");
  ASSERT_FALSE(dv.ok());
  EXPECT_NE(dv.status().ToString().find("bits out of range"),
            std::string::npos)
      << dv.status().ToString();
}

TEST_F(PagedTest, DataVectorUnrecognizedMetaSizeRejected) {
  WriteRawMetaChain(storage_.get(), "dv_badsize", [](Page* meta) {
    meta->set_payload_size(28);  // neither the v0 nor the v1 layout
  });
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_badsize");
  ASSERT_FALSE(dv.ok());
  EXPECT_NE(dv.status().ToString().find("unrecognized payload size 28"),
            std::string::npos)
      << dv.status().ToString();
}

TEST_F(PagedTest, DataVectorForBaseWrapRejected) {
  // A hostile FOR base that would wrap residual+base past u32 makes decode
  // disagree with the searches' residual-space translation; the meta parse
  // is the one place the base enters the system, so it must die there.
  WriteRawMetaChain(storage_.get(), "dv_forwrap", [](Page* meta) {
    uint8_t* p = meta->payload();
    const uint32_t version = 1;
    const uint32_t bits = 8;
    const uint64_t rows = 64, vpp = 64;
    std::memcpy(p, &version, sizeof(version));
    std::memcpy(p + 4, &bits, sizeof(bits));
    std::memcpy(p + 8, &rows, sizeof(rows));
    std::memcpy(p + 16, &vpp, sizeof(vpp));
    p[24] = static_cast<uint8_t>(CodecId::kFor);
    const uint32_t base = 0xFFFFFF01;  // base + 0xFF residual wraps
    std::memcpy(p + 28, &base, sizeof(base));
    meta->set_payload_size(36);
  });
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_forwrap");
  ASSERT_FALSE(dv.ok());
  EXPECT_NE(dv.status().ToString().find("overflows the 32-bit vid space"),
            std::string::npos)
      << dv.status().ToString();
}

TEST_F(PagedTest, ParseDataVectorMetaBoundaries) {
  // Direct unit coverage of the parser the fuzz_meta_page target drives.
  uint8_t buf[36] = {};
  const uint32_t version = 1;
  const uint32_t bits = 8;
  const uint64_t rows = 128, vpp = 64;
  std::memcpy(buf, &version, sizeof(version));
  std::memcpy(buf + 4, &bits, sizeof(bits));
  std::memcpy(buf + 8, &rows, sizeof(rows));
  std::memcpy(buf + 16, &vpp, sizeof(vpp));
  buf[24] = static_cast<uint8_t>(CodecId::kFor);

  // Largest base that cannot wrap at 8 bits: 0xFFFFFFFF - 0xFF.
  uint32_t base = 0xFFFFFF00;
  std::memcpy(buf + 28, &base, sizeof(base));
  DataVectorMeta meta;
  ASSERT_TRUE(ParseDataVectorMeta(buf, sizeof(buf), &meta).ok());
  EXPECT_EQ(meta.codec.id, CodecId::kFor);
  EXPECT_EQ(meta.codec.params.for_base, base);
  EXPECT_EQ(meta.row_count, rows);
  EXPECT_EQ(meta.values_per_page, vpp);

  base = 0xFFFFFF01;  // one past the boundary
  std::memcpy(buf + 28, &base, sizeof(base));
  EXPECT_TRUE(ParseDataVectorMeta(buf, sizeof(buf), &meta).IsCorruption());

  // The v0 layout parses as plain with no base.
  uint8_t v0[24] = {};
  std::memcpy(v0, &bits, sizeof(bits));
  std::memcpy(v0 + 8, &rows, sizeof(rows));
  std::memcpy(v0 + 16, &vpp, sizeof(vpp));
  ASSERT_TRUE(ParseDataVectorMeta(v0, sizeof(v0), &meta).ok());
  EXPECT_EQ(meta.codec.id, CodecId::kPlain);
  EXPECT_EQ(meta.codec.params.for_base, 0u);
}

TEST_F(PagedTest, DataVectorOverclaimedPageRowCountRejected) {
  auto vids = RandomVids(20000, 500, 11);
  {
    auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "dv_auxlie", vids);
    ASSERT_TRUE(dv.ok()) << dv.status().ToString();
  }
  storage_.reset();
  // Patch the first data page's header `aux` (rows in page) to claim more
  // rows than values_per_page allows. The header sits outside the payload
  // CRC, so only the paged layer's own bound can catch the lie.
  {
    const std::string path = dir_ + "/dv_auxlie.dv";
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint32_t lie = 0x00FFFFFF;
    ASSERT_EQ(std::fseek(f, 4096 + 28, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&lie, sizeof(lie), 1, f), 1u);
    std::fclose(f);
  }
  StorageOptions opts;
  opts.page_size = 4096;
  opts.dict_page_size = 8192;
  auto sm = StorageManager::Open(dir_, opts);
  ASSERT_TRUE(sm.ok());
  storage_ = std::move(*sm);

  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "dv_auxlie");
  Status s;
  if (dv.ok()) {
    PagedDataVectorIterator it(dv->get());
    std::vector<ValueId> got;
    s = it.MGet(0, 100, &got);
  } else {
    s = dv.status();
  }
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// ---------------------------------------------------------------------------
// PagedDictionary
// ---------------------------------------------------------------------------

std::vector<std::string> MakeSortedStrings(uint64_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "value_%08llu",
                  static_cast<unsigned long long>(i));
    out.emplace_back(buf);
  }
  return out;
}

TEST_F(PagedTest, DictionaryLookupBothDirections) {
  auto values = MakeSortedStrings(5000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "d1", values);
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  EXPECT_EQ((*dict)->size(), values.size());
  EXPECT_GT((*dict)->dict_page_count(), 1u);

  PagedDictionaryIterator it(dict->get());
  Random rng(10);
  for (int i = 0; i < 200; ++i) {
    ValueId vid = static_cast<ValueId>(rng.Uniform(values.size()));
    auto value = it.FindByValueId(vid);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, values[vid]);
    auto back = it.FindByValue(values[vid]);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, vid);
  }
}

TEST_F(PagedTest, DictionaryMissingValue) {
  auto values = MakeSortedStrings(1000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "d2", values);
  ASSERT_TRUE(dict.ok());
  PagedDictionaryIterator it(dict->get());
  auto missing = it.FindByValue("value_00000500x");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, kInvalidValueId);
  auto before_all = it.FindByValue("aaa");
  ASSERT_TRUE(before_all.ok());
  EXPECT_EQ(*before_all, kInvalidValueId);
  auto after_all = it.FindByValue("zzz");
  ASSERT_TRUE(after_all.ok());
  EXPECT_EQ(*after_all, kInvalidValueId);
  EXPECT_TRUE(it.FindByValueId(1000).status().IsOutOfRange());
}

TEST_F(PagedTest, DictionaryBounds) {
  auto values = MakeSortedStrings(1000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "d3", values);
  ASSERT_TRUE(dict.ok());
  PagedDictionaryIterator it(dict->get());
  EXPECT_EQ(*it.LowerBound("value_00000500"), 500u);
  EXPECT_EQ(*it.UpperBound("value_00000500"), 501u);
  EXPECT_EQ(*it.LowerBound("value_000005"), 500u);   // between 499 and 500
  EXPECT_EQ(*it.UpperBound("value_000005"), 500u);
  EXPECT_EQ(*it.LowerBound("aaa"), 0u);
  EXPECT_EQ(*it.LowerBound("zzz"), 1000u);
}

TEST_F(PagedTest, DictionaryHelpersPreloadOnFirstAccess) {
  auto values = MakeSortedStrings(3000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "d4", values);
  ASSERT_TRUE(dict.ok());
  EXPECT_FALSE((*dict)->helpers_loaded());
  PagedDictionaryIterator it(dict->get());
  ASSERT_TRUE(it.FindByValueId(100).ok());
  EXPECT_TRUE((*dict)->helpers_loaded());
}

TEST_F(PagedTest, DictionaryIteratorHandleCacheAvoidsReloads) {
  auto values = MakeSortedStrings(5000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "d5", values);
  ASSERT_TRUE(dict.ok());
  PagedDictionaryIterator it(dict->get());
  ASSERT_TRUE(it.FindByValueId(10).ok());
  uint64_t loads_after_first = (*dict)->cache()->load_count();
  // Repeated lookups on the same page: no further page loads.
  for (ValueId v = 0; v < 50; ++v) ASSERT_TRUE(it.FindByValueId(v).ok());
  EXPECT_EQ((*dict)->cache()->load_count(), loads_after_first);
}

TEST_F(PagedTest, DictionaryLargeStringsSpillToOverflowPages) {
  std::vector<std::string> values;
  for (int i = 0; i < 20; ++i) {
    // ~20 KiB strings against 8 KiB dictionary pages → guaranteed spill.
    values.push_back("key_" + std::to_string(1000 + i) + "_" +
                     std::string(20000, static_cast<char>('a' + i)));
  }
  std::sort(values.begin(), values.end());
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "d6", values);
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  PagedDictionaryIterator it(dict->get());
  for (uint32_t i = 0; i < values.size(); ++i) {
    auto v = it.FindByValueId(i);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*v, values[i]);
    auto vid = it.FindByValue(values[i]);
    ASSERT_TRUE(vid.ok());
    EXPECT_EQ(*vid, i);
  }
}

// The batch read walks pages and blocks in order and must agree with the
// per-vid lookup on every range: page and block boundaries, a partial last
// block, empty and 0xFF-heavy strings, and strings spilled to overflow
// pages.
TEST_F(PagedTest, DictionaryMGetValuesMatchesFindByValueId) {
  std::vector<std::string> values = MakeSortedStrings(1500);
  values.push_back("");
  values.push_back(std::string(3, '\xff'));
  values.push_back("\xff\xfe" + std::string(20000, '\xff'));
  for (int i = 0; i < 6; ++i) {
    values.push_back("spill_" + std::to_string(i) +
                     std::string(5000 + 3000 * i, 'z'));
  }
  std::sort(values.begin(), values.end());
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "dmget", values);
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  ASSERT_GT((*dict)->dict_page_count(), 2u);
  const ValueId n = static_cast<ValueId>(values.size());

  PagedDictionaryIterator it(dict->get());
  std::vector<std::string> all;
  ASSERT_TRUE(it.MGetValues(0, n, &all).ok());
  EXPECT_EQ(all, values);

  Random rng(77);
  for (int i = 0; i < 200; ++i) {
    ValueId from = static_cast<ValueId>(rng.Uniform(n + 1));
    ValueId to = static_cast<ValueId>(rng.Uniform(n + 1));
    if (from > to) std::swap(from, to);
    std::vector<std::string> got = {"kept"};  // appends, never clears
    ASSERT_TRUE(it.MGetValues(from, to, &got).ok());
    ASSERT_EQ(got.size(), 1u + (to - from)) << from << ".." << to;
    EXPECT_EQ(got[0], "kept");
    for (ValueId v = from; v < to; ++v) {
      auto one = it.FindByValueId(v);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(got[1 + v - from], *one) << "vid " << v;
    }
  }
  std::vector<std::string> none;
  EXPECT_TRUE(it.MGetValues(n, n, &none).ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(it.MGetValues(0, n + 1, &none).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(it.MGetValues(5, 4, &none).code(), StatusCode::kOutOfRange);
}

// Both main fragment kinds answer the batch dictionary read with exactly
// what the per-vid read returns, for every value type: into a typed array
// of the fragment's type, appended after what it holds, over the whole
// range, random ranges and an empty one.
TEST_F(PagedTest, FragmentMGetValuesMatchesGetValueForVid) {
  constexpr ValueId kSize = 700;
  std::vector<ValueArray> dicts = {std::vector<int64_t>(),
                                   std::vector<double>(),
                                   std::vector<std::string>()};
  for (int64_t i = 0; i < kSize; ++i) {
    std::get<0>(dicts[0]).push_back(i * 3 - 1000);
    std::get<1>(dicts[1]).push_back(static_cast<double>(i) * 0.5 - 100.0);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05lld", static_cast<long long>(i));
    std::get<2>(dicts[2]).emplace_back(buf);
  }
  const std::vector<ValueId> vids = RandomVids(3000, kSize, 5);
  Random rng(6);
  int n = 0;
  for (const ValueArray& dict : dicts) {
    const ValueType type = ValueArrayType(dict);
    for (bool paged : {false, true}) {
      SCOPED_TRACE(std::string(ValueTypeName(type)) +
                   (paged ? " paged" : " resident"));
      FragmentSpec spec{.page_loadable = paged};
      auto frag = BuildMainFragment(storage_.get(), rm_.get(),
                                    "fmv" + std::to_string(n++), dict, vids,
                                    spec);
      ASSERT_TRUE(frag.ok()) << frag.status().ToString();
      auto reader = (*frag)->NewReader();
      ASSERT_TRUE(reader.ok());
      ValueArray all = MakeValueArray(type);
      ASSERT_TRUE((*reader)->MGetValues(0, kSize, &all).ok());
      EXPECT_EQ(all, dict);
      for (int i = 0; i < 20; ++i) {
        const auto to = static_cast<ValueId>(rng.Uniform(kSize + 1));
        const auto from = static_cast<ValueId>(rng.Uniform(to + 1));
        ValueArray part = MakeValueArray(type);
        ASSERT_TRUE((*reader)->MGetValues(0, 1, &part).ok());  // a prefix
        ASSERT_TRUE((*reader)->MGetValues(from, to, &part).ok());
        ASSERT_EQ(ValueArraySize(part), 1u + (to - from));
        EXPECT_EQ(ValueAt(part, 0), ValueAt(dict, 0));
        for (ValueId v = from; v < to; ++v) {
          auto one = (*reader)->GetValueForVid(v);
          ASSERT_TRUE(one.ok());
          EXPECT_EQ(ValueAt(part, 1 + v - from), *one) << "vid " << v;
        }
      }
      ValueArray none = MakeValueArray(type);
      EXPECT_TRUE((*reader)->MGetValues(kSize, kSize, &none).ok());
      EXPECT_EQ(ValueArraySize(none), 0u);
      EXPECT_EQ((*reader)->MGetValues(0, kSize + 1, &none).code(),
                StatusCode::kOutOfRange);
      EXPECT_EQ((*reader)->MGetValues(5, 4, &none).code(),
                StatusCode::kOutOfRange);
    }
  }
}

TEST_F(PagedTest, DictionaryReopen) {
  auto values = MakeSortedStrings(2500);
  {
    auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "d7", values);
    ASSERT_TRUE(dict.ok());
  }
  auto dict = PagedDictionary::Open(storage_.get(), rm_.get(),
                                    PoolId::kPagedPool, "d7");
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  EXPECT_EQ((*dict)->size(), values.size());
  PagedDictionaryIterator it(dict->get());
  EXPECT_EQ(*it.FindByValueId(1234), values[1234]);
  EXPECT_EQ(*it.FindByValue(values[42]), 42u);
}

TEST_F(PagedTest, DictionaryPageBoundaryLookups) {
  auto values = MakeSortedStrings(5000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "dbound", values);
  ASSERT_TRUE(dict.ok());
  ASSERT_GT((*dict)->dict_page_count(), 2u);
  // Exercise the exact first and last vid of every dictionary page: the
  // helper binary searches must route to the right page at the boundaries.
  PagedDictionaryIterator it(dict->get());
  // Find the page-boundary vids by walking all vids and recording where the
  // page ordinal changes (uses the public API only: lookups must succeed).
  for (ValueId vid : {0u, 15u, 16u, 4999u}) {
    auto v = it.FindByValueId(vid);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, values[vid]);
  }
  Random rng(71);
  for (int i = 0; i < 300; ++i) {
    ValueId vid = static_cast<ValueId>(rng.Uniform(values.size()));
    auto v = it.FindByValueId(vid);
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(*v, values[vid]);
    auto back = it.FindByValue(values[vid]);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, vid);
  }
}

TEST_F(PagedTest, DictionaryPinnedPagesSurviveSweepDuringIterator) {
  auto values = MakeSortedStrings(5000);
  auto dict = PagedDictionary::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "dpin", values);
  ASSERT_TRUE(dict.ok());
  PagedDictionaryIterator it(dict->get());
  ASSERT_TRUE(it.FindByValueId(100).ok());
  uint64_t loads_before = (*dict)->cache()->load_count();
  // The iterator's handle cache pins its pages: an aggressive sweep must
  // not evict them, and the repeat lookup must not reload.
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 1});
  rm_->SweepNow();
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 0});
  ASSERT_TRUE(it.FindByValueId(101).ok());
  EXPECT_EQ((*dict)->cache()->load_count(), loads_before);
}

// ---------------------------------------------------------------------------
// PagedInvertedIndex
// ---------------------------------------------------------------------------

TEST_F(PagedTest, InvertedIndexLookupMatchesScalar) {
  auto vids = RandomVids(60000, 37, 11);
  auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "i1", vids, 37);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_FALSE((*idx)->unique());
  for (ValueId v : {0u, 17u, 36u}) {
    PagedIndexIterator it(idx->get());
    std::vector<RowPos> rows;
    ASSERT_TRUE(it.Lookup(v, &rows).ok());
    std::vector<RowPos> expect;
    for (RowPos r = 0; r < vids.size(); ++r) {
      if (vids[r] == v) expect.push_back(r);
    }
    EXPECT_EQ(rows, expect) << "vid " << v;
  }
}

TEST_F(PagedTest, InvertedIndexStepwiseIteration) {
  auto vids = RandomVids(10000, 5, 12);
  auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "i2", vids, 5);
  ASSERT_TRUE(idx.ok());
  PagedIndexIterator it(idx->get());
  auto first = it.GetFirstRowPos(2);
  ASSERT_TRUE(first.ok());
  std::vector<RowPos> rows{*first};
  while (it.HasNext()) {
    auto next = it.GetNextRowPos();
    ASSERT_TRUE(next.ok());
    rows.push_back(*next);
  }
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 2u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(PagedTest, InvertedIndexUniqueHasNoDirectory) {
  // A permutation → unique index.
  std::vector<ValueId> vids(20000);
  for (size_t i = 0; i < vids.size(); ++i) {
    vids[i] = static_cast<ValueId>(vids.size() - 1 - i);
  }
  auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "i3", vids,
                                       vids.size());
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE((*idx)->unique());
  EXPECT_FALSE((*idx)->has_mixed_page());
  PagedIndexIterator it(idx->get());
  for (ValueId v : {0u, 9999u, 19999u}) {
    auto r = it.GetFirstRowPos(v);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(vids[*r], v);
    EXPECT_FALSE(it.HasNext());
    auto count = it.CountPostings(v);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 1u);
  }
}

TEST_F(PagedTest, InvertedIndexMixedPageWhenRemainder) {
  // Small row count with low cardinality: postings + directory share pages.
  auto vids = RandomVids(1000, 8, 13);
  auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "i4", vids, 8);
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE((*idx)->has_mixed_page());
  PagedIndexIterator it(idx->get());
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.Lookup(3, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 3u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
  // A point lookup on a mixed page touches exactly one page.
  EXPECT_LE(it.pages_touched(), 2u);
}

TEST_F(PagedTest, InvertedIndexDirectorySpillsToDirectoryPages) {
  // Huge cardinality → directory larger than the mixed page.
  auto vids = RandomVids(50000, 20000, 14);
  auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "i5", vids, 20000);
  ASSERT_TRUE(idx.ok());
  PagedIndexIterator it(idx->get());
  Random rng(15);
  for (int i = 0; i < 100; ++i) {
    ValueId v = static_cast<ValueId>(rng.Uniform(20000));
    std::vector<RowPos> rows;
    ASSERT_TRUE(it.Lookup(v, &rows).ok());
    std::vector<RowPos> expect;
    for (RowPos r = 0; r < vids.size(); ++r) {
      if (vids[r] == v) expect.push_back(r);
    }
    EXPECT_EQ(rows, expect) << "vid " << v;
  }
  // The directory alone gives every value's count, values without a row
  // included, across the mixed page and the directory pages.
  std::vector<uint64_t> histogram(20000);
  for (ValueId v : vids) ++histogram[v];
  for (ValueId v = 0; v < 20000; ++v) {
    auto count = it.CountPostings(v);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(*count, histogram[v]) << "vid " << v;
  }
  EXPECT_TRUE(it.CountPostings(20000).status().IsOutOfRange());
}

TEST_F(PagedTest, InvertedIndexReopen) {
  auto vids = RandomVids(30000, 100, 16);
  {
    auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                         PoolId::kPagedPool, "i6", vids, 100);
    ASSERT_TRUE(idx.ok());
  }
  auto idx = PagedInvertedIndex::Open(storage_.get(), rm_.get(),
                                      PoolId::kPagedPool, "i6");
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  PagedIndexIterator it(idx->get());
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.Lookup(55, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 55u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

// ---------------------------------------------------------------------------
// PagedNumericDictionary
// ---------------------------------------------------------------------------

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSub = std::numeric_limits<double>::denorm_min();

// `values` sorted and deduplicated in Value::Compare order (-0.0 == 0.0).
template <typename T>
std::vector<T> SortedUnique(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

template <typename T>
Result<std::unique_ptr<PagedNumericDictionary>> BuildNumericDict(
    StorageManager* storage, ResourceManager* rm, const std::string& name,
    const std::vector<T>& sorted) {
  return PagedNumericDictionary::Build(storage, rm, PoolId::kPagedPool, name,
                                       sorted);
}

// Every value of `values`, its neighbours, and the type's extremes.
template <typename T>
std::vector<T> ProbesAround(const std::vector<T>& values) {
  std::vector<T> probes;
  if constexpr (std::is_same_v<T, int64_t>) {
    probes = {kI64Min, kI64Min + 1, -1, 0, 1, kI64Max - 1, kI64Max};
    for (int64_t v : values) {
      probes.push_back(v);
      if (v != kI64Min) probes.push_back(v - 1);
      if (v != kI64Max) probes.push_back(v + 1);
    }
  } else {
    probes = {-kInf, kInf, -0.0, 0.0, kSub, -kSub,
              std::numeric_limits<double>::min(),
              std::numeric_limits<double>::max(),
              std::numeric_limits<double>::lowest()};
    for (double v : values) {
      probes.push_back(v);
      probes.push_back(std::nextafter(v, kInf));
      probes.push_back(std::nextafter(v, -kInf));
      if (v == 0.0) probes.push_back(-v);
    }
  }
  return probes;
}

// Checks the paged dictionary of `sorted` against the resident Dictionary
// over the same values: GetValue of every vid, MGetValues over the whole
// range and random ranges, and FindValueId / LowerBound / UpperBound of
// every probe.
template <typename T>
void ExpectPagedMatchesDictionary(PagedNumericDictionary* paged,
                                  const std::vector<T>& sorted, Random* rng) {
  const Dictionary ref(sorted);
  ASSERT_EQ(paged->size(), ref.size());
  PagedNumericDictionaryIterator it(paged);
  for (ValueId vid = 0; vid < ref.size(); ++vid) {
    auto got = it.GetValue(vid);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, ref.GetValue(vid)) << "vid " << vid;
  }
  EXPECT_TRUE(it.GetValue(static_cast<ValueId>(ref.size()))
                  .status()
                  .IsOutOfRange());
  for (int i = 0; i < 8; ++i) {
    const auto size = static_cast<ValueId>(ref.size());
    const ValueId to =
        i == 0 ? size : static_cast<ValueId>(rng->Uniform(size + 1));
    const ValueId from =
        i == 0 ? 0 : static_cast<ValueId>(rng->Uniform(to + 1));
    ValueArray got = std::vector<T>{T{7}};
    ValueArray want = got;
    ASSERT_TRUE(it.MGetValues(from, to, &got).ok());
    ref.AppendValues(from, to, &want);
    ASSERT_EQ(got, want) << "[" << from << ", " << to << ")";
  }
  for (const T& p : ProbesAround(sorted)) {
    const Value key(p);
    auto lb = it.LowerBound(key);
    auto ub = it.UpperBound(key);
    auto found = it.FindValueId(key);
    ASSERT_TRUE(lb.ok() && ub.ok() && found.ok());
    EXPECT_EQ(*lb, ref.LowerBound(key)) << key.ToString();
    EXPECT_EQ(*ub, ref.UpperBound(key)) << key.ToString();
    const std::optional<ValueId> want = ref.FindValueId(key);
    EXPECT_EQ(*found, want.value_or(kInvalidValueId)) << key.ToString();
  }
}

TEST_F(PagedTest, NumericKeyPreservesValueOrder) {
  const std::vector<double> ordered = {
      -kInf, std::numeric_limits<double>::lowest(), -1.5, -kSub, 0.0, kSub,
      1.5, std::numeric_limits<double>::max(), kInf};
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_LT(NumericKey(ordered[i]), NumericKey(ordered[i + 1])) << i;
  }
  EXPECT_EQ(NumericKey(-0.0), NumericKey(0.0));
  EXPECT_EQ(NumericKey(kI64Min), 0u);
  EXPECT_EQ(NumericKey(kI64Max), ~uint64_t{0});
  EXPECT_EQ(NumericKey(int64_t{0}) - NumericKey(int64_t{-1}), 1u);
  for (double v : ordered) {
    EXPECT_EQ(NumericValueOfKey<double>(NumericKey(v)), v);
  }
  for (int64_t v : {kI64Min, int64_t{-7}, int64_t{0}, kI64Max}) {
    EXPECT_EQ(NumericValueOfKey<int64_t>(NumericKey(v)), v);
  }
}

TEST_F(PagedTest, NumericDictionaryMatchesResidentDictionary) {
  Random rng(2016);
  int built = 0;
  auto check = [&](const auto& sorted) {
    auto dict = BuildNumericDict(storage_.get(), rm_.get(),
                                 "nd" + std::to_string(built++), sorted);
    EXPECT_TRUE(dict.ok()) << dict.status().ToString();
    if (!dict.ok()) return std::unique_ptr<PagedNumericDictionary>();
    ExpectPagedMatchesDictionary(dict->get(), sorted, &rng);
    return std::move(*dict);
  };

  // The resident dictionary's inputs: INT64_MIN/MAX, ±inf, subnormals,
  // empty and one-entry dictionaries (the -0.0 probes come from
  // ProbesAround).
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Random gen(seed);
    const uint64_t n = seed % 6 == 0 ? gen.Uniform(3) : gen.Uniform(400);
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    for (uint64_t i = 0; i < n; ++i) {
      switch (gen.Uniform(4)) {
        case 0:
          ints.push_back(static_cast<int64_t>(gen.Next()));
          doubles.push_back(
              static_cast<double>(static_cast<int64_t>(gen.Next())));
          break;
        case 1:
          ints.push_back(static_cast<int64_t>(gen.Uniform(64)) - 32);
          doubles.push_back(kSub * static_cast<double>(gen.Uniform(8)));
          break;
        default:
          ints.push_back(static_cast<int64_t>(gen.Uniform(5000)) - 2500);
          doubles.push_back(0.125 * static_cast<double>(gen.Uniform(400)) -
                            25.0);
          break;
      }
    }
    if (seed % 2 == 0) {
      ints.insert(ints.end(), {kI64Min, kI64Max, 0});
      doubles.insert(doubles.end(), {-kInf, kInf, 0.0, -kSub});
    }
    check(SortedUnique(ints));
    check(SortedUnique(doubles));
  }
  check(std::vector<int64_t>{});
  check(std::vector<double>{});
  check(std::vector<int64_t>{kI64Min});
  check(std::vector<double>{0.0});
  check(std::vector<int64_t>{kI64Min, kI64Max});

  // Dense runs: stride 3 across zero, and 0..70026 with 27 keys missing
  // (the shape of a key column over a uniform draw).
  std::vector<int64_t> dense;
  for (int64_t i = -30000; i < 30000; ++i) dense.push_back(3 * i);
  auto d = check(dense);
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->page_count(), 1u);
  std::vector<int64_t> holes;
  for (int64_t i = 0; i < 70027; ++i) {
    if (i % 2593 != 7) holes.push_back(i);
  }
  d = check(holes);
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->page_count(), 1u);

  // Random gaps, narrow and wide.
  for (uint64_t max_gap : {uint64_t{4}, uint64_t{1000}, uint64_t{1} << 40}) {
    std::vector<int64_t> gaps;
    int64_t v = -(int64_t{1} << 50);
    for (int i = 0; i < 30000; ++i) {
      v += 1 + static_cast<int64_t>(rng.Uniform(max_gap));
      gaps.push_back(v);
    }
    check(gaps);
  }

  // Doubles spanning binades: residuals past 32 bits, so raw-key pages.
  std::vector<double> binades;
  for (int i = 0; i < 3000; ++i) {
    const double m = 1.0 + static_cast<double>(rng.Uniform(1 << 20)) /
                               static_cast<double>(1 << 20);
    const double x = std::ldexp(m, static_cast<int>(rng.Uniform(2000)) - 1000);
    binades.push_back(rng.Uniform(2) == 0 ? x : -x);
  }
  binades = SortedUnique(binades);
  d = check(binades);
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->page_count(), 1u);
  const uint64_t raw_n = d->values_per_page();

  // Sizes at N - 1, N and N + 1, N being the count per page of a
  // multi-page dictionary: one page, one page, two pages.
  std::vector<int64_t> ramp(120000);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<int64_t>(i);
  d = check(ramp);
  ASSERT_NE(d, nullptr);
  const uint64_t dense_n = d->values_per_page();
  for (uint64_t delta : {0, 1, 2}) {
    std::vector<int64_t> ints(ramp.begin(), ramp.begin() + dense_n - 1 + delta);
    d = check(ints);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->page_count(), delta < 2 ? 1u : 2u) << ints.size();
    std::vector<double> raw(binades.begin(),
                            binades.begin() + raw_n - 1 + delta);
    d = check(raw);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->page_count(), delta < 2 ? 1u : 2u) << raw.size();
  }
}

// The dictionary chain's page size is derived: a dictionary that fits one
// page gets the smallest power of two >= 4 KiB that holds it, a larger one
// pages of the store's page size.
TEST_F(PagedTest, NumericDictionaryPageSizeIsDerived) {
  StorageOptions opts;
  opts.page_size = 64 * 1024;
  auto sm = StorageManager::Open(dir_ + "/big", opts);
  ASSERT_TRUE(sm.ok());
  auto pages_of = [&](const std::vector<int64_t>& values) {
    auto dict = BuildNumericDict(sm->get(), rm_.get(), "sz", values);
    EXPECT_TRUE(dict.ok());
    return dict.ok() ? std::make_pair((*dict)->page_count(),
                                      (*dict)->page_size())
                     : std::make_pair(uint64_t{0}, uint32_t{0});
  };
  EXPECT_EQ(pages_of({7, 9}), std::make_pair(uint64_t{1}, 4096u));
  std::vector<int64_t> dense(50000);
  for (size_t i = 0; i < dense.size(); ++i) dense[i] = 5 * i;
  // 50,000 one-bit residuals: 6,264 bytes.
  EXPECT_EQ(pages_of(dense), std::make_pair(uint64_t{1}, 8192u));
  Random rng(5);
  std::vector<int64_t> wide;
  int64_t v = 0;
  for (int i = 0; i < 50000; ++i) {
    v += 1 + static_cast<int64_t>(rng.Uniform(uint64_t{1} << 30));
    wide.push_back(v);
  }
  const auto [pages, size] = pages_of(wide);
  EXPECT_GT(pages, 1u);
  EXPECT_EQ(size, opts.page_size);
}

// One iterator pins each dictionary page once, however many lookups land
// on it.
TEST_F(PagedTest, NumericDictionaryIteratorPinsEachPageOnce) {
  std::vector<int64_t> values;
  Random rng(31);
  int64_t v = 0;
  for (int i = 0; i < 100000; ++i) {
    v += 1 + static_cast<int64_t>(rng.Uniform(3));
    values.push_back(v);
  }
  auto dict = BuildNumericDict(storage_.get(), rm_.get(), "pins", values);
  ASSERT_TRUE(dict.ok());
  const uint64_t pages = (*dict)->page_count();
  ASSERT_GT(pages, 2u);
  PagedNumericDictionaryIterator it(dict->get());
  for (int i = 0; i < 5000; ++i) {
    const auto vid = static_cast<ValueId>(rng.Uniform(values.size()));
    auto got = it.GetValue(vid);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->AsInt64(), values[vid]);
    auto lb = it.LowerBound(Value(values[vid]));
    ASSERT_TRUE(lb.ok());
    ASSERT_EQ(*lb, vid);
  }
  EXPECT_EQ(it.pages_touched(), pages);
  EXPECT_EQ((*dict)->cache()->loaded_page_count(), pages);
}

// A numeric fragment reopened from its chains answers every dictionary
// entry point as the one built.
TEST_F(PagedTest, PagedNumericFragmentReopenAnswersAsBuilt) {
  Random rng(77);
  std::vector<Value> ints, doubles;
  int64_t v = -100000;
  for (int i = 0; i < 40000; ++i) {
    v += 1 + static_cast<int64_t>(rng.Uniform(9));
    ints.emplace_back(v);
    doubles.emplace_back(0.25 * static_cast<double>(v));
  }
  auto vids = RandomVids(30000, ints.size(), 78);
  for (const auto* values : {&ints, &doubles}) {
    const ValueType type = (*values)[0].type();
    const std::string name = type == ValueType::kInt64 ? "re_i" : "re_d";
    {
      auto built = PagedFragment::Build(storage_.get(), rm_.get(),
                                        PoolId::kPagedPool, name,
                                        ToValueArray(type, *values), vids,
                                        true);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
    }
    auto frag = PagedFragment::Open(storage_.get(), rm_.get(),
                                    PoolId::kPagedPool, name);
    ASSERT_TRUE(frag.ok()) << frag.status().ToString();
    EXPECT_EQ((*frag)->type(), type);
    EXPECT_EQ((*frag)->dict_size(), values->size());
    auto reader = (*frag)->NewReader();
    ASSERT_TRUE(reader.ok());
    ValueArray all = MakeValueArray(type);
    ASSERT_TRUE((*reader)->MGetValues(0, values->size(), &all).ok());
    EXPECT_EQ(ToValues(all), *values);
    for (int i = 0; i < 200; ++i) {
      const auto vid = static_cast<ValueId>(rng.Uniform(values->size()));
      auto got = (*reader)->GetValueForVid(vid);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, (*values)[vid]);
      auto found = (*reader)->FindValueId((*values)[vid]);
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, vid);
      auto ub = (*reader)->UpperBoundVid((*values)[vid]);
      ASSERT_TRUE(ub.ok());
      EXPECT_EQ(*ub, vid + 1);
    }
    std::vector<RowPos> rows;
    ASSERT_TRUE((*reader)->FindRows(vids[0], &rows).ok());
    EXPECT_FALSE(rows.empty());
  }
}

// A meta chain written before numeric dictionaries were paged has no
// version byte: u8 type, u8 index mode, u64 rows, u64 dictionary size,
// then the dictionary as raw 8-byte values. It opens through those values,
// and the paged chain is rebuilt from them.
TEST_F(PagedTest, LegacyNumericMetaOpensThroughItsEmbeddedValues) {
  std::vector<Value> ints, doubles;
  for (int64_t i = 0; i < 3000; ++i) {
    ints.emplace_back(i * i - 1000);
    doubles.emplace_back(-1.5 + 0.001 * static_cast<double>(i * i));
  }
  auto vids = RandomVids(20000, ints.size(), 90);
  const uint32_t page_size = storage_->options().page_size;
  for (const auto* values : {&ints, &doubles}) {
    const ValueType type = (*values)[0].type();
    const std::string name = type == ValueType::kInt64 ? "leg_i" : "leg_d";
    {
      auto built = PagedFragment::Build(storage_.get(), rm_.get(),
                                        PoolId::kPagedPool, name,
                                        ToValueArray(type, *values), vids,
                                        true);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
    }
    {
      auto file = storage_->CreateChain(name + ".pmeta", page_size);
      ASSERT_TRUE(file.ok());
      ChainByteWriter w(file->get());
      w.PutU8(static_cast<uint8_t>(type));
      w.PutU8(static_cast<uint8_t>(PagedFragment::IndexMode::kEager));
      w.PutU64(vids.size());
      w.PutU64(values->size());
      for (const Value& v : *values) {
        if (type == ValueType::kInt64) {
          w.PutI64(v.AsInt64());
        } else {
          w.PutDouble(v.AsDouble());
        }
      }
      ASSERT_TRUE(w.Finish().ok());
    }
    ASSERT_TRUE(storage_->DropChain(name + ".ndict").ok());

    auto frag = PagedFragment::Open(storage_.get(), rm_.get(),
                                    PoolId::kPagedPool, name);
    ASSERT_TRUE(frag.ok()) << frag.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + name + ".ndict"));
    EXPECT_EQ((*frag)->row_count(), vids.size());
    EXPECT_TRUE((*frag)->has_index());
    auto reader = (*frag)->NewReader();
    ASSERT_TRUE(reader.ok());
    ValueArray all = MakeValueArray(type);
    ASSERT_TRUE((*reader)->MGetValues(0, values->size(), &all).ok());
    EXPECT_EQ(ToValues(all), *values);
    for (ValueId vid : {0u, 1u, 1499u, 2999u}) {
      auto found = (*reader)->FindValueId((*values)[vid]);
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, vid);
    }
    std::vector<RowPos> rows, expect;
    ASSERT_TRUE((*reader)->FindRows(42, &rows).ok());
    for (RowPos r = 0; r < vids.size(); ++r) {
      if (vids[r] == 42u) expect.push_back(r);
    }
    EXPECT_EQ(rows, expect);
  }
}

// The meta chain of a paged numeric fragment, field by field.
struct NumericMetaImage {
  uint8_t version = 0;
  uint8_t type = 0;
  uint8_t index_mode = 0;
  uint64_t rows = 0;
  uint64_t dict_size = 0;
  uint32_t page_size = 0;
  uint64_t values_per_page = 0;
  std::vector<uint64_t> fence;  // base, stride of every page
};

Result<NumericMetaImage> ReadNumericMeta(StorageManager* storage,
                                         const std::string& name) {
  PAYG_ASSIGN_OR_RETURN(
      auto file, storage->OpenChain(name + ".pmeta",
                                    storage->options().page_size));
  ChainByteReader r(file.get());
  NumericMetaImage m;
  PAYG_ASSIGN_OR_RETURN(m.version, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(m.type, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(m.index_mode, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(m.rows, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(m.dict_size, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(m.page_size, r.GetU32());
  PAYG_ASSIGN_OR_RETURN(m.values_per_page, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(uint64_t pages, r.GetU64());
  m.fence.resize(2 * pages);
  for (uint64_t& word : m.fence) {
    PAYG_ASSIGN_OR_RETURN(word, r.GetU64());
  }
  return m;
}

Status WriteNumericMeta(StorageManager* storage, const std::string& name,
                        const NumericMetaImage& m) {
  PAYG_ASSIGN_OR_RETURN(
      auto file, storage->CreateChain(name + ".pmeta",
                                      storage->options().page_size));
  ChainByteWriter w(file.get());
  w.PutU8(m.version);
  w.PutU8(m.type);
  w.PutU8(m.index_mode);
  w.PutU64(m.rows);
  w.PutU64(m.dict_size);
  w.PutU32(m.page_size);
  w.PutU64(m.values_per_page);
  w.PutU64(m.fence.size() / 2);
  for (uint64_t word : m.fence) w.PutU64(word);
  return w.Finish();
}

class PagedNumericCorruptionTest : public PagedTest {
 protected:
  // A multi-page int64 fragment "nc" and its meta image.
  void SetUp() override {
    PagedTest::SetUp();
    for (int64_t i = 0; i < 80000; ++i) values_.emplace_back(i * 5 + i % 3);
    auto frag = PagedFragment::Build(
        storage_.get(), rm_.get(), PoolId::kPagedPool, "nc",
        ToValueArray(ValueType::kInt64, values_),
        RandomVids(1000, values_.size(), 3), false);
    ASSERT_TRUE(frag.ok()) << frag.status().ToString();
    auto meta = ReadNumericMeta(storage_.get(), "nc");
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    meta_ = *meta;
    ASSERT_GE(meta_.fence.size(), 4u);  // at least two pages
  }

  // Rewrites dictionary page `lpn` after `edit` changed it (the checksum
  // is sealed again, so only the edited field is wrong).
  void EditPage(LogicalPageNo lpn, const std::function<void(Page*)>& edit) {
    auto file = storage_->OpenChain("nc.ndict", meta_.page_size);
    ASSERT_TRUE(file.ok());
    Page page(meta_.page_size);
    ASSERT_TRUE((*file)->ReadPage(lpn, &page).ok());
    edit(&page);
    ASSERT_TRUE((*file)->WritePage(lpn, &page).ok());
  }

  // The status of opening "nc" and looking up the first vid of page 1.
  Status OpenAndLookUp() {
    PAYG_ASSIGN_OR_RETURN(auto frag,
                          PagedFragment::Open(storage_.get(), rm_.get(),
                                              PoolId::kPagedPool, "nc"));
    PAYG_ASSIGN_OR_RETURN(auto reader, frag->NewReader());
    const auto vid = static_cast<ValueId>(meta_.values_per_page);
    PAYG_ASSIGN_OR_RETURN(Value v, reader->GetValueForVid(vid));
    if (v != values_[vid]) return Status::Internal("wrong value");
    PAYG_ASSIGN_OR_RETURN(ValueId found, reader->FindValueId(values_[vid]));
    if (found != vid) return Status::Internal("wrong vid");
    return Status::OK();
  }

  void ExpectCorruption() {
    const Status s = OpenAndLookUp();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }

  std::vector<Value> values_;
  NumericMetaImage meta_;
};

TEST_F(PagedNumericCorruptionTest, IntactChainsAnswer) {
  EXPECT_TRUE(OpenAndLookUp().ok());
}

TEST_F(PagedNumericCorruptionTest, FenceOutOfOrder) {
  std::swap(meta_.fence[0], meta_.fence[2]);
  ASSERT_TRUE(WriteNumericMeta(storage_.get(), "nc", meta_).ok());
  ExpectCorruption();
}

TEST_F(PagedNumericCorruptionTest, WidthOutOfRange) {
  EditPage(1, [](Page* p) { p->header()->aux2 = 33; });
  ExpectCorruption();
}

TEST_F(PagedNumericCorruptionTest, CountAboveValuesPerPage) {
  const uint64_t n = meta_.values_per_page;
  EditPage(1, [n](Page* p) {
    p->header()->aux = static_cast<uint32_t>(n + 1);
  });
  ExpectCorruption();
}

TEST_F(PagedNumericCorruptionTest, ShortPayload) {
  EditPage(1, [](Page* p) { p->set_payload_size(p->payload_size() / 2); });
  ExpectCorruption();
}

TEST_F(PagedNumericCorruptionTest, PageCountDisagreesWithDictionarySize) {
  meta_.dict_size += meta_.values_per_page;
  ASSERT_TRUE(WriteNumericMeta(storage_.get(), "nc", meta_).ok());
  ExpectCorruption();
}

TEST_F(PagedNumericCorruptionTest, UnknownMetaVersion) {
  meta_.version = 0x82;
  ASSERT_TRUE(WriteNumericMeta(storage_.get(), "nc", meta_).ok());
  ExpectCorruption();
}

// ---------------------------------------------------------------------------
// PagedFragment end-to-end
// ---------------------------------------------------------------------------

TEST_F(PagedTest, PagedFragmentNumericColumn) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 200; ++i) dict_values.emplace_back(i * 7);
  auto vids = RandomVids(40000, 200, 17);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf1",
                                   dict_values, vids, true);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_TRUE((*frag)->is_paged());
  EXPECT_TRUE((*frag)->has_index());

  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto vid = (*reader)->GetVid(1234);
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, vids[1234]);
  auto val = (*reader)->GetValueForVid(*vid);
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val->AsInt64(), static_cast<int64_t>(vids[1234]) * 7);

  auto found = (*reader)->FindValueId(Value(int64_t{70}));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 10u);
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(10, &rows).ok());
  for (RowPos r : rows) EXPECT_EQ(vids[r], 10u);
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 10u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(PagedTest, PagedFragmentStringColumn) {
  auto strings = MakeSortedStrings(800);
  auto vids = RandomVids(20000, 800, 18);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf2",
                                   strings, vids, false);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  auto vid = (*reader)->GetVid(9999);
  ASSERT_TRUE(vid.ok());
  auto val = (*reader)->GetValueForVid(*vid);
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val->AsString(), strings[*vid]);
  auto found = (*reader)->FindValueId(Value(strings[123]));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 123u);
  // Without an index FindRows falls back to an Alg.-1 data vector scan.
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(123, &rows).ok());
  for (RowPos r : rows) EXPECT_EQ(vids[r], 123u);
}

TEST_F(PagedTest, PagedFragmentResidentBytesTrackLoads) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 100; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(100000, 100, 19);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf3",
                                   dict_values, vids, false);
  ASSERT_TRUE(frag.ok());
  (*frag)->Unload();
  uint64_t before = (*frag)->ResidentBytes();
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->GetVid(0).ok());
  // One data page + the numeric dictionary.
  EXPECT_GT((*frag)->ResidentBytes(), before);
  uint64_t partial = (*frag)->ResidentBytes();
  // Touch a far row: one more page.
  ASSERT_TRUE((*reader)->GetVid(static_cast<RowPos>(vids.size() - 1)).ok());
  EXPECT_GT((*frag)->ResidentBytes(), partial);
}

// A paged int64 column registers its dictionary page by page. A new
// reader registers nothing, one lookup registers one dictionary page, and
// every vid of a 20,000-entry 3i dictionary (stride 3, so every residual
// is 0 and the whole dictionary packs into one 4 KiB page) still one page.
TEST_F(PagedTest, PagedNumericDictionaryRegistersOnePageNotTheDictionary) {
  constexpr uint64_t kEntries = 20000;
  std::vector<int64_t> dict_values;
  for (uint64_t i = 0; i < kEntries; ++i) {
    dict_values.push_back(static_cast<int64_t>(i * 3));
  }
  auto vids = RandomVids(64, kEntries, 23);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf_mem",
                                   dict_values, vids, false);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  PagedNumericDictionary* dict = (*frag)->numeric_dictionary();
  ASSERT_NE(dict, nullptr);
  EXPECT_EQ(dict->page_count(), 1u);
  EXPECT_EQ(dict->page_size(), 4096u);
  (*frag)->Unload();
  const uint64_t before = rm_->total_bytes();
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(rm_->total_bytes() - before, 0u);
  auto value = (*reader)->GetValueForVid(kEntries - 1);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsInt64(), static_cast<int64_t>((kEntries - 1) * 3));
  EXPECT_EQ(rm_->total_bytes() - before, dict->page_size());
  for (ValueId vid = 0; vid < kEntries; ++vid) {
    auto v = (*reader)->GetValueForVid(vid);
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(v->AsInt64(), static_cast<int64_t>(vid) * 3);
  }
  EXPECT_EQ(rm_->total_bytes() - before, dict->page_size());
  EXPECT_EQ((*frag)->ResidentBytes(), dict->page_size());
}

TEST_F(PagedTest, PagedFragmentUnloadDropsEverything) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 100; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(50000, 100, 20);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf4",
                                   dict_values, vids, true);
  ASSERT_TRUE(frag.ok());
  {
    auto reader = (*frag)->NewReader();
    ASSERT_TRUE(reader.ok());
    ASSERT_TRUE((*reader)->GetVid(5).ok());
    std::vector<RowPos> rows;
    ASSERT_TRUE((*reader)->FindRows(3, &rows).ok());
  }
  EXPECT_GT((*frag)->ResidentBytes(), 0u);
  (*frag)->Unload();
  EXPECT_EQ((*frag)->ResidentBytes(), 0u);
  EXPECT_EQ(rm_->pool_bytes(PoolId::kPagedPool), 0u);
}

TEST_F(PagedTest, PagedFragmentReopen) {
  auto strings = MakeSortedStrings(500);
  auto vids = RandomVids(10000, 500, 21);
  {
    auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "pf5",
                                     strings, vids, true);
    ASSERT_TRUE(frag.ok());
  }
  auto frag = PagedFragment::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "pf5");
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_EQ((*frag)->row_count(), 10000u);
  EXPECT_EQ((*frag)->dict_size(), 500u);
  EXPECT_TRUE((*frag)->has_index());
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(77, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 77u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(PagedTest, FragmentFactoryDispatches) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 10; ++i) dict_values.emplace_back(i);
  std::vector<ValueId> vids{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  FragmentSpec paged_spec{.page_loadable = true, .with_index = false,
                          .pool = PoolId::kColdPagedPool};
  auto paged = BuildMainFragment(storage_.get(), rm_.get(), "ff1",
                                 dict_values, vids, paged_spec);
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE((*paged)->is_paged());
  FragmentSpec resident_spec{.page_loadable = false, .with_index = true,
                             .pool = PoolId::kGeneral};
  auto resident = BuildMainFragment(storage_.get(), rm_.get(), "ff2",
                                    dict_values, vids, resident_spec);
  ASSERT_TRUE(resident.ok());
  EXPECT_FALSE((*resident)->is_paged());
}

// ---------------------------------------------------------------------------
// Min/max page summary (§3.3's alternative to the inverted index)
// ---------------------------------------------------------------------------

TEST_F(PagedTest, SummaryPrunesPagesOnClusteredData) {
  // Values correlate with row order → per-page [min,max] ranges are compact
  // and most pages can be skipped without loading.
  std::vector<ValueId> vids(100000);
  for (size_t i = 0; i < vids.size(); ++i) {
    vids[i] = static_cast<ValueId>(i / 100);  // 1000 distinct, clustered
  }
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "sum1", vids);
  ASSERT_TRUE(dv.ok());
  PagedDataVectorIterator it(dv->get());
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(vids.size()), 500, &rows)
                  .ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 500u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
  EXPECT_GT(it.pages_pruned(), 0u);
  // Only the page(s) containing vid 500 were physically loaded.
  EXPECT_LE(it.pages_touched(), 2u);
  EXPECT_EQ(it.pages_pruned() + it.pages_touched(),
            (*dv)->data_page_count());
}

TEST_F(PagedTest, SummaryNeverPrunesMatchingPages) {
  // Random data: summary ranges cover everything, nothing can be pruned,
  // and results must stay identical with the summary on and off.
  auto vids = RandomVids(50000, 40, 23);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "sum2", vids);
  ASSERT_TRUE(dv.ok());
  std::vector<RowPos> with_summary, without_summary;
  {
    PagedDataVectorIterator it(dv->get());
    ASSERT_TRUE(
        it.SearchRange(0, static_cast<RowPos>(vids.size()), 5, 9,
                       &with_summary)
            .ok());
  }
  {
    PagedDataVectorIterator it(dv->get());
    it.set_use_summary(false);
    ASSERT_TRUE(
        it.SearchRange(0, static_cast<RowPos>(vids.size()), 5, 9,
                       &without_summary)
            .ok());
    EXPECT_EQ(it.pages_pruned(), 0u);
  }
  EXPECT_EQ(with_summary, without_summary);
}

TEST_F(PagedTest, SummarySurvivesReopen) {
  std::vector<ValueId> vids(50000);
  for (size_t i = 0; i < vids.size(); ++i) {
    vids[i] = static_cast<ValueId>(i / 500);
  }
  {
    auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "sum3", vids);
    ASSERT_TRUE(dv.ok());
  }
  auto dv = PagedDataVector::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "sum3");
  ASSERT_TRUE(dv.ok());
  PagedDataVectorIterator it(dv->get());
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(vids.size()), 42, &rows)
                  .ok());
  EXPECT_EQ(rows.size(), 500u);
  EXPECT_GT(it.pages_pruned(), 0u);
}

TEST_F(PagedTest, SummaryEvictionIsTransparent) {
  std::vector<ValueId> vids(50000);
  for (size_t i = 0; i < vids.size(); ++i) {
    vids[i] = static_cast<ValueId>(i / 500);
  }
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "sum4", vids);
  ASSERT_TRUE(dv.ok());
  {
    PagedDataVectorIterator it(dv->get());
    std::vector<RowPos> rows;
    ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(vids.size()), 3, &rows)
                    .ok());
  }
  // Evict everything (including the summary resource), then search again.
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 1});
  rm_->SweepNow();
  rm_->SetPoolLimits(PoolId::kPagedPool, {0, 0});
  PagedDataVectorIterator it(dv->get());
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(vids.size()), 3, &rows).ok());
  EXPECT_EQ(rows.size(), 500u);
}

// ---------------------------------------------------------------------------
// Deferred (workload-driven) index rebuild — §8
// ---------------------------------------------------------------------------

TEST_F(PagedTest, DeferredIndexBuildsAfterThreshold) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 50; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(30000, 50, 31);
  auto frag = PagedFragment::Build(
      storage_.get(), rm_.get(), PoolId::kPagedPool, "def1", dict_values,
      vids, PagedFragment::IndexMode::kDeferred, /*index_build_threshold=*/3);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_FALSE((*frag)->has_index());  // nothing built at merge time

  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 7u) expect.push_back(r);
  }
  // Lookups 1 and 2 are served by the Alg.-1 scan.
  for (int i = 0; i < 2; ++i) {
    std::vector<RowPos> rows;
    ASSERT_TRUE((*reader)->FindRows(7, &rows).ok());
    EXPECT_EQ(rows, expect);
    EXPECT_FALSE((*frag)->has_index());
  }
  // Lookup 3 crosses the threshold: the index is rebuilt from the data
  // vector and used from then on.
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(7, &rows).ok());
  EXPECT_EQ(rows, expect);
  EXPECT_TRUE((*frag)->has_index());
  EXPECT_EQ((*frag)->point_lookup_count(), 3u);
}

TEST_F(PagedTest, DeferredIndexPersistsAcrossReopen) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 20; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(10000, 20, 32);
  {
    auto frag = PagedFragment::Build(
        storage_.get(), rm_.get(), PoolId::kPagedPool, "def2", dict_values,
        vids, PagedFragment::IndexMode::kDeferred, /*index_build_threshold=*/1);
    ASSERT_TRUE(frag.ok());
    auto reader = (*frag)->NewReader();
    ASSERT_TRUE(reader.ok());
    std::vector<RowPos> rows;
    ASSERT_TRUE((*reader)->FindRows(5, &rows).ok());
    EXPECT_TRUE((*frag)->has_index());
  }
  // Reopen: the lazily built index chain is found and used immediately.
  auto frag = PagedFragment::Open(storage_.get(), rm_.get(),
                                  PoolId::kPagedPool, "def2");
  ASSERT_TRUE(frag.ok());
  EXPECT_TRUE((*frag)->has_index());
  EXPECT_EQ((*frag)->index_mode(), PagedFragment::IndexMode::kDeferred);
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(5, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 5u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(PagedTest, RebuildIndexNowIsIdempotent) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 10; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(5000, 10, 33);
  auto frag = PagedFragment::Build(
      storage_.get(), rm_.get(), PoolId::kPagedPool, "def3", dict_values,
      vids, PagedFragment::IndexMode::kDeferred, /*index_build_threshold=*/100);
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE((*frag)->RebuildIndexNow().ok());
  ASSERT_TRUE((*frag)->RebuildIndexNow().ok());
  EXPECT_TRUE((*frag)->has_index());
}

// ---------------------------------------------------------------------------
// Page readahead
// ---------------------------------------------------------------------------

TEST_F(PagedTest, PrefetchCountersReconcileAfterSequentialScan) {
  CacheCounters counters;
  auto vids = RandomVids(100000, 500, 71);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "ra1", vids);
  ASSERT_TRUE(dv.ok());
  ASSERT_GT((*dv)->data_page_count(), 4u);

  ExecContext ctx;
  PagedDataVectorIterator it(dv->get(), &ctx);
  it.set_readahead(2);
  std::vector<ValueId> out;
  ASSERT_TRUE(it.MGet(0, static_cast<RowPos>(vids.size()), &out).ok());
  EXPECT_EQ(out, vids);  // readahead must not change results

  PageCache* cache = (*dv)->cache();
  cache->WaitForPrefetchIdle();
  // Invariant: issued == hits + wasted + inflight, and after the idle wait
  // inflight == 0.
  EXPECT_GT(counters.prefetch_issued(), 0u);
  EXPECT_EQ(counters.prefetch_issued(),
            counters.prefetch_hits() + counters.prefetch_wasted() +
                cache->prefetch_inflight_count());
  // Sequential scan with an unconstrained pool: everything we asked for
  // should have been used.
  EXPECT_GT(counters.prefetch_hits(), 0u);
  // The issue (not the background read) is attributed to the query.
  EXPECT_EQ(ctx.stats.prefetch_issued.load(), counters.prefetch_issued());
  EXPECT_EQ(ctx.stats.prefetch_hits.load(), counters.prefetch_hits());
}

TEST_F(PagedTest, ReadaheadZeroIssuesNoPrefetch) {
  CacheCounters counters;
  auto vids = RandomVids(60000, 300, 72);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "ra2", vids);
  ASSERT_TRUE(dv.ok());
  PagedDataVectorIterator it(dv->get());
  it.set_readahead(0);
  std::vector<ValueId> out;
  ASSERT_TRUE(it.MGet(0, static_cast<RowPos>(vids.size()), &out).ok());
  EXPECT_EQ(out, vids);
  EXPECT_EQ(counters.prefetch_issued(), 0u);
}

TEST_F(PagedTest, PrefetchedPageCountsAsHitOnFirstTouch) {
  CacheCounters counters;
  auto vids = RandomVids(60000, 300, 73);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "ra3", vids);
  ASSERT_TRUE(dv.ok());
  PageCache* cache = (*dv)->cache();

  cache->PrefetchRange(1, 1);
  cache->WaitForPrefetchIdle();
  EXPECT_TRUE(cache->IsLoaded(1));
  EXPECT_EQ(counters.prefetch_issued(), 1u);
  EXPECT_EQ(counters.prefetch_hits(), 0u);

  auto ref = cache->GetPage(1);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(counters.prefetch_hits(), 1u);
  ref->Release();

  // Only the first touch is a prefetch hit; later pins are ordinary hits.
  auto again = cache->GetPage(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(counters.prefetch_hits(), 1u);
  again->Release();

  // Re-prefetching a resident page is a no-op.
  cache->PrefetchRange(1, 1);
  EXPECT_EQ(counters.prefetch_issued(), 1u);
}

TEST_F(PagedTest, UntouchedPrefetchCountsAsWastedOnDrop) {
  CacheCounters counters;
  auto vids = RandomVids(60000, 300, 74);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "ra4", vids);
  ASSERT_TRUE(dv.ok());
  PageCache* cache = (*dv)->cache();

  cache->PrefetchRange(1, 1);
  cache->PrefetchRange(2, 1);
  cache->WaitForPrefetchIdle();
  (*dv)->Unload();
  EXPECT_EQ(counters.prefetch_issued(), 2u);
  EXPECT_EQ(counters.prefetch_wasted(), 2u);
  EXPECT_EQ(counters.prefetch_issued(),
            counters.prefetch_hits() + counters.prefetch_wasted() +
                cache->prefetch_inflight_count());
}

TEST_F(PagedTest, PrefetchRangeBatchesDedupAndReconcile) {
  CacheCounters counters;
  auto vids = RandomVids(100000, 500, 75);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "ra5", vids);
  ASSERT_TRUE(dv.ok());
  ASSERT_GT((*dv)->data_page_count(), 6u);
  PageCache* cache = (*dv)->cache();

  // One batched submission covering pages 1..4 of the chain.
  ExecContext ctx;
  cache->PrefetchRange(1, 4, &ctx);
  EXPECT_EQ(counters.prefetch_issued(), 4u);
  EXPECT_EQ(ctx.stats.io_batches.load(), 1u);
  cache->WaitForPrefetchIdle();
  for (LogicalPageNo lpn = 1; lpn <= 4; ++lpn) {
    EXPECT_TRUE(cache->IsLoaded(lpn)) << "lpn " << lpn;
  }

  // Overlapping range: resident pages drop out, only 5 and 6 are issued.
  cache->PrefetchRange(1, 6, &ctx);
  cache->WaitForPrefetchIdle();
  EXPECT_EQ(counters.prefetch_issued(), 6u);
  EXPECT_EQ(ctx.stats.io_batches.load(), 2u);

  // Fully-covered range: nothing left to issue, no batch submitted.
  cache->PrefetchRange(2, 3, &ctx);
  EXPECT_EQ(counters.prefetch_issued(), 6u);
  EXPECT_EQ(ctx.stats.io_batches.load(), 2u);

  // A range reaching past the end of the chain is clamped to page_count.
  const LogicalPageNo last = cache->file()->page_count() - 1;
  cache->PrefetchRange(last, 1000, &ctx);
  cache->WaitForPrefetchIdle();
  EXPECT_EQ(counters.prefetch_issued(), 7u);

  // Batched prefetches count as prefetch hits on first touch like any
  // other prefetch; once every issued page is touched the accounting
  // invariant issued == hits + wasted + inflight reconciles exactly.
  for (LogicalPageNo lpn : {LogicalPageNo{1}, LogicalPageNo{2},
                            LogicalPageNo{3}, LogicalPageNo{4},
                            LogicalPageNo{5}, LogicalPageNo{6}, last}) {
    auto ref = cache->GetPage(lpn);
    ASSERT_TRUE(ref.ok()) << "lpn " << lpn;
    ref->Release();
  }
  EXPECT_EQ(counters.prefetch_hits(), 7u);
  EXPECT_EQ(counters.prefetch_issued(),
            counters.prefetch_hits() + counters.prefetch_wasted() +
                cache->prefetch_inflight_count());
}

TEST_F(PagedTest, IndexIteratorPrefetchesAcrossPostingPages) {
  CacheCounters counters;
  // One vid dominating the column makes its postinglist span several pages.
  std::vector<ValueId> vids(120000, 3);
  for (size_t i = 0; i < vids.size(); i += 100) {
    vids[i] = static_cast<ValueId>(1 + (i / 100) % 2 * 4);
  }
  auto idx = PagedInvertedIndex::Build(storage_.get(), rm_.get(),
                                       PoolId::kPagedPool, "rai", vids, 8);
  ASSERT_TRUE(idx.ok());
  PagedIndexIterator it(idx->get());
  it.set_readahead(2);
  std::vector<RowPos> rows;
  ASSERT_TRUE(it.Lookup(3, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 3) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);

  PageCache* cache = (*idx)->cache();
  cache->WaitForPrefetchIdle();
  EXPECT_GT(counters.prefetch_issued(), 0u);
  EXPECT_EQ(counters.prefetch_issued(),
            counters.prefetch_hits() + counters.prefetch_wasted() +
                cache->prefetch_inflight_count());
}

TEST_F(PagedTest, ColdPoolPagesAreAccountedSeparately) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 50; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(50000, 50, 22);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kColdPagedPool, "cold1",
                                   dict_values, vids, false);
  ASSERT_TRUE(frag.ok());
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->GetVid(0).ok());
  EXPECT_GT(rm_->pool_bytes(PoolId::kColdPagedPool), 0u);
  EXPECT_EQ(rm_->pool_bytes(PoolId::kPagedPool), 0u);
}

}  // namespace
}  // namespace payg
