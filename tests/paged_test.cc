#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "counter_delta.h"
#include "exec/exec_context.h"
#include "paged/fragment_factory.h"
#include "paged/page_cache.h"
#include "paged/paged_data_vector.h"
#include "paged/paged_dictionary.h"
#include "paged/paged_fragment.h"
#include "paged/paged_inverted_index.h"

namespace payg {
namespace {

class PagedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/payg_paged_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
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
// what the per-vid read returns, for every value type.
TEST_F(PagedTest, FragmentMGetValuesMatchesGetValueForVid) {
  std::vector<std::vector<Value>> dicts(3);
  for (int64_t i = 0; i < 700; ++i) {
    dicts[0].emplace_back(i * 3 - 1000);
    dicts[1].emplace_back(static_cast<double>(i) * 0.5 - 100.0);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05lld", static_cast<long long>(i));
    dicts[2].emplace_back(std::string(buf));
  }
  const ValueType types[] = {ValueType::kInt64, ValueType::kDouble,
                             ValueType::kString};
  const std::vector<ValueId> vids = RandomVids(3000, 700, 5);
  int n = 0;
  for (int t = 0; t < 3; ++t) {
    for (bool paged : {false, true}) {
      SCOPED_TRACE(std::string(ValueTypeName(types[t])) +
                   (paged ? " paged" : " resident"));
      FragmentSpec spec{.page_loadable = paged};
      auto frag = BuildMainFragment(storage_.get(), rm_.get(),
                                    "fmv" + std::to_string(n++), types[t],
                                    dicts[t], vids, spec);
      ASSERT_TRUE(frag.ok()) << frag.status().ToString();
      auto reader = (*frag)->NewReader();
      ASSERT_TRUE(reader.ok());
      std::vector<Value> all;
      ASSERT_TRUE((*reader)->MGetValues(0, 700, &all).ok());
      EXPECT_EQ(all, dicts[t]);
      std::vector<Value> part;
      ASSERT_TRUE((*reader)->MGetValues(250, 263, &part).ok());
      ASSERT_EQ(part.size(), 13u);
      for (ValueId v = 250; v < 263; ++v) {
        auto one = (*reader)->GetValueForVid(v);
        ASSERT_TRUE(one.ok());
        EXPECT_EQ(part[v - 250], *one);
      }
      EXPECT_EQ((*reader)->MGetValues(0, 701, &part).code(),
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
// PagedFragment end-to-end
// ---------------------------------------------------------------------------

TEST_F(PagedTest, PagedFragmentNumericColumn) {
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 200; ++i) dict_values.emplace_back(i * 7);
  auto vids = RandomVids(40000, 200, 17);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf1",
                                   ValueType::kInt64, dict_values, vids, true);
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
  std::vector<Value> dict_values;
  for (const auto& s : strings) dict_values.emplace_back(s);
  auto vids = RandomVids(20000, 800, 18);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf2",
                                   ValueType::kString, dict_values, vids,
                                   false);
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
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 100; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(100000, 100, 19);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf3",
                                   ValueType::kInt64, dict_values, vids,
                                   false);
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

// The whole-loaded numeric dictionary of a paged int64 column registers
// 8 bytes per entry, not a Value's 40.
TEST_F(PagedTest, PagedNumericDictionaryRegistersEightBytesPerEntry) {
  constexpr uint64_t kEntries = 20000;
  std::vector<Value> dict_values;
  for (uint64_t i = 0; i < kEntries; ++i) {
    dict_values.emplace_back(static_cast<int64_t>(i * 3));
  }
  auto vids = RandomVids(64, kEntries, 23);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf_mem",
                                   ValueType::kInt64, dict_values, vids,
                                   false);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  (*frag)->Unload();
  const uint64_t before = rm_->total_bytes();
  auto reader = (*frag)->NewReader();  // pins the numeric dictionary
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const uint64_t registered = rm_->total_bytes() - before;
  EXPECT_GE(registered, 8 * kEntries);
  EXPECT_LE(registered, 8 * kEntries + 4096);
  auto value = (*reader)->GetValueForVid(kEntries - 1);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsInt64(), static_cast<int64_t>((kEntries - 1) * 3));
}

TEST_F(PagedTest, PagedFragmentUnloadDropsEverything) {
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 100; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(50000, 100, 20);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "pf4",
                                   ValueType::kInt64, dict_values, vids, true);
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
  std::vector<Value> dict_values;
  for (const auto& s : strings) dict_values.emplace_back(s);
  auto vids = RandomVids(10000, 500, 21);
  {
    auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, "pf5",
                                     ValueType::kString, dict_values, vids,
                                     true);
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
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 10; ++i) dict_values.emplace_back(i);
  std::vector<ValueId> vids{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  FragmentSpec paged_spec{.page_loadable = true, .with_index = false,
                          .pool = PoolId::kColdPagedPool};
  auto paged = BuildMainFragment(storage_.get(), rm_.get(), "ff1",
                                 ValueType::kInt64, dict_values, vids,
                                 paged_spec);
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE((*paged)->is_paged());
  FragmentSpec resident_spec{.page_loadable = false, .with_index = true,
                             .pool = PoolId::kGeneral};
  auto resident = BuildMainFragment(storage_.get(), rm_.get(), "ff2",
                                    ValueType::kInt64, dict_values, vids,
                                    resident_spec);
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
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 50; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(30000, 50, 31);
  auto frag = PagedFragment::Build(
      storage_.get(), rm_.get(), PoolId::kPagedPool, "def1",
      ValueType::kInt64, dict_values, vids,
      PagedFragment::IndexMode::kDeferred, /*index_build_threshold=*/3);
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
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 20; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(10000, 20, 32);
  {
    auto frag = PagedFragment::Build(
        storage_.get(), rm_.get(), PoolId::kPagedPool, "def2",
        ValueType::kInt64, dict_values, vids,
        PagedFragment::IndexMode::kDeferred, /*index_build_threshold=*/1);
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
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 10; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(5000, 10, 33);
  auto frag = PagedFragment::Build(
      storage_.get(), rm_.get(), PoolId::kPagedPool, "def3",
      ValueType::kInt64, dict_values, vids,
      PagedFragment::IndexMode::kDeferred, /*index_build_threshold=*/100);
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
  std::vector<Value> dict_values;
  for (int64_t i = 0; i < 50; ++i) dict_values.emplace_back(i);
  auto vids = RandomVids(50000, 50, 22);
  auto frag = PagedFragment::Build(storage_.get(), rm_.get(),
                                   PoolId::kColdPagedPool, "cold1",
                                   ValueType::kInt64, dict_values, vids,
                                   false);
  ASSERT_TRUE(frag.ok());
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->GetVid(0).ok());
  EXPECT_GT(rm_->pool_bytes(PoolId::kColdPagedPool), 0u);
  EXPECT_EQ(rm_->pool_bytes(PoolId::kPagedPool), 0u);
}

}  // namespace
}  // namespace payg
