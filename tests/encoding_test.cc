#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "encoding/bit_packing.h"
#include "encoding/sparse_vector.h"
#include "encoding/string_block.h"
#include "encoding/types.h"

namespace payg {
namespace {

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

// Property sweep over every bit width the data vector can use.
class BitPackingWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitPackingWidthTest, RoundtripRandomValues) {
  const uint32_t bits = GetParam();
  Random rng(bits);
  const uint64_t mask = LowMask(bits);
  std::vector<uint64_t> expect;
  PackedVector pv(bits);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Next() & mask;
    expect.push_back(v);
    pv.Append(v);
  }
  ASSERT_EQ(pv.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(pv.Get(i), expect[i]) << "i=" << i << " bits=" << bits;
  }
}

TEST_P(BitPackingWidthTest, MGetMatchesGet) {
  const uint32_t bits = GetParam();
  Random rng(bits * 7 + 1);
  const uint64_t mask = LowMask(bits);
  PackedVector pv(bits);
  for (int i = 0; i < 513; ++i) pv.Append(rng.Next() & mask);
  std::vector<uint32_t> out(pv.size());
  pv.MGet(0, pv.size(), out.data());
  for (uint64_t i = 0; i < pv.size(); ++i) {
    EXPECT_EQ(out[i], pv.Get(i));
  }
  // Unaligned sub-ranges.
  for (auto [from, to] : {std::pair<uint64_t, uint64_t>{1, 2},
                          {63, 65},
                          {100, 300},
                          {511, 513}}) {
    std::vector<uint32_t> sub(to - from);
    pv.MGet(from, to, sub.data());
    for (uint64_t i = from; i < to; ++i) EXPECT_EQ(sub[i - from], pv.Get(i));
  }
}

TEST_P(BitPackingWidthTest, SearchEqFindsExactlyMatchingPositions) {
  const uint32_t bits = GetParam();
  Random rng(bits * 13 + 5);
  const uint64_t domain = std::min<uint64_t>(LowMask(bits), 30) + 1;
  std::vector<uint64_t> values;
  PackedVector pv(bits);
  for (int i = 0; i < 700; ++i) {
    uint64_t v = rng.Uniform(domain);
    values.push_back(v);
    pv.Append(v);
  }
  const uint64_t probe = domain / 2;
  std::vector<RowPos> got;
  PackedSearchEq(pv.words(), bits, 0, pv.size(), probe, 0, &got);
  std::vector<RowPos> expect;
  for (RowPos i = 0; i < values.size(); ++i) {
    if (values[i] == probe) expect.push_back(i);
  }
  EXPECT_EQ(got, expect);
}

TEST_P(BitPackingWidthTest, SearchRangeMatchesScalarFilter) {
  const uint32_t bits = GetParam();
  Random rng(bits * 31 + 7);
  const uint64_t domain = std::min<uint64_t>(LowMask(bits), 100) + 1;
  std::vector<uint64_t> values;
  PackedVector pv(bits);
  for (int i = 0; i < 700; ++i) {
    uint64_t v = rng.Uniform(domain);
    values.push_back(v);
    pv.Append(v);
  }
  uint64_t lo = domain / 4, hi = (3 * domain) / 4;
  std::vector<RowPos> got;
  PackedSearchRange(pv.words(), bits, 0, pv.size(), lo, hi, 0, &got);
  std::vector<RowPos> expect;
  for (RowPos i = 0; i < values.size(); ++i) {
    if (values[i] >= lo && values[i] <= hi) expect.push_back(i);
  }
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackingWidthTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 11u, 13u,
                                           16u, 17u, 23u, 24u, 29u, 31u, 32u));

TEST(BitPackingTest, SearchWithBaseOffsetsPositions) {
  PackedVector pv(4);
  for (uint64_t v : {1, 2, 3, 2, 1}) pv.Append(v);
  std::vector<RowPos> got;
  PackedSearchEq(pv.words(), 4, 1, 4, 2, 100, &got);
  EXPECT_EQ(got, (std::vector<RowPos>{100, 102}));
}

TEST(BitPackingTest, SearchInHonorsSortedSet) {
  PackedVector pv(8);
  for (uint64_t v : {5, 9, 14, 20, 9, 5, 30}) pv.Append(v);
  std::vector<RowPos> got;
  PackedSearchIn(pv.words(), 8, 0, pv.size(), {9, 20}, 0, &got);
  EXPECT_EQ(got, (std::vector<RowPos>{1, 3, 4}));
  got.clear();
  PackedSearchIn(pv.words(), 8, 0, pv.size(), {}, 0, &got);
  EXPECT_TRUE(got.empty());
}

TEST(BitPackingTest, PackChoosesMinimalWidth) {
  PackedVector pv = PackedVector::Pack({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(pv.bits(), 3u);
  PackedVector pv2 = PackedVector::Pack({0, 0, 0});
  EXPECT_EQ(pv2.bits(), 1u);
  PackedVector pv3 = PackedVector::Pack({1023});
  EXPECT_EQ(pv3.bits(), 10u);
}

TEST(BitPackingTest, FromWordsRoundtrip) {
  PackedVector src(13);
  Random rng(3);
  for (int i = 0; i < 500; ++i) src.Append(rng.Next() & LowMask(13));
  std::vector<uint64_t> words(src.words(), src.words() + src.word_count());
  PackedVector dst = PackedVector::FromWords(13, src.size(), std::move(words));
  for (uint64_t i = 0; i < src.size(); ++i) EXPECT_EQ(dst.Get(i), src.Get(i));
}

TEST(BitPackingTest, ChunkGeometry) {
  // 64 n-bit values must be exactly n words for every n.
  for (uint32_t n = 1; n <= 32; ++n) {
    EXPECT_EQ(ChunkWords(n), n);
    EXPECT_EQ(ChunkBytes(n), n * 8);
    EXPECT_EQ(kChunkValues * n, ChunkWords(n) * 64u);
  }
}

// ---------------------------------------------------------------------------
// Sparse encoding
// ---------------------------------------------------------------------------

std::vector<ValueId> SkewedVids(uint64_t n, uint64_t cardinality,
                                double dominant_fraction, uint64_t seed) {
  Random rng(seed);
  std::vector<ValueId> vids;
  vids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < dominant_fraction) {
      vids.push_back(3);  // the dominant vid
    } else {
      vids.push_back(static_cast<ValueId>(rng.Uniform(cardinality)));
    }
  }
  return vids;
}

TEST(SparseVectorTest, DominantFractionAndShouldUse) {
  auto skewed = SkewedVids(10000, 50, 0.8, 1);
  ValueId dominant;
  double frac = SparseVector::DominantFraction(skewed, &dominant);
  EXPECT_EQ(dominant, 3u);
  EXPECT_GT(frac, 0.75);
  EXPECT_TRUE(SparseVector::ShouldUse(skewed));

  auto uniform = SkewedVids(10000, 50, 0.0, 2);
  EXPECT_FALSE(SparseVector::ShouldUse(uniform));
}

TEST(SparseVectorTest, GetMatchesSource) {
  auto vids = SkewedVids(20000, 30, 0.7, 3);
  SparseVector sv = SparseVector::Encode(vids);
  ASSERT_EQ(sv.size(), vids.size());
  for (uint64_t i = 0; i < vids.size(); ++i) {
    ASSERT_EQ(sv.Get(i), vids[i]) << "i=" << i;
  }
}

TEST(SparseVectorTest, MGetMatchesSourceOnSubranges) {
  auto vids = SkewedVids(5000, 20, 0.9, 4);
  SparseVector sv = SparseVector::Encode(vids);
  for (auto [from, to] : {std::pair<uint64_t, uint64_t>{0, 5000},
                          {1, 2},
                          {63, 129},
                          {100, 101},
                          {4990, 5000}}) {
    std::vector<ValueId> out(to - from);
    sv.MGet(from, to, out.data());
    for (uint64_t i = from; i < to; ++i) {
      EXPECT_EQ(out[i - from], vids[i]) << "i=" << i;
    }
  }
}

TEST(SparseVectorTest, SearchMatchesScalarFilter) {
  auto vids = SkewedVids(8000, 25, 0.8, 5);
  SparseVector sv = SparseVector::Encode(vids);
  // Probe the dominant value, a rare value, and ranges overlapping both.
  struct Probe {
    ValueId lo, hi;
  };
  for (Probe p : {Probe{3, 3}, {7, 7}, {0, 10}, {4, 24}, {20, 24}}) {
    std::vector<RowPos> got;
    sv.SearchRange(100, 7900, p.lo, p.hi, 100, &got);
    std::vector<RowPos> expect;
    for (RowPos r = 100; r < 7900; ++r) {
      if (vids[r] >= p.lo && vids[r] <= p.hi) expect.push_back(r);
    }
    EXPECT_EQ(got, expect) << "range [" << p.lo << "," << p.hi << "]";
  }
  std::vector<RowPos> got;
  sv.SearchIn(0, 8000, {3, 9, 24}, 0, &got);
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < 8000; ++r) {
    if (vids[r] == 3 || vids[r] == 9 || vids[r] == 24) expect.push_back(r);
  }
  EXPECT_EQ(got, expect);
}

TEST(SparseVectorTest, CompressesSkewedData) {
  auto vids = SkewedVids(100000, 60, 0.9, 6);
  SparseVector sv = SparseVector::Encode(vids);
  PackedVector pv = PackedVector::Pack(vids);
  // ~10% exceptions: bitmap (1 bit/row) + packed exceptions beat 6 bits/row.
  EXPECT_LT(sv.MemoryBytes(), pv.MemoryBytes() / 2);
}

TEST(SparseVectorTest, FromPartsRoundtrip) {
  auto vids = SkewedVids(3000, 15, 0.75, 7);
  SparseVector src = SparseVector::Encode(vids);
  std::vector<uint64_t> bitmap = src.exception_bitmap();
  std::vector<uint64_t> ex_words(
      src.exceptions().words(),
      src.exceptions().words() + src.exceptions().word_count());
  SparseVector dst = SparseVector::FromParts(
      src.size(), src.dominant(), src.bits(), std::move(bitmap),
      PackedVector::FromWords(src.bits(), src.exception_count(),
                              std::move(ex_words)));
  for (uint64_t i = 0; i < vids.size(); ++i) {
    ASSERT_EQ(dst.Get(i), vids[i]);
  }
}

TEST(SparseVectorTest, AllDominantEdgeCase) {
  std::vector<ValueId> vids(500, 9);
  SparseVector sv = SparseVector::Encode(vids);
  EXPECT_EQ(sv.exception_count(), 0u);
  for (uint64_t i = 0; i < vids.size(); ++i) EXPECT_EQ(sv.Get(i), 9u);
  std::vector<RowPos> got;
  sv.SearchEq(0, 500, 9, 0, &got);
  EXPECT_EQ(got.size(), 500u);
  got.clear();
  sv.SearchEq(0, 500, 8, 0, &got);
  EXPECT_TRUE(got.empty());
}

// Property sweep across sparsity levels.
class SparseVectorPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SparseVectorPropertyTest, EquivalentToPackedVector) {
  auto [sparsity_pct, seed] = GetParam();
  auto vids = SkewedVids(4000, 40, sparsity_pct / 100.0, seed);
  SparseVector sv = SparseVector::Encode(vids);
  Random rng(seed * 31);
  for (int i = 0; i < 50; ++i) {
    uint64_t a = rng.Uniform(vids.size());
    uint64_t b = a + rng.Uniform(vids.size() - a);
    ValueId lo = static_cast<ValueId>(rng.Uniform(40));
    ValueId hi = lo + static_cast<ValueId>(rng.Uniform(10));
    std::vector<RowPos> got, expect;
    sv.SearchRange(a, b, lo, hi, static_cast<RowPos>(a), &got);
    for (uint64_t r = a; r < b; ++r) {
      if (vids[r] >= lo && vids[r] <= hi) {
        expect.push_back(static_cast<RowPos>(r));
      }
    }
    ASSERT_EQ(got, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sparsities, SparseVectorPropertyTest,
    ::testing::Values(std::pair{0, 11}, std::pair{50, 12}, std::pair{75, 13},
                      std::pair{90, 14}, std::pair{99, 15},
                      std::pair{100, 16}));

// ---------------------------------------------------------------------------
// String blocks
// ---------------------------------------------------------------------------

// In-memory stand-in for the overflow page chain.
struct FakeOverflow {
  std::map<OffpageRef, std::string> pages;
  OffpageRef next = 100;

  OffpageWriter writer() {
    return [this](std::string_view piece) -> Result<OffpageRef> {
      OffpageRef ref = next++;
      pages[ref] = std::string(piece);
      return ref;
    };
  }

  OffpageLoader loader() {
    return [this](OffpageRef ref) -> Result<std::string> {
      auto it = pages.find(ref);
      if (it == pages.end()) return Status::NotFound("overflow page");
      return it->second;
    };
  }
};

std::vector<std::string> SampleStrings() {
  return {"alpha",   "alphabet", "alphabetical", "beta",
          "betamax", "delta",    "gamma",        "gammaray"};
}

TEST(StringBlockTest, RoundtripWithPrefixCompression) {
  FakeOverflow ov;
  StringBlockBuilder builder(64, 128);
  auto values = SampleStrings();
  for (const auto& v : values) ASSERT_TRUE(builder.Add(v, ov.writer()).ok());
  auto bytes = builder.Finish();
  // Prefix compression must beat the raw concatenation for this input.
  size_t raw = 0;
  for (const auto& v : values) raw += v.size() + 7;
  EXPECT_LT(bytes.size(), raw);

  StringBlockReader reader(bytes.data(), bytes.size());
  ASSERT_EQ(reader.count(), values.size());
  for (uint32_t i = 0; i < values.size(); ++i) {
    auto s = reader.GetString(i, ov.loader());
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, values[i]);
  }
}

TEST(StringBlockTest, FindLocatesExactAndInsertionPoint) {
  FakeOverflow ov;
  StringBlockBuilder builder(64, 128);
  auto values = SampleStrings();
  for (const auto& v : values) ASSERT_TRUE(builder.Add(v, ov.writer()).ok());
  auto bytes = builder.Finish();
  StringBlockReader reader(bytes.data(), bytes.size());

  for (uint32_t i = 0; i < values.size(); ++i) {
    uint32_t pos;
    bool found;
    ASSERT_TRUE(reader.Find(values[i], ov.loader(), &pos, &found).ok());
    EXPECT_TRUE(found) << values[i];
    EXPECT_EQ(pos, i);
  }
  uint32_t pos;
  bool found;
  ASSERT_TRUE(reader.Find("alpha0", ov.loader(), &pos, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(pos, 1u);  // between "alpha" and "alphabet"
  ASSERT_TRUE(reader.Find("zzz", ov.loader(), &pos, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(pos, values.size());
}

TEST(StringBlockTest, LargeStringsSpillOffPage) {
  FakeOverflow ov;
  StringBlockBuilder builder(/*max_onpage=*/16, /*piece=*/32);
  std::string big1 = "aaaa" + std::string(200, 'x') + "end1";
  std::string big2 = "aaab" + std::string(150, 'y') + "end2";
  ASSERT_TRUE(builder.Add(big1, ov.writer()).ok());
  ASSERT_TRUE(builder.Add(big2, ov.writer()).ok());
  ASSERT_TRUE(builder.Add("small", ov.writer()).ok());
  auto bytes = builder.Finish();
  EXPECT_GE(ov.pages.size(), 10u);  // both big strings spilled into pieces
  EXPECT_LT(bytes.size(), 200u);    // block itself stays small

  StringBlockReader reader(bytes.data(), bytes.size());
  auto s1 = reader.GetString(0, ov.loader());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, big1);
  auto s2 = reader.GetString(1, ov.loader());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, big2);
  auto s3 = reader.GetString(2, ov.loader());
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(*s3, "small");

  // Find must compare correctly through the off-page pieces.
  uint32_t pos;
  bool found;
  ASSERT_TRUE(reader.Find(big2, ov.loader(), &pos, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(pos, 1u);
  ASSERT_TRUE(reader.Find(big2 + "!", ov.loader(), &pos, &found).ok());
  EXPECT_FALSE(found);
  EXPECT_EQ(pos, 2u);
}

TEST(StringBlockTest, BlockCapacityIs16) {
  FakeOverflow ov;
  StringBlockBuilder builder(64, 128);
  for (uint32_t i = 0; i < kStringsPerBlock; ++i) {
    EXPECT_FALSE(builder.full());
    std::string v = "v" + std::to_string(1000 + i);
    ASSERT_TRUE(builder.Add(v, ov.writer()).ok());
  }
  EXPECT_TRUE(builder.full());
  auto bytes = builder.Finish();
  EXPECT_FALSE(builder.full());  // reset
  StringBlockReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.count(), kStringsPerBlock);
}

TEST(StringBlockTest, EmptyStringAndDuplicatesOfPrefix) {
  FakeOverflow ov;
  StringBlockBuilder builder(64, 128);
  ASSERT_TRUE(builder.Add("", ov.writer()).ok());
  ASSERT_TRUE(builder.Add("a", ov.writer()).ok());
  ASSERT_TRUE(builder.Add("aa", ov.writer()).ok());
  ASSERT_TRUE(builder.Add("aaa", ov.writer()).ok());
  auto bytes = builder.Finish();
  StringBlockReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(*reader.GetString(0, ov.loader()), "");
  EXPECT_EQ(*reader.GetString(1, ov.loader()), "a");
  EXPECT_EQ(*reader.GetString(2, ov.loader()), "aa");
  EXPECT_EQ(*reader.GetString(3, ov.loader()), "aaa");
  uint32_t pos;
  bool found;
  ASSERT_TRUE(reader.Find("", ov.loader(), &pos, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(pos, 0u);
}

// Property test: random sorted unique strings roundtrip through blocks.
class StringBlockPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StringBlockPropertyTest, RandomSortedRoundtrip) {
  Random rng(GetParam());
  std::vector<std::string> values;
  for (int i = 0; i < 16; ++i) {
    std::string s;
    uint64_t len = rng.Uniform(40);
    for (uint64_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    values.push_back(s);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  FakeOverflow ov;
  StringBlockBuilder builder(12, 16);  // tiny limits force spills
  for (const auto& v : values) ASSERT_TRUE(builder.Add(v, ov.writer()).ok());
  auto bytes = builder.Finish();
  StringBlockReader reader(bytes.data(), bytes.size());
  ASSERT_EQ(reader.count(), values.size());
  for (uint32_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(*reader.GetString(i, ov.loader()), values[i]);
    uint32_t pos;
    bool found;
    ASSERT_TRUE(reader.Find(values[i], ov.loader(), &pos, &found).ok());
    EXPECT_TRUE(found);
    EXPECT_EQ(pos, i);
  }
}

// The one-pass batch read returns every slice of the block, spilled strings
// included, and appends after what *out already holds.
TEST_P(StringBlockPropertyTest, GetStringsMatchesEverySlice) {
  Random rng(GetParam());
  std::vector<std::string> values;
  for (int i = 0; i < 16; ++i) {
    std::string s;
    uint64_t len = rng.Uniform(40);
    for (uint64_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    values.push_back(s);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  FakeOverflow ov;
  StringBlockBuilder builder(12, 16);  // tiny limits force spills
  for (const auto& v : values) ASSERT_TRUE(builder.Add(v, ov.writer()).ok());
  auto bytes = builder.Finish();
  StringBlockReader reader(bytes.data(), bytes.size());
  const uint32_t n = reader.count();
  ASSERT_EQ(n, values.size());
  for (uint32_t from = 0; from <= n; ++from) {
    for (uint32_t to = from; to <= n; ++to) {
      std::vector<std::string> got = {"head"};
      ASSERT_TRUE(reader.GetStrings(from, to, ov.loader(), &got).ok());
      std::vector<std::string> want = {"head"};
      want.insert(want.end(), values.begin() + from, values.begin() + to);
      EXPECT_EQ(got, want) << from << ".." << to;
    }
  }
  std::vector<std::string> out;
  EXPECT_EQ(reader.GetStrings(0, n + 1, ov.loader(), &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(reader.GetStrings(1, 0, ov.loader(), &out).code(),
            StatusCode::kOutOfRange);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringBlockPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace payg
