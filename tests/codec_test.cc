#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/bit_util.h"
#include "common/env.h"
#include "encoding/bit_packing.h"
#include "encoding/codec.h"
#include "encoding/simd_dispatch.h"
#include "exec/exec_context.h"
#include "obs/metrics.h"
#include "paged/fragment_factory.h"
#include "paged/paged_data_vector.h"
#include "paged/paged_fragment.h"
#include "storage/storage_manager.h"
#include "table/partition.h"
#include "table/schema.h"
#include "test_util.h"

namespace payg {
namespace {

// ---------------------------------------------------------------------------
// In-memory property tests: every codec × every bit width × every SIMD tier
// available in this process must produce results identical to a direct scan
// of the raw values, for all four kernels. CI runs this binary once as
// built and once with PAYG_FORCE_SCALAR=1, and once per PAYG_FORCE_CODEC
// leg, so every (codec, kernel, tier) cell stays covered.
// ---------------------------------------------------------------------------

struct Tier {
  SimdLevel level;
  const PackedKernels* kernels;
};

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
    const PackedKernels* k = KernelsFor(level);
    if (k != nullptr) tiers.push_back(Tier{level, k});
  }
  return tiers;
}

constexpr CodecId kAllCodecs[] = {CodecId::kPlain, CodecId::kFor,
                                  CodecId::kRle};

// Values mixing runs (so RLE has structure), random bursts, width extremes,
// and a nonzero floor (so FOR gets a real base to subtract).
std::vector<ValueId> MakeCodecValues(uint32_t bits, uint64_t n,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  const uint64_t mask = LowMask(bits);
  const ValueId floor = static_cast<ValueId>(mask / 3);
  const uint64_t span = mask - floor + 1;
  std::vector<ValueId> v(n);
  uint64_t i = 0;
  while (i < n) {
    if (rng() % 2 == 0) {
      const uint64_t len = 1 + rng() % 37;
      const ValueId val = floor + static_cast<ValueId>(rng() % span);
      for (uint64_t j = 0; j < len && i < n; ++j) v[i++] = val;
    } else {
      const uint64_t len = 1 + rng() % 13;
      for (uint64_t j = 0; j < len && i < n; ++j) {
        switch (rng() % 8) {
          case 0:
            v[i++] = static_cast<ValueId>(mask);
            break;
          case 1:
            v[i++] = floor;
            break;
          default:
            v[i++] = floor + static_cast<ValueId>(rng() % span);
        }
      }
    }
  }
  return v;
}

std::vector<std::pair<uint64_t, uint64_t>> MakeRanges(uint64_t n,
                                                      uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}, {n / 2, n / 2 + 65}};
  for (int r = 0; r < 24; ++r) {
    uint64_t a = rng() % (n + 1);
    uint64_t b = rng() % (n + 1);
    if (a > b) std::swap(a, b);
    ranges.emplace_back(a, b);
  }
  return ranges;
}

// Ground-truth filters over the raw (uncompressed) values; positions are
// reported as base + (p - from), matching the kernel contract.
std::vector<RowPos> RefEq(const std::vector<ValueId>& v, uint64_t from,
                          uint64_t to, ValueId vid, RowPos base) {
  std::vector<RowPos> out;
  for (uint64_t p = from; p < to; ++p) {
    if (v[p] == vid) out.push_back(base + static_cast<RowPos>(p - from));
  }
  return out;
}

std::vector<RowPos> RefRange(const std::vector<ValueId>& v, uint64_t from,
                             uint64_t to, ValueId lo, ValueId hi,
                             RowPos base) {
  std::vector<RowPos> out;
  for (uint64_t p = from; p < to; ++p) {
    if (v[p] >= lo && v[p] <= hi) {
      out.push_back(base + static_cast<RowPos>(p - from));
    }
  }
  return out;
}

std::vector<RowPos> RefIn(const std::vector<ValueId>& v, uint64_t from,
                          uint64_t to, const std::vector<ValueId>& vids,
                          RowPos base) {
  std::vector<RowPos> out;
  for (uint64_t p = from; p < to; ++p) {
    if (std::binary_search(vids.begin(), vids.end(), v[p])) {
      out.push_back(base + static_cast<RowPos>(p - from));
    }
  }
  return out;
}

// One encoded in-memory page plus the view over it.
struct EncodedPage {
  std::vector<uint64_t> buf;
  uint32_t aux2 = 0;
  uint32_t size = 0;
  CodecChoice choice;

  CodecPageView View(uint64_t n, const PackedKernels* kernels) const {
    CodecPageView v;
    v.words = buf.data();
    v.n = n;
    v.aux2 = aux2;
    v.params = choice.params;
    v.kernels = kernels;
    return v;
  }
};

EncodedPage Encode(CodecId id, const std::vector<ValueId>& values,
                   uint32_t capacity) {
  EncodedPage e;
  e.choice = MakeCodecChoice(id, values);
  e.buf.assign(capacity / 8, 0);
  e.size = CodecEncodePage(e.choice, values.data(), values.size(),
                           reinterpret_cast<uint8_t*>(e.buf.data()), capacity,
                           &e.aux2);
  EXPECT_LE(e.size, capacity);
  return e;
}

class CodecPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CodecPropertyTest, AllKernelsMatchReferenceOnAllTiersAndCodecs) {
  const uint32_t bits = GetParam();
  const uint64_t n = 2048;
  const uint64_t mask = LowMask(bits);
  const auto values = MakeCodecValues(bits, n, 41 * bits);
  // Large enough that RLE never escapes here (the escape path has its own
  // test below); plain needs 32 chunks × bits words + spare.
  const uint32_t capacity = 64 * 1024;
  const RowPos base = 5000000;
  std::mt19937_64 rng(700 + bits);

  for (CodecId id : kAllCodecs) {
    const EncodedPage enc = Encode(id, values, capacity);
    if (id == CodecId::kRle) {
      ASSERT_NE(enc.aux2, kRleEscapeAux);
    }
    // The value generator floors at mask/3, so FOR gets a real base to
    // subtract everywhere the width allows one.
    if (id == CodecId::kFor && bits > 1) {
      ASSERT_GT(enc.choice.params.for_base, 0u);
    }

    // Get round-trips every position (tier-independent single decode).
    for (uint64_t idx = 0; idx < n; idx += 97) {
      ASSERT_EQ(CodecGetValue(id, enc.View(n, nullptr), idx), values[idx])
          << CodecName(id) << " bits=" << bits << " idx=" << idx;
    }

    for (const Tier& tier : AvailableTiers()) {
      const CodecPageView view = enc.View(n, tier.kernels);
      CodecStats stats;
      for (const auto& [from, to] : MakeRanges(n, 300 + bits)) {
        // mget ≡ the raw slice.
        std::vector<ValueId> got(to - from + 1, 0xDEADBEEFu);
        CodecMGet(id, view, from, to, got.data(), &stats);
        for (uint64_t i = 0; i < to - from; ++i) {
          ASSERT_EQ(got[i], values[from + i])
              << CodecName(id) << " tier=" << SimdLevelName(tier.level)
              << " bits=" << bits << " [" << from << "," << to << ") i=" << i;
        }

        // search(eq): a present value (when non-empty), a random probe, and
        // an out-of-domain probe below the FOR base.
        std::vector<ValueId> probes = {static_cast<ValueId>(rng() & mask)};
        if (from < to) probes.push_back(values[from + rng() % (to - from)]);
        if (enc.choice.params.for_base > 0) {
          probes.push_back(enc.choice.params.for_base - 1);
        }
        for (ValueId vid : probes) {
          std::vector<RowPos> out;
          CodecSearchEq(id, view, from, to, vid, base, &out, &stats);
          ASSERT_EQ(out, RefEq(values, from, to, vid, base))
              << CodecName(id) << " tier=" << SimdLevelName(tier.level)
              << " bits=" << bits << " vid=" << vid;
        }

        // search(range): random band, plus a band straddling the FOR base.
        ValueId lo = static_cast<ValueId>(rng() & mask);
        ValueId hi = static_cast<ValueId>(rng() & mask);
        if (lo > hi) std::swap(lo, hi);
        for (auto [blo, bhi] :
             {std::pair<ValueId, ValueId>{lo, hi},
              std::pair<ValueId, ValueId>{0, enc.choice.params.for_base}}) {
          std::vector<RowPos> out;
          CodecSearchRange(id, view, from, to, blo, bhi, base, &out, &stats);
          ASSERT_EQ(out, RefRange(values, from, to, blo, bhi, base))
              << CodecName(id) << " tier=" << SimdLevelName(tier.level)
              << " bits=" << bits << " [" << blo << "," << bhi << "]";
        }

        // search(in): random sorted set including present values.
        std::vector<ValueId> vids;
        for (int i = 0; i < 7; ++i) {
          vids.push_back(static_cast<ValueId>(rng() & mask));
        }
        if (from < to) vids.push_back(values[from + rng() % (to - from)]);
        std::sort(vids.begin(), vids.end());
        vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
        std::vector<RowPos> out;
        CodecSearchIn(id, view, from, to, vids, base, &out, &stats);
        ASSERT_EQ(out, RefIn(values, from, to, vids, base))
            << CodecName(id) << " tier=" << SimdLevelName(tier.level)
            << " bits=" << bits;
      }
      // The acceptance matrix, per tier: every codec runs every kernel
      // natively (S23 closed the last FOR/RLE search(in) fallback row).
      EXPECT_GT(stats.native, 0u);
      EXPECT_EQ(stats.fallback, 0u) << CodecName(id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CodecPropertyTest,
                         ::testing::Range(1u, 33u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "Bits" + std::to_string(info.param);
                         });

// A page whose run catalog cannot fit escapes to plain packing (marked in
// aux2) and must decode identically.
TEST(CodecTest, RleEscapePageStoresPlain) {
  const uint32_t bits = 7;
  const uint64_t n = 1024;
  std::vector<ValueId> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = static_cast<ValueId>(i % 97);  // ~every value its own run
  }
  // Exactly the plain capacity: 16 chunks × 7 words × 8 + spare. The run
  // catalog alone (4 KiB) cannot fit.
  const uint32_t capacity =
      static_cast<uint32_t>(CeilDiv(n, kChunkValues) * ChunkBytes(bits) + 8);
  const EncodedPage enc = Encode(CodecId::kRle, values, capacity);
  ASSERT_EQ(enc.aux2, kRleEscapeAux);

  const CodecPageView view = enc.View(n, nullptr);
  CodecStats stats;
  std::vector<ValueId> got(n);
  CodecMGet(CodecId::kRle, view, 0, n, got.data(), &stats);
  EXPECT_EQ(got, values);
  std::vector<RowPos> out;
  CodecSearchEq(CodecId::kRle, view, 0, n, 42, 0, &out, &stats);
  EXPECT_EQ(out, RefEq(values, 0, n, 42, 0));
  out.clear();
  CodecSearchRange(CodecId::kRle, view, 0, n, 10, 20, 0, &out, &stats);
  EXPECT_EQ(out, RefRange(values, 0, n, 10, 20, 0));
}

// Hostile-image gate (S26): everything the encoders emit must validate,
// and each seeded corruption must be rejected with Corruption before any
// kernel touches the image. Mirrors what fuzz_codec_page asserts.
TEST(CodecTest, ValidatePageAcceptsEveryEncoderOutput) {
  const uint32_t capacity = 64 * 1024;
  for (uint32_t bits : {1u, 7u, 17u, 32u}) {
    const auto values = MakeCodecValues(bits, 2048, 13 * bits);
    for (CodecId id : kAllCodecs) {
      const EncodedPage enc = Encode(id, values, capacity);
      EXPECT_TRUE(
          CodecValidatePage(id, enc.View(values.size(), nullptr), enc.size)
              .ok())
          << CodecName(id) << " bits=" << bits;
    }
  }
  // The RLE escape image validates through the packed-bytes branch.
  std::vector<ValueId> churn(1024);
  for (uint64_t i = 0; i < churn.size(); ++i) {
    churn[i] = static_cast<ValueId>(i % 97);
  }
  const uint32_t tight = static_cast<uint32_t>(
      CeilDiv(churn.size(), kChunkValues) * ChunkBytes(7) + 8);
  const EncodedPage esc = Encode(CodecId::kRle, churn, tight);
  ASSERT_EQ(esc.aux2, kRleEscapeAux);
  EXPECT_TRUE(
      CodecValidatePage(CodecId::kRle, esc.View(churn.size(), nullptr),
                        esc.size)
          .ok());
}

TEST(CodecTest, ValidatePageRejectsSeededCorruptions) {
  const auto values = MakeCodecValues(9, 512, 5);
  const EncodedPage plain = Encode(CodecId::kPlain, values, 64 * 1024);

  CodecPageView v = plain.View(values.size(), nullptr);
  v.params.bits = 0;
  EXPECT_FALSE(CodecValidatePage(CodecId::kPlain, v, plain.size).ok());
  v.params.bits = 33;
  EXPECT_FALSE(CodecValidatePage(CodecId::kPlain, v, plain.size).ok());

  // A row count past u32 must not wrap the packed-byte bound.
  v = plain.View(0x100000000ull, nullptr);
  EXPECT_FALSE(CodecValidatePage(CodecId::kPlain, v, plain.size).ok());

  // Payload shorter than the packed image the header claims.
  v = plain.View(values.size(), nullptr);
  EXPECT_FALSE(CodecValidatePage(CodecId::kPlain, v, plain.size - 64).ok());

  // RLE catalog corruptions, each one mutation away from a valid page.
  std::vector<ValueId> runs_vals(512);
  for (uint64_t i = 0; i < runs_vals.size(); ++i) {
    runs_vals[i] = static_cast<ValueId>(i / 64);
  }
  EncodedPage rle = Encode(CodecId::kRle, runs_vals, 64 * 1024);
  ASSERT_NE(rle.aux2, kRleEscapeAux);
  const CodecPageView good = rle.View(runs_vals.size(), nullptr);
  ASSERT_TRUE(CodecValidatePage(CodecId::kRle, good, rle.size).ok());

  v = good;
  v.aux2 = 0;  // runs and rows disagree about emptiness
  EXPECT_FALSE(CodecValidatePage(CodecId::kRle, v, rle.size).ok());
  v = good;
  v.n = static_cast<uint64_t>(v.aux2) - 1;  // more runs than rows
  EXPECT_FALSE(CodecValidatePage(CodecId::kRle, v, rle.size).ok());
  v = good;
  // runs == n passes the count checks, but a 512-run catalog plus its
  // packed values cannot fit the 8-run payload this page actually has.
  v.aux2 = static_cast<uint32_t>(runs_vals.size());
  EXPECT_FALSE(CodecValidatePage(CodecId::kRle, v, rle.size).ok());

  uint32_t* ends = reinterpret_cast<uint32_t*>(rle.buf.data());
  const uint32_t saved = ends[1];
  ends[1] = ends[0];  // not strictly increasing
  EXPECT_FALSE(CodecValidatePage(CodecId::kRle, good, rle.size).ok());
  ends[1] = saved;
  const uint32_t last = rle.aux2 - 1;
  ends[last] = static_cast<uint32_t>(runs_vals.size()) + 7;  // end != n
  EXPECT_FALSE(CodecValidatePage(CodecId::kRle, good, rle.size).ok());
}

// The (codec × kernel) native/fallback matrix, one dispatch per cell.
TEST(CodecTest, NativeFallbackMatrix) {
  const auto values = MakeCodecValues(12, 512, 99);
  const std::vector<ValueId> in_set = {values[0], values[100], values[200]};
  std::vector<ValueId> sorted_set = in_set;
  std::sort(sorted_set.begin(), sorted_set.end());
  sorted_set.erase(std::unique(sorted_set.begin(), sorted_set.end()),
                   sorted_set.end());
  for (CodecId id : kAllCodecs) {
    const EncodedPage enc = Encode(id, values, 64 * 1024);
    const CodecPageView view = enc.View(values.size(), nullptr);
    std::vector<ValueId> decoded(values.size());
    std::vector<RowPos> rows;

    CodecStats s;
    CodecMGet(id, view, 0, values.size(), decoded.data(), &s);
    EXPECT_EQ(s.native, 1u) << CodecName(id) << " mget";
    CodecSearchEq(id, view, 0, values.size(), values[0], 0, &rows, &s);
    EXPECT_EQ(s.native, 2u) << CodecName(id) << " eq";
    CodecSearchRange(id, view, 0, values.size(), values[0], values[1], 0,
                     &rows, &s);
    EXPECT_EQ(s.native, 3u) << CodecName(id) << " range";
    EXPECT_EQ(s.fallback, 0u) << CodecName(id);
    CodecSearchIn(id, view, 0, values.size(), sorted_set, 0, &rows, &s);
    EXPECT_EQ(s.native, 4u) << CodecName(id) << " in should be native";
    EXPECT_EQ(s.fallback, 0u) << CodecName(id);
  }
}

// ---------------------------------------------------------------------------
// Selection cost model.
// ---------------------------------------------------------------------------

TEST(CodecTest, ChooseCodecPrefersRleOnRuns) {
  std::vector<ValueId> vids;
  for (uint32_t i = 0; i < 50000; ++i) vids.push_back(i / 32);
  const CodecChoice c = ChooseCodec(vids);
  EXPECT_EQ(c.id, CodecId::kRle);
  EXPECT_EQ(c.params.bits, BitsNeeded(50000 / 32 - 1));
}

TEST(CodecTest, ChooseCodecPrefersForOnOffsetRange) {
  std::mt19937_64 rng(7);
  std::vector<ValueId> vids;
  const ValueId base = 1u << 20;
  for (uint32_t i = 0; i < 50000; ++i) {
    vids.push_back(base + static_cast<ValueId>(rng() % 251));
  }
  const CodecChoice c = ChooseCodec(vids);
  EXPECT_EQ(c.id, CodecId::kFor);
  EXPECT_EQ(c.params.for_base, base);
  EXPECT_EQ(c.params.bits, 8u);  // residuals 0..250
}

TEST(CodecTest, ChooseCodecPrefersPlainOnDenseRandom) {
  std::mt19937_64 rng(8);
  std::vector<ValueId> vids = {0};  // pin the minimum at zero
  for (uint32_t i = 0; i < 50000; ++i) {
    vids.push_back(static_cast<ValueId>(rng() % 1024));
  }
  EXPECT_EQ(ChooseCodec(vids).id, CodecId::kPlain);
}

TEST(CodecTest, ChooseCodecEmptyAndConstantColumns) {
  EXPECT_EQ(ChooseCodec({}).id, CodecId::kPlain);
  EXPECT_EQ(ChooseCodec({}).params.bits, 1u);
  // A constant column is one giant run: RLE at the minimal width.
  std::vector<ValueId> constant(10000, 5);
  EXPECT_EQ(ChooseCodec(constant).id, CodecId::kRle);
}

TEST(CodecTest, ResolveCodecHonorsExplicitForce) {
  std::vector<ValueId> vids;
  for (uint32_t i = 0; i < 1000; ++i) vids.push_back(i / 16);
  // A fragment-level force wins over both the knob and the cost model.
  EXPECT_EQ(ResolveCodec(CodecForce::kPlain, vids).id, CodecId::kPlain);
  EXPECT_EQ(ResolveCodec(CodecForce::kFor, vids).id, CodecId::kFor);
  EXPECT_EQ(ResolveCodec(CodecForce::kRle, vids).id, CodecId::kRle);
}

TEST(CodecTest, ForcedCodecMatchesEnvironment) {
  const char* env = EnvRaw("PAYG_FORCE_CODEC");
  const CodecForce f = ForcedCodec();
  if (env == nullptr || std::strcmp(env, "auto") == 0) {
    EXPECT_EQ(f, CodecForce::kAuto);
  } else if (std::strcmp(env, "plain") == 0) {
    EXPECT_EQ(f, CodecForce::kPlain);
  } else if (std::strcmp(env, "for") == 0) {
    EXPECT_EQ(f, CodecForce::kFor);
  } else if (std::strcmp(env, "rle") == 0) {
    EXPECT_EQ(f, CodecForce::kRle);
  } else {
    EXPECT_EQ(f, CodecForce::kAuto);  // malformed values fall back to auto
  }
}

TEST(CodecTest, ValuesPerPageIsChunkAlignedForEveryWidth) {
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    CodecChoice choice;
    choice.params.bits = bits;
    for (CodecId id : kAllCodecs) {
      choice.id = id;
      const uint64_t vpp = CodecValuesPerPage(4032, choice);
      EXPECT_GT(vpp, 0u);
      EXPECT_EQ(vpp % kChunkValues, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Paged-storage integration: codecs through PagedDataVector / fragments /
// the delta merge, surviving a StorageManager restart.
// ---------------------------------------------------------------------------

class CodecPagedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("codec");
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 4096;  // tiny pages force multi-page structures
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

  // Closes every chain and reopens the store — a process restart as far as
  // persisted state is concerned.
  void RestartStorage() {
    StorageOptions opts;
    opts.page_size = 4096;
    opts.dict_page_size = 8192;
    storage_.reset();
    auto sm = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(CodecPagedTest, PagedVectorRoundTripsEveryCodec) {
  const auto values = MakeCodecValues(11, 60000, 17);
  for (CodecId id : kAllCodecs) {
    const std::string name = std::string("rt_") + CodecName(id);
    auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, name, values,
                                     MakeCodecChoice(id, values));
    ASSERT_TRUE(dv.ok()) << dv.status().ToString();
    EXPECT_EQ((*dv)->codec_id(), id);
    EXPECT_GT((*dv)->data_page_count(), 3u);

    PagedDataVectorIterator it(dv->get());
    std::vector<ValueId> got;
    ASSERT_TRUE(it.MGet(0, static_cast<RowPos>(values.size()), &got).ok());
    ASSERT_EQ(got, values) << CodecName(id);

    std::vector<RowPos> rows;
    ASSERT_TRUE(
        it.SearchEq(100, 50000, values[4321], &rows).ok());
    EXPECT_EQ(rows, RefEq(values, 100, 50000, values[4321], 100))
        << CodecName(id);
    rows.clear();
    ASSERT_TRUE(it.SearchRange(0, static_cast<RowPos>(values.size()),
                               values[7], values[7] + 40, &rows)
                    .ok());
    EXPECT_EQ(rows, RefRange(values, 0, values.size(), values[7],
                             values[7] + 40, 0))
        << CodecName(id);
  }
}

TEST_F(CodecPagedTest, IteratorCountsNativeAndFallbackKernels) {
  const auto values = MakeCodecValues(10, 30000, 23);
  std::vector<ValueId> in_set = {values[5], values[999], values[20000]};
  std::sort(in_set.begin(), in_set.end());
  in_set.erase(std::unique(in_set.begin(), in_set.end()), in_set.end());

  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* g_native = reg.counter("codec.kernel_native");
  obs::Counter* g_fallback = reg.counter("codec.kernel_fallback");

  for (CodecId id : kAllCodecs) {
    const std::string name = std::string("cnt_") + CodecName(id);
    auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                     PoolId::kPagedPool, name, values,
                                     MakeCodecChoice(id, values));
    ASSERT_TRUE(dv.ok());

    const uint64_t before_native = g_native->value();
    const uint64_t before_fallback = g_fallback->value();
    ExecContext ctx;
    {
      // FOR SearchEq/SearchRange and RLE SearchEq/MGet (and more) must run
      // natively on the compressed image: zero fallbacks outside search(in).
      PagedDataVectorIterator it(dv->get(), &ctx);
      it.set_use_summary(false);  // count every page dispatch
      std::vector<ValueId> decoded;
      ASSERT_TRUE(
          it.MGet(0, static_cast<RowPos>(values.size()), &decoded).ok());
      std::vector<RowPos> rows;
      ASSERT_TRUE(it.SearchEq(0, static_cast<RowPos>(values.size()),
                              values[42], &rows)
                      .ok());
      ASSERT_TRUE(it.SearchRange(0, static_cast<RowPos>(values.size()),
                                 values[0], values[0] + 9, &rows)
                      .ok());
      EXPECT_GT(it.codec_native(), 0u) << CodecName(id);
      EXPECT_EQ(it.codec_fallback(), 0u) << CodecName(id);

      // search(in) is native on every codec too (S23: FOR residual
      // translation, RLE run-catalog skipping).
      ASSERT_TRUE(it.SearchIn(0, static_cast<RowPos>(values.size()), in_set,
                              &rows)
                      .ok());
      EXPECT_EQ(it.codec_fallback(), 0u) << CodecName(id);
    }
    // The iterator folded its tallies into the process-wide codec.* pair
    // and the query's ExecContext on destruction.
    EXPECT_GT(g_native->value(), before_native) << CodecName(id);
    EXPECT_GT(ctx.stats.codec_native.load(), 0u) << CodecName(id);
    EXPECT_EQ(g_fallback->value(), before_fallback) << CodecName(id);
    EXPECT_EQ(ctx.stats.codec_fallback.load(), 0u) << CodecName(id);
  }
}

TEST_F(CodecPagedTest, BuildBumpsSelectionMetrics) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* selected = reg.counter("codec.selected.for");
  obs::Counter* bytes = reg.counter("codec.bytes.for");
  const uint64_t before_sel = selected->value();
  const uint64_t before_bytes = bytes->value();
  const auto values = MakeCodecValues(9, 20000, 31);
  auto dv = PagedDataVector::Build(storage_.get(), rm_.get(),
                                   PoolId::kPagedPool, "metrics_for", values,
                                   MakeCodecChoice(CodecId::kFor, values));
  ASSERT_TRUE(dv.ok());
  EXPECT_EQ(selected->value(), before_sel + 1);
  EXPECT_GT(bytes->value(), before_bytes);
}

TEST_F(CodecPagedTest, FragmentReopenHonorsPersistedCodec) {
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 400; ++i) dict_values.push_back(i * 10);
  std::vector<ValueId> vids;
  for (uint32_t i = 0; i < 30000; ++i) {
    vids.push_back((i / 16) % 400);  // runs of 16
  }
  for (CodecForce force : {CodecForce::kFor, CodecForce::kRle}) {
    const CodecId want = static_cast<CodecId>(static_cast<int>(force));
    const std::string name = std::string("frag_") + CodecName(want);
    {
      // `force` pins the codec even under PAYG_FORCE_CODEC.
      auto frag = PagedFragment::Build(
          storage_.get(), rm_.get(), PoolId::kPagedPool, name, dict_values,
          vids, PagedFragment::IndexMode::kNone,
          /*index_build_threshold=*/1, force);
      ASSERT_TRUE(frag.ok()) << frag.status().ToString();
      EXPECT_STREQ((*frag)->codec_name(), CodecName(want));
    }

    RestartStorage();

    auto frag = OpenMainFragment(storage_.get(), rm_.get(), name,
                                 FragmentSpec{.page_loadable = true});
    ASSERT_TRUE(frag.ok()) << frag.status().ToString();
    // The persisted codec id — not the knob, not a re-selection — decides
    // how pages decode after restart.
    EXPECT_STREQ((*frag)->codec_name(), CodecName(want));
    auto reader = (*frag)->NewReader();
    ASSERT_TRUE(reader.ok());
    std::vector<ValueId> got;
    ASSERT_TRUE(
        (*reader)->MGetVids(0, static_cast<RowPos>(vids.size()), &got).ok());
    EXPECT_EQ(got, vids) << CodecName(want);
    std::vector<RowPos> rows;
    ASSERT_TRUE((*reader)->SearchVidRange(0, static_cast<RowPos>(vids.size()),
                                          17, 17, &rows)
                    .ok());
    EXPECT_EQ(rows, RefEq(vids, 0, vids.size(), 17, 0)) << CodecName(want);
  }
}

TEST_F(CodecPagedTest, MergeSelectsCodecPerColumnAndSurvivesRestart) {
  TableSchema schema;
  schema.name = "codec_merge";
  schema.columns.push_back(ColumnSchema{.name = "runs",
                                        .type = ValueType::kInt64,
                                        .page_loadable = true});
  auto part = std::make_unique<Partition>(&schema, 0, /*cold=*/false,
                                          storage_.get(), rm_.get());
  // Long runs of ascending values: vids after the order-preserving merge
  // keep the run structure, so the cost model should land on RLE (unless
  // PAYG_FORCE_CODEC pins another codec for this ctest leg).
  const uint32_t rows = 8000;
  for (uint32_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(part->Insert({Value(static_cast<int64_t>(i / 8))}).ok());
  }
  ASSERT_TRUE(part->Merge().ok());
  const char* expect =
      ForcedCodec() == CodecForce::kAuto
          ? "rle"
          : CodecName(static_cast<CodecId>(static_cast<int>(ForcedCodec())));
  EXPECT_STREQ(part->main(0)->codec_name(), expect);

  const uint64_t gen = part->merge_generation();
  part.reset();
  RestartStorage();

  auto reopened = Partition::OpenExisting(&schema, 0, /*cold=*/false,
                                          storage_.get(), rm_.get(), gen,
                                          rows);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_STREQ((*reopened)->main(0)->codec_name(), expect);
  for (RowPos r : {0u, 4097u, 7999u}) {
    auto row = (*reopened)->GetRow(r, nullptr);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].AsInt64(), static_cast<int64_t>(r / 8));
  }
}

}  // namespace
}  // namespace payg
