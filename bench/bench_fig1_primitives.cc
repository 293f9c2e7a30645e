// Fig. 1: average time (ns) per symbol for the mget and search primitives
// over n-bit packed data vectors, for every bit case n = 1..32 (§3.1.3).
//
// The paper measures SIMD kernels on a Xeon E5-2697 v3; here every kernel
// tier the build and CPU provide (scalar / sse42 / avx2) is measured side by
// side, so the scalar-vs-SIMD speedup per bit width is part of the recorded
// trajectory (scripts/bench_snapshot.sh → BENCH_fig1.json). Benchmark names
// are <kernel>/<tier>/<bits>; the dispatch-selected tier for normal callers
// is recorded in the context as "simd_level". The page checksum kernel is
// measured the same way, per implementation, as crc32c/<table|sse42>/<size>.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "encoding/bit_packing.h"
#include "encoding/codec.h"
#include "encoding/simd_dispatch.h"

namespace payg {
namespace {

constexpr uint64_t kSymbols = 1 << 22;  // 4M symbols per measurement

PackedVector MakeVector(uint32_t bits) {
  Random rng(bits);
  PackedVector pv(bits);
  const uint64_t mask = LowMask(bits);
  for (uint64_t i = 0; i < kSymbols; ++i) {
    // Reserve the all-ones code as the search probe so the search
    // measurement is a pure scan (result-set cost excluded), as in the
    // paper's micro benchmark.
    uint64_t v = rng.Next() & mask;
    if (v == mask) v = 0;
    pv.Append(v);
  }
  return pv;
}

void SetRate(benchmark::State& state) {
  state.counters["ns_per_symbol"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kSymbols),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_MGet(benchmark::State& state, const PackedKernels* k, uint32_t bits) {
  PackedVector pv = MakeVector(bits);
  std::vector<uint32_t> out(kSymbols);
  for (auto _ : state) {
    k->mget[bits](pv.words(), 0, kSymbols, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  SetRate(state);
}

void BM_SearchEq(benchmark::State& state, const PackedKernels* k,
                 uint32_t bits) {
  PackedVector pv = MakeVector(bits);
  // Probe for a rare value so the output stays small and the measurement is
  // dominated by the scan, as in the paper's micro benchmark.
  const uint64_t probe = LowMask(bits);
  std::vector<RowPos> out;
  for (auto _ : state) {
    out.clear();
    k->search_eq[bits](pv.words(), 0, kSymbols, probe, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetRate(state);
}

void BM_SearchRange(benchmark::State& state, const PackedKernels* k,
                    uint32_t bits) {
  PackedVector pv = MakeVector(bits);
  const uint64_t hi = LowMask(bits);
  std::vector<RowPos> out;
  for (auto _ : state) {
    out.clear();
    k->search_range[bits](pv.words(), 0, kSymbols, hi, hi, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetRate(state);
}

void BM_SearchIn(benchmark::State& state, const PackedKernels* k,
                 uint32_t bits) {
  PackedVector pv = MakeVector(bits);
  // A small set around the (absent) all-ones probe: the band prefilter
  // passes occasionally, the set membership rarely.
  const uint64_t mask = LowMask(bits);
  std::vector<ValueId> vids;
  for (uint64_t v = mask; v != 0 && vids.size() < 4; v -= (mask / 7) + 1) {
    vids.push_back(static_cast<ValueId>(v));
  }
  std::sort(vids.begin(), vids.end());
  vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
  std::vector<RowPos> out;
  for (auto _ : state) {
    out.clear();
    k->search_in[bits](pv.words(), 0, kSymbols, vids, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetRate(state);
}

// --- codec kernels (S22) ---------------------------------------------------
// The same primitives dispatched through the codec layer, once per codec,
// over data with run structure (average run ≈ 12) and a nonzero floor so
// FOR subtracts a real base and RLE's run catalog pays off. Names are
// codec_<kernel>/<codec>/<tier>/<bits>.

std::vector<ValueId> MakeCodecValues(uint32_t bits) {
  Random rng(bits * 7 + 1);
  const uint64_t mask = LowMask(bits);
  const ValueId floor = static_cast<ValueId>(mask / 3);
  const uint64_t span = mask - floor + 1;
  std::vector<ValueId> v;
  v.reserve(kSymbols);
  while (v.size() < kSymbols) {
    const uint64_t len = 1 + rng.Uniform(23);
    ValueId val = floor + static_cast<ValueId>(rng.Uniform(span));
    if (val == mask) val = floor;  // keep all-ones as the absent probe
    for (uint64_t j = 0; j < len && v.size() < kSymbols; ++j) {
      v.push_back(val);
    }
  }
  return v;
}

struct CodecBuffer {
  std::vector<uint64_t> words;
  CodecChoice choice;
  uint32_t aux2 = 0;
};

CodecBuffer EncodeAll(CodecId id, const std::vector<ValueId>& values,
                      uint32_t bits) {
  CodecBuffer b;
  b.choice = MakeCodecChoice(id, values);
  // Plain payload size is the upper bound for every codec (RLE escapes to
  // plain when its catalog would overflow).
  const uint32_t capacity = static_cast<uint32_t>(
      CeilDiv(kSymbols, kChunkValues) * ChunkBytes(bits) + 8);
  b.words.assign(capacity / 8, 0);
  CodecEncodePage(b.choice, values.data(), values.size(),
                  reinterpret_cast<uint8_t*>(b.words.data()), capacity,
                  &b.aux2);
  return b;
}

void BM_CodecMGet(benchmark::State& state, CodecId id, const PackedKernels* k,
                  uint32_t bits) {
  const auto values = MakeCodecValues(bits);
  const CodecBuffer buf = EncodeAll(id, values, bits);
  CodecPageView view{buf.words.data(), kSymbols, buf.aux2, buf.choice.params,
                     k};
  CodecStats stats;
  std::vector<uint32_t> out(kSymbols);
  for (auto _ : state) {
    CodecMGet(id, view, 0, kSymbols, out.data(), &stats);
    benchmark::DoNotOptimize(out.data());
  }
  SetRate(state);
}

void BM_CodecSearchEq(benchmark::State& state, CodecId id,
                      const PackedKernels* k, uint32_t bits) {
  const auto values = MakeCodecValues(bits);
  const CodecBuffer buf = EncodeAll(id, values, bits);
  CodecPageView view{buf.words.data(), kSymbols, buf.aux2, buf.choice.params,
                     k};
  CodecStats stats;
  const ValueId probe = static_cast<ValueId>(LowMask(bits));  // absent
  std::vector<RowPos> out;
  for (auto _ : state) {
    out.clear();
    CodecSearchEq(id, view, 0, kSymbols, probe, 0, &out, &stats);
    benchmark::DoNotOptimize(out.data());
  }
  SetRate(state);
}

// --- page checksum kernel ---------------------------------------------------
// CRC-32C over one page, per implementation: every page write and every
// verified page read pays this once. Names are crc32c/<impl>/<page size>;
// the time per iteration is the per-page cost.

void BM_Crc32c(benchmark::State& state, Crc32cFn fn, size_t bytes) {
  Random rng(bytes);
  std::vector<uint8_t> page(bytes);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(page.data(), page.size(), 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void RegisterCrc32c() {
  const std::pair<const char*, Crc32cFn> impls[] = {
      {"table", &Crc32cTable}, {"sse42", Crc32cHardware()}};
  const std::pair<const char*, size_t> sizes[] = {
      {"8K", 8 << 10}, {"32K", 32 << 10}, {"256K", 256 << 10}};
  for (const auto& [impl, fn] : impls) {
    if (fn == nullptr) continue;
    for (const auto& [size_name, bytes] : sizes) {
      benchmark::RegisterBenchmark(
          (std::string("crc32c/") + impl + "/" + size_name).c_str(), BM_Crc32c,
          fn, bytes)
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

void RegisterAll() {
  RegisterCrc32c();
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
    const PackedKernels* k = KernelsFor(level);
    if (k == nullptr) continue;
    const std::string tier = SimdLevelName(level);
    for (uint32_t bits = 1; bits <= 32; ++bits) {
      const std::string suffix = tier + "/" + std::to_string(bits);
      benchmark::RegisterBenchmark(("mget/" + suffix).c_str(), BM_MGet, k,
                                   bits)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(("search_eq/" + suffix).c_str(),
                                   BM_SearchEq, k, bits)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(("search_range/" + suffix).c_str(),
                                   BM_SearchRange, k, bits)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(("search_in/" + suffix).c_str(),
                                   BM_SearchIn, k, bits)
          ->Unit(benchmark::kMillisecond);
    }
    // Codec rows at two representative widths: a byte-ish code and the
    // common dictionary-heavy width. All 32 widths are covered by the
    // kernels above; here the codec dispatch overhead and the RLE
    // run-catalog advantage are the measurement.
    for (uint32_t bits : {8u, 16u}) {
      for (CodecId id :
           {CodecId::kPlain, CodecId::kFor, CodecId::kRle}) {
        const std::string suffix = std::string(CodecName(id)) + "/" + tier +
                                   "/" + std::to_string(bits);
        benchmark::RegisterBenchmark(("codec_mget/" + suffix).c_str(),
                                     BM_CodecMGet, id, k, bits)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(("codec_search_eq/" + suffix).c_str(),
                                     BM_CodecSearchEq, id, k, bits)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace
}  // namespace payg

int main(int argc, char** argv) {
  payg::RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "simd_level", payg::SimdLevelName(payg::ActiveSimdLevel()));
  benchmark::AddCustomContext("crc32c",
                              payg::Crc32cUsesHardware() ? "sse42" : "table");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
