#include "encoding/sparse_vector.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace payg {

double SparseVector::DominantFraction(const std::vector<ValueId>& vids,
                                      ValueId* dominant) {
  *dominant = 0;
  if (vids.empty()) return 1.0;
  std::unordered_map<ValueId, uint64_t> counts;
  for (ValueId v : vids) ++counts[v];
  uint64_t best = 0;
  for (const auto& [vid, n] : counts) {
    if (n > best) {
      best = n;
      *dominant = vid;
    }
  }
  return static_cast<double>(best) / static_cast<double>(vids.size());
}

bool SparseVector::ShouldUse(const std::vector<ValueId>& vids,
                             double threshold) {
  ValueId dominant;
  return DominantFraction(vids, &dominant) >= threshold;
}

SparseVector SparseVector::Encode(const std::vector<ValueId>& vids) {
  SparseVector sv;
  sv.size_ = vids.size();
  // Only the dominant vid (out-param) matters here; the returned fraction
  // already decided ShouldUseSparse at the call site above this one.
  // analyzer:allow(status-swallow)
  (void)DominantFraction(vids, &sv.dominant_);

  ValueId max_exception = 0;
  for (ValueId v : vids) {
    if (v != sv.dominant_) max_exception = std::max(max_exception, v);
  }
  sv.bits_ = BitsNeeded(max_exception);

  sv.bitmap_.assign(CeilDiv(vids.size(), 64), 0);
  PackedVector exceptions(sv.bits_);
  for (uint64_t i = 0; i < vids.size(); ++i) {
    if (vids[i] != sv.dominant_) {
      sv.bitmap_[i >> 6] |= uint64_t{1} << (i & 63);
      exceptions.Append(vids[i]);
    }
  }
  sv.exceptions_ = std::move(exceptions);
  sv.BuildRank();
  return sv;
}

SparseVector SparseVector::FromParts(uint64_t size, ValueId dominant,
                                     uint32_t bits,
                                     std::vector<uint64_t> exception_bitmap,
                                     PackedVector exceptions) {
  SparseVector sv;
  sv.size_ = size;
  sv.dominant_ = dominant;
  sv.bits_ = bits;
  PAYG_ASSERT(exception_bitmap.size() >= CeilDiv(size, 64));
  sv.bitmap_ = std::move(exception_bitmap);
  sv.exceptions_ = std::move(exceptions);
  sv.BuildRank();
  return sv;
}

void SparseVector::BuildRank() {
  rank_.resize(bitmap_.size());
  uint64_t running = 0;
  for (size_t w = 0; w < bitmap_.size(); ++w) {
    rank_[w] = running;
    running += static_cast<uint64_t>(std::popcount(bitmap_[w]));
  }
}

void SparseVector::MGet(uint64_t from, uint64_t to, ValueId* out) const {
  PAYG_ASSERT(from <= to && to <= size_);
  if (from == to) return;
  // Start with the dominant value everywhere, then patch exceptions by
  // walking set bits — O(range + exceptions-in-range).
  std::fill(out, out + (to - from), dominant_);
  uint64_t w = from >> 6;
  const uint64_t last_word = (to - 1) >> 6;
  uint64_t r = rank_[w];
  for (; w <= last_word; ++w) {
    uint64_t word = bitmap_[w];
    while (word != 0) {
      uint32_t b = static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
      uint64_t pos = (w << 6) | b;
      uint64_t rr = r++;
      if (pos < from) continue;
      if (pos >= to) return;
      out[pos - from] = static_cast<ValueId>(exceptions_.Get(rr));
    }
  }
}

void SparseVector::SearchEq(uint64_t from, uint64_t to, ValueId vid,
                            RowPos base, std::vector<RowPos>* out) const {
  SearchRange(from, to, vid, vid, base, out);
}

void SparseVector::SearchRange(uint64_t from, uint64_t to, ValueId lo,
                               ValueId hi, RowPos base,
                               std::vector<RowPos>* out) const {
  PAYG_ASSERT(from <= to && to <= size_);
  if (from == to) return;
  const bool dominant_matches = lo <= dominant_ && dominant_ <= hi;
  uint64_t w = from >> 6;
  const uint64_t last_word = (to - 1) >> 6;
  uint64_t r = rank_[w];
  for (; w <= last_word; ++w) {
    uint64_t word = bitmap_[w];
    if (dominant_matches) {
      // Zeros in this word are dominant positions: they all match. Visit
      // every position of the word, pulling exception values as needed.
      uint64_t word_begin = w << 6;
      uint64_t begin = std::max(from, word_begin);
      uint64_t end = std::min(to, word_begin + 64);
      uint64_t bits_before =
          static_cast<uint64_t>(std::popcount(
              word & ((begin & 63) == 0
                          ? 0
                          : ((uint64_t{1} << (begin & 63)) - 1))));
      uint64_t rr = r + bits_before;
      for (uint64_t pos = begin; pos < end; ++pos) {
        if ((word >> (pos & 63)) & 1) {
          uint64_t v = exceptions_.Get(rr++);
          if (v - lo <= static_cast<uint64_t>(hi) - lo) {
            out->push_back(base + static_cast<RowPos>(pos - from));
          }
        } else {
          out->push_back(base + static_cast<RowPos>(pos - from));
        }
      }
    } else {
      // Only exceptions can match: walk set bits.
      uint64_t probe = word;
      uint64_t rr = r;
      while (probe != 0) {
        uint32_t b = static_cast<uint32_t>(std::countr_zero(probe));
        probe &= probe - 1;
        uint64_t pos = (w << 6) | b;
        uint64_t idx = rr++;
        if (pos < from || pos >= to) continue;
        uint64_t v = exceptions_.Get(idx);
        if (v - lo <= static_cast<uint64_t>(hi) - lo) {
          out->push_back(base + static_cast<RowPos>(pos - from));
        }
      }
    }
    r += static_cast<uint64_t>(std::popcount(word));
  }
}

void SparseVector::SearchIn(uint64_t from, uint64_t to,
                            const std::vector<ValueId>& sorted_vids,
                            RowPos base, std::vector<RowPos>* out) const {
  if (sorted_vids.empty()) return;
  const bool dominant_matches = std::binary_search(
      sorted_vids.begin(), sorted_vids.end(), dominant_);
  // Reuse the range walk with a per-value membership test: for small IN
  // lists the binary search per exception is cheap.
  PAYG_ASSERT(from <= to && to <= size_);
  if (from == to) return;
  uint64_t w = from >> 6;
  const uint64_t last_word = (to - 1) >> 6;
  uint64_t r = rank_[w];
  for (; w <= last_word; ++w) {
    uint64_t word = bitmap_[w];
    uint64_t word_begin = w << 6;
    uint64_t begin = std::max(from, word_begin);
    uint64_t end = std::min(to, word_begin + 64);
    uint64_t bits_before = static_cast<uint64_t>(std::popcount(
        word & ((begin & 63) == 0 ? 0
                                  : ((uint64_t{1} << (begin & 63)) - 1))));
    uint64_t rr = r + bits_before;
    for (uint64_t pos = begin; pos < end; ++pos) {
      bool is_exception = (word >> (pos & 63)) & 1;
      if (is_exception) {
        ValueId v = static_cast<ValueId>(exceptions_.Get(rr++));
        if (std::binary_search(sorted_vids.begin(), sorted_vids.end(), v)) {
          out->push_back(base + static_cast<RowPos>(pos - from));
        }
      } else if (dominant_matches) {
        out->push_back(base + static_cast<RowPos>(pos - from));
      }
    }
    r += static_cast<uint64_t>(std::popcount(word));
  }
}

}  // namespace payg
