#include "paged/paged_numeric_dictionary.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "common/bit_util.h"
#include "encoding/bit_packing.h"
#include "storage/byte_stream.h"

namespace payg {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
// Width of a page that stores raw keys.
constexpr uint32_t kRawWidth = 64;
// A one-page dictionary gets the smallest power of two from here up that
// holds it.
constexpr uint32_t kMinDictPageSize = 4096;
// Largest page size a meta chain may name.
constexpr uint32_t kMaxDictPageSize = 1u << 30;

std::string ChainName(const std::string& name) { return name + ".ndict"; }

// Payload bytes of `count` keys at `width`: whole 64-key chunks plus the
// spare word the packed kernels' 8-byte window may overread.
uint64_t PackedBytes(uint64_t count, uint32_t width) {
  return CeilDiv(count, kChunkValues) * 8 * width + sizeof(uint64_t);
}

// Keys per page at `width` in a payload of `capacity` bytes.
uint64_t ValuesPerPage(uint32_t capacity, uint32_t width) {
  return (capacity - sizeof(uint64_t)) / (8 * width) * kChunkValues;
}

struct Frame {
  NumericDictFence fence;
  uint32_t width = 1;
};

// Width of a frame of n keys from its first key to `last` at `stride`. The
// residuals never decrease, so the last one is the largest.
uint32_t FrameWidth(uint64_t first, uint64_t last, uint64_t stride,
                    uint64_t n) {
  const uint32_t bits = BitsNeeded(last - first - stride * (n - 1));
  return bits > 32 ? kRawWidth : bits;
}

// The strided frame of keys[0, n), n >= 1.
Frame FrameOf(const uint64_t* keys, uint64_t n) {
  Frame f;
  f.fence.base = keys[0];
  f.fence.stride = n > 1 ? ~uint64_t{0} : 0;
  for (uint64_t i = 1; i < n; ++i) {
    f.fence.stride = std::min(f.fence.stride, keys[i] - keys[i - 1]);
  }
  f.width = FrameWidth(keys[0], keys[n - 1], f.fence.stride, n);
  return f;
}

// The frames of `keys` cut into pages of `per_page`; false as soon as one
// needs more than `max_width` bits.
bool FramesFit(const std::vector<uint64_t>& keys, uint64_t per_page,
               uint32_t max_width, std::vector<Frame>* frames) {
  frames->clear();
  for (uint64_t first = 0; first < keys.size(); first += per_page) {
    const Frame f = FrameOf(keys.data() + first,
                            std::min(per_page, keys.size() - first));
    if (f.width > max_width) return false;
    frames->push_back(f);
  }
  return true;
}

struct Geometry {
  uint32_t page_size = 0;
  uint64_t values_per_page = kChunkValues;
  std::vector<Frame> frames;
};

// A dictionary that fits one page of `page_size` gets a single page: the
// smallest power of two >= 4 KiB that holds it. A larger one uses
// `page_size` pages of N keys, where N = ValuesPerPage(capacity, w) for the
// smallest w in 1..32, then 64, at which every page's residuals fit w
// bits: the largest such N.
Geometry PlanGeometry(const std::vector<uint64_t>& keys, uint32_t page_size) {
  Geometry g;
  const uint32_t capacity = page_size - sizeof(PageHeader);
  g.page_size = std::min(kMinDictPageSize, page_size);
  if (keys.empty()) return g;
  const Frame whole = FrameOf(keys.data(), keys.size());
  const uint64_t bytes = PackedBytes(keys.size(), whole.width);
  if (bytes <= capacity) {
    while (g.page_size < page_size &&
           g.page_size - sizeof(PageHeader) < bytes) {
      g.page_size *= 2;
    }
    g.page_size = std::min(g.page_size, page_size);
    g.values_per_page = CeilDiv(keys.size(), kChunkValues) * kChunkValues;
    g.frames = {whole};
    return g;
  }
  g.page_size = page_size;
  // The first page is a prefix of the keys, so the smallest gap of every
  // prefix gives its frame at once. It rules out most widths without a
  // pass over the keys.
  std::vector<uint64_t> prefix_min_gap(keys.size(), ~uint64_t{0});
  for (uint64_t i = 1; i < keys.size(); ++i) {
    prefix_min_gap[i] = std::min(prefix_min_gap[i - 1], keys[i] - keys[i - 1]);
  }
  for (uint32_t width = 1;; width = width < 32 ? width + 1 : kRawWidth) {
    g.values_per_page = ValuesPerPage(capacity, width);
    PAYG_ASSERT_MSG(g.values_per_page > 0, "page too small for one chunk");
    const uint64_t first = std::min(g.values_per_page, keys.size());
    if (FrameWidth(keys[0], keys[first - 1], prefix_min_gap[first - 1],
                   first) > width) {
      continue;
    }
    // Always true at kRawWidth.
    if (FramesFit(keys, g.values_per_page, width, &g.frames)) return g;
  }
}

}  // namespace

uint64_t NumericKey(int64_t value) {
  return static_cast<uint64_t>(value) ^ kSignBit;
}

uint64_t NumericKey(double value) {
  if (value == 0.0) value = 0.0;  // -0.0 keys as 0.0
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

uint64_t NumericDictPageView::Key(uint64_t i) const {
  if (width == kRawWidth) {
    uint64_t key;
    std::memcpy(&key, words + i, sizeof(key));
    return key;
  }
  return fence.base + fence.stride * i + PackedGet(words, width, i);
}

uint64_t NumericDictPageView::LowerBound(uint64_t key) const {
  uint64_t lo = 0, hi = count;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (Key(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void NumericDictPageView::AppendKeys(uint64_t from, uint64_t to,
                                     std::vector<uint64_t>* out) const {
  const size_t old = out->size();
  out->resize(old + (to - from));
  uint64_t* dst = out->data() + old;
  if (width == kRawWidth) {
    std::memcpy(dst, words + from, (to - from) * sizeof(uint64_t));
    return;
  }
  std::vector<uint32_t> residuals(to - from);
  PackedMGet(words, width, from, to, residuals.data());
  for (uint64_t i = 0; i < to - from; ++i) {
    dst[i] = fence.base + fence.stride * (from + i) + residuals[i];
  }
}

Status ParseNumericDictPage(const uint8_t* payload, uint32_t payload_size,
                            uint32_t count, uint32_t width,
                            uint64_t values_per_page,
                            const NumericDictFence& fence,
                            NumericDictPageView* out) {
  if ((width < 1 || width > 32) && width != kRawWidth) {
    return Status::Corruption("numeric dictionary page: width " +
                              std::to_string(width) +
                              " is neither in [1, 32] nor 64");
  }
  if (count > values_per_page) {
    return Status::Corruption(
        "numeric dictionary page: " + std::to_string(count) +
        " keys exceed the " + std::to_string(values_per_page) + " per page");
  }
  if (PackedBytes(count, width) > payload_size) {
    return Status::Corruption("numeric dictionary page: " +
                              std::to_string(count) + " keys at " +
                              std::to_string(width) +
                              " bits overflow the payload");
  }
  out->words = reinterpret_cast<const uint64_t*>(payload);
  out->count = count;
  out->width = width;
  out->fence = fence;
  return Status::OK();
}

Result<std::unique_ptr<PagedNumericDictionary>> PagedNumericDictionary::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, const ValueArray& sorted) {
  PAYG_ASSERT(ValueArrayType(sorted) != ValueType::kString);
  std::vector<uint64_t> keys;
  std::visit(
      [&keys](const auto& values) {
        if constexpr (std::is_arithmetic_v<ElementOf<decltype(values)>>) {
          keys.reserve(values.size());
          for (const auto v : values) keys.push_back(NumericKey(v));
        }
      },
      sorted);
  const Geometry g = PlanGeometry(keys, storage->options().page_size);
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->CreateChain(ChainName(name), g.page_size));
  Page page(g.page_size);
  page.set_type(PageType::kNumericDictionary);
  std::vector<NumericDictFence> fences;
  fences.reserve(g.frames.size());
  for (uint64_t p = 0; p < g.frames.size(); ++p) {
    const Frame& f = g.frames[p];
    const uint64_t first = p * g.values_per_page;
    const uint64_t count = std::min(g.values_per_page, keys.size() - first);
    std::memset(page.payload(), 0, page.capacity());
    if (f.width == kRawWidth) {
      std::memcpy(page.payload(), keys.data() + first,
                  count * sizeof(uint64_t));
    } else {
      uint64_t* words = reinterpret_cast<uint64_t*>(page.payload());
      for (uint64_t i = 0; i < count; ++i) {
        PackedSet(words, f.width, i,
                  keys[first + i] - f.fence.base - f.fence.stride * i);
      }
    }
    page.set_payload_size(static_cast<uint32_t>(PackedBytes(count, f.width)));
    page.header()->aux = static_cast<uint32_t>(count);
    page.header()->aux2 = f.width;
    auto r = file->AppendPage(&page);
    if (!r.ok()) return r.status();
    fences.push_back(f.fence);
  }
  return Make(rm, pool, ValueArrayType(sorted), keys.size(), g.values_per_page,
              std::move(fences), std::move(file));
}

Result<std::unique_ptr<PagedNumericDictionary>> PagedNumericDictionary::Open(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, ValueType type, uint64_t size,
    ChainByteReader* meta) {
  PAYG_ASSIGN_OR_RETURN(uint32_t page_size, meta->GetU32());
  PAYG_ASSIGN_OR_RETURN(uint64_t per_page, meta->GetU64());
  PAYG_ASSIGN_OR_RETURN(uint64_t pages, meta->GetU64());
  if (page_size <= sizeof(PageHeader) + sizeof(uint64_t) ||
      page_size > kMaxDictPageSize) {
    return Status::Corruption("numeric dictionary: page size " +
                              std::to_string(page_size) + " out of range");
  }
  if (per_page == 0 || per_page % kChunkValues != 0) {
    return Status::Corruption(
        "numeric dictionary: values per page not a positive multiple of 64");
  }
  if (pages != size / per_page + (size % per_page != 0 ? 1 : 0)) {
    return Status::Corruption("numeric dictionary: " + std::to_string(pages) +
                              " pages cannot hold " + std::to_string(size) +
                              " values at " + std::to_string(per_page) +
                              " per page");
  }
  // Bounded by what the meta chain can hold before anything is allocated.
  if (pages > meta->BytesLeftAtMost() / (2 * sizeof(uint64_t))) {
    return Status::Corruption("numeric dictionary: fence past the end of "
                              "its meta chain");
  }
  std::vector<NumericDictFence> fences(pages);
  for (uint64_t p = 0; p < pages; ++p) {
    PAYG_ASSIGN_OR_RETURN(fences[p].base, meta->GetU64());
    PAYG_ASSIGN_OR_RETURN(fences[p].stride, meta->GetU64());
    if (p > 0 && fences[p].base <= fences[p - 1].base) {
      return Status::Corruption(
          "numeric dictionary: fence bases not strictly increasing at page " +
          std::to_string(p));
    }
  }
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->OpenChain(ChainName(name), page_size));
  if (file->page_count() != pages) {
    return Status::Corruption("numeric dictionary: chain holds " +
                              std::to_string(file->page_count()) +
                              " pages, its fence names " +
                              std::to_string(pages));
  }
  return Make(rm, pool, type, size, per_page, std::move(fences),
              std::move(file));
}

std::unique_ptr<PagedNumericDictionary> PagedNumericDictionary::Make(
    ResourceManager* rm, PoolId pool, ValueType type, uint64_t size,
    uint64_t values_per_page,
    std::vector<NumericDictFence> fences, std::unique_ptr<PageFile> file) {
  auto dict =
      std::unique_ptr<PagedNumericDictionary>(new PagedNumericDictionary());
  dict->type_ = type;
  dict->size_ = size;
  dict->values_per_page_ = values_per_page;
  dict->fences_ = std::move(fences);
  dict->file_ = std::move(file);
  dict->cache_ = std::make_unique<PageCache>(dict->file_.get(), rm, pool);
  return dict;
}

void PagedNumericDictionary::WriteGeometry(ChainByteWriter* meta) const {
  meta->PutU32(file_->page_size());
  meta->PutU64(values_per_page_);
  meta->PutU64(fences_.size());
  for (const NumericDictFence& f : fences_) {
    meta->PutU64(f.base);
    meta->PutU64(f.stride);
  }
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

Status PagedNumericDictionaryIterator::LoadPage(uint64_t ord,
                                                PinnedPage* out) {
  PAYG_ASSIGN_OR_RETURN(out->ref, dict_->cache_->GetPage(ord, ctx_));
  ++pages_touched_;
  const Page& page = out->ref.page();
  if (page.type() != PageType::kNumericDictionary) {
    return Status::Corruption("numeric dictionary page " +
                              std::to_string(ord) + " has page type " +
                              std::to_string(page.header()->type));
  }
  PAYG_RETURN_IF_ERROR(ParseNumericDictPage(
      page.payload(), page.payload_size(), page.header()->aux,
      page.header()->aux2, dict_->values_per_page_, dict_->fences_[ord],
      &out->view));
  const uint64_t first = ord * dict_->values_per_page_;
  const uint64_t expect =
      std::min(dict_->values_per_page_, dict_->size_ - first);
  if (out->view.count != expect) {
    return Status::Corruption("numeric dictionary page " +
                              std::to_string(ord) + " holds " +
                              std::to_string(out->view.count) +
                              " keys, its fence expects " +
                              std::to_string(expect));
  }
  return Status::OK();
}

Result<const NumericDictPageView*> PagedNumericDictionaryIterator::GetPage(
    uint64_t ord) {
  if (ord == last_ord_) return last_;
  if (pinned_.empty()) pinned_.resize(dict_->page_count());
  std::unique_ptr<PinnedPage>& slot = pinned_[ord];
  if (slot == nullptr) {
    auto page = std::make_unique<PinnedPage>();
    PAYG_RETURN_IF_ERROR(LoadPage(ord, page.get()));
    slot = std::move(page);
  }
  last_ord_ = ord;
  last_first_ = ord * dict_->values_per_page_;
  last_ = &slot->view;
  return last_;
}

Result<Value> PagedNumericDictionaryIterator::GetValue(ValueId vid) {
  if (vid >= dict_->size_) return Status::OutOfRange("value id");
  // A vid on the last page touched needs no division.
  if (last_ == nullptr || vid - last_first_ >= last_->count) {
    auto page = GetPage(vid / dict_->values_per_page_);
    if (!page.ok()) return page.status();
  }
  const uint64_t key = last_->Key(vid - last_first_);
  if (dict_->type_ == ValueType::kInt64) {
    return Value(NumericValueOfKey<int64_t>(key));
  }
  return Value(NumericValueOfKey<double>(key));
}

Status PagedNumericDictionaryIterator::MGetValues(ValueId from, ValueId to,
                                                  ValueArray* out) {
  if (from > to || to > dict_->size_) {
    return Status::OutOfRange("value id range");
  }
  PAYG_ASSERT(ValueArrayType(*out) == dict_->type_);
  const uint64_t per_page = dict_->values_per_page_;
  std::vector<uint64_t> keys;
  for (uint64_t vid = from; vid < to;) {
    const uint64_t ord = vid / per_page;
    const uint64_t first = ord * per_page;
    const uint64_t stop = std::min<uint64_t>(to, first + per_page);
    PinnedPage page;
    PAYG_RETURN_IF_ERROR(LoadPage(ord, &page));
    keys.clear();
    page.view.AppendKeys(vid - first, stop - first, &keys);
    std::visit(
        [&keys](auto& values) {
          using T = ElementOf<decltype(values)>;
          if constexpr (std::is_arithmetic_v<T>) {
            for (uint64_t key : keys) {
              values.push_back(NumericValueOfKey<T>(key));
            }
          }
        },
        *out);
    vid = stop;
  }
  return Status::OK();
}

Status PagedNumericDictionaryIterator::Search(const Value& value,
                                              ValueId* pos, bool* exact) {
  PAYG_ASSERT(value.type() == dict_->type_);
  *exact = false;
  const uint64_t key = value.type() == ValueType::kInt64
                           ? NumericKey(value.AsInt64())
                           : NumericKey(value.AsDouble());
  // The last page whose base is <= key; every key on a later page is
  // larger.
  const auto& fences = dict_->fences_;
  auto it = std::upper_bound(
      fences.begin(), fences.end(), key,
      [](uint64_t k, const NumericDictFence& f) { return k < f.base; });
  if (it == fences.begin()) {
    *pos = 0;
    return Status::OK();
  }
  const uint64_t ord = static_cast<uint64_t>(it - fences.begin()) - 1;
  PAYG_ASSIGN_OR_RETURN(const NumericDictPageView* page, GetPage(ord));
  const uint64_t i = page->LowerBound(key);
  *exact = i < page->count && page->Key(i) == key;
  *pos = static_cast<ValueId>(ord * dict_->values_per_page_ + i);
  return Status::OK();
}

Result<ValueId> PagedNumericDictionaryIterator::FindValueId(
    const Value& value) {
  ValueId pos;
  bool exact;
  PAYG_RETURN_IF_ERROR(Search(value, &pos, &exact));
  return exact ? pos : kInvalidValueId;
}

Result<ValueId> PagedNumericDictionaryIterator::LowerBound(
    const Value& value) {
  ValueId pos;
  bool exact;
  PAYG_RETURN_IF_ERROR(Search(value, &pos, &exact));
  return pos;
}

Result<ValueId> PagedNumericDictionaryIterator::UpperBound(
    const Value& value) {
  ValueId pos;
  bool exact;
  PAYG_RETURN_IF_ERROR(Search(value, &pos, &exact));
  return exact ? pos + 1 : pos;
}

}  // namespace payg
