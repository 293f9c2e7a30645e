#ifndef PAYG_PAGED_PAGED_NUMERIC_DICTIONARY_H_
#define PAYG_PAGED_PAGED_NUMERIC_DICTIONARY_H_

#include <bit>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "buffer/resource_manager.h"
#include "columnar/value.h"
#include "common/result.h"
#include "encoding/types.h"
#include "paged/page_cache.h"
#include "storage/storage_manager.h"

namespace payg {

class ChainByteReader;
class ChainByteWriter;

// Order-preserving uint64 key of a numeric dictionary value: keys compare
// as Value::Compare orders the values. An int64 flips its sign bit. A
// double folds -0.0 to 0.0, then inverts a negative's bits and sets a
// positive's sign bit. NaN never reaches a dictionary.
uint64_t NumericKey(int64_t value);
uint64_t NumericKey(double value);
// The value of `key` as T (int64_t or double).
template <typename T>
T NumericValueOfKey(uint64_t key) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  if constexpr (std::is_same_v<T, int64_t>) {
    return static_cast<int64_t>(key ^ kSignBit);
  } else {
    return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit : ~key);
  }
}

// One dictionary page's frame of reference: key i of the page is
// base + stride * i + residual i.
struct NumericDictFence {
  uint64_t base = 0;
  uint64_t stride = 0;
};

// A validated view of one dictionary page. Residuals are n-bit packed
// (width 1..32) in the layout of encoding/bit_packing.h, whole chunks plus
// one spare word; a page whose largest residual needs more than 32 bits
// stores its raw 64-bit keys instead (width 64). Residuals never decrease
// along a page, because the stride is the page's smallest gap, so the
// searches binary-search the packed words in place.
struct NumericDictPageView {
  const uint64_t* words = nullptr;
  uint64_t count = 0;
  uint32_t width = 0;
  NumericDictFence fence;

  uint64_t Key(uint64_t i) const;
  // First position whose key is >= `key` (count when none).
  uint64_t LowerBound(uint64_t key) const;
  // Appends the keys of positions [from, to), decoded with PackedMGet.
  void AppendKeys(uint64_t from, uint64_t to,
                  std::vector<uint64_t>* out) const;
};

// Bounds one dictionary page before any key is read: `width` (the header's
// aux2) in [1, 32] or 64, `count` (aux) at most `values_per_page`, and a
// payload that holds the packed image. The page bytes are untrusted input;
// fuzz/fuzz_numdict_page drives this function.
Status ParseNumericDictPage(const uint8_t* payload, uint32_t payload_size,
                            uint32_t count, uint32_t width,
                            uint64_t values_per_page,
                            const NumericDictFence& fence,
                            NumericDictPageView* out);

// Paged dictionary of a page loadable int64 or double column (§3.2): the
// sorted values, as order-preserving keys, in fixed-count pages of chain
// `<name>.ndict`, each a strided frame of reference. Every page holds
// values_per_page keys (the last one fewer), so vid → page is one
// division. The fence (base and stride of every page) is fragment
// metadata: WriteGeometry appends it to the fragment's meta chain and Open
// reads it back from there. Pages load one at a time through a PageCache
// in the fragment's pool.
class PagedNumericDictionary {
 public:
  // Builds `<name>.ndict` from a sorted, unique int64 or double array.
  static Result<std::unique_ptr<PagedNumericDictionary>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const ValueArray& sorted);

  // Opens `<name>.ndict` of a `size`-entry dictionary; `meta` is
  // positioned at the geometry WriteGeometry stored.
  static Result<std::unique_ptr<PagedNumericDictionary>> Open(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, ValueType type, uint64_t size,
      ChainByteReader* meta);

  // Appends the chain's geometry to a meta chain: page size, values per
  // page, page count and the fence.
  void WriteGeometry(ChainByteWriter* meta) const;

  uint64_t size() const { return size_; }
  uint64_t values_per_page() const { return values_per_page_; }
  uint64_t page_count() const { return fences_.size(); }
  const std::vector<NumericDictFence>& fences() const { return fences_; }
  uint32_t page_size() const { return file_->page_size(); }
  PageCache* cache() { return cache_.get(); }

  // Bytes of the dictionary pages loaded right now.
  uint64_t ResidentBytes() const {
    return cache_->loaded_page_count() * file_->page_size();
  }

  // Drops every loaded page.
  void Unload() { cache_->DropAll(); }

 private:
  friend class PagedNumericDictionaryIterator;

  PagedNumericDictionary() = default;

  static std::unique_ptr<PagedNumericDictionary> Make(
      ResourceManager* rm, PoolId pool, ValueType type, uint64_t size,
      uint64_t values_per_page,
      std::vector<NumericDictFence> fences, std::unique_ptr<PageFile> file);

  ValueType type_ = ValueType::kInt64;
  uint64_t size_ = 0;
  uint64_t values_per_page_ = 0;
  std::vector<NumericDictFence> fences_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<PageCache> cache_;
};

// Per-query access to a paged numeric dictionary. Like the string
// PagedDictionaryIterator, it keeps every page it looked up pinned until it
// goes out of scope, and it answers repeated lookups on the last page
// touched without a cache probe. A value lookup binary-searches the fence,
// then that one page; a vid lookup divides.
class PagedNumericDictionaryIterator {
 public:
  // `ctx` (optional) attributes page pins and reads to the owning query.
  explicit PagedNumericDictionaryIterator(PagedNumericDictionary* dict,
                                          ExecContext* ctx = nullptr)
      : dict_(dict), ctx_(ctx) {}

  Result<Value> GetValue(ValueId vid);

  // Appends the values of vids [from, to), in vid order, to `out`, which
  // holds the dictionary's type. Decodes page by page and pins one page at
  // a time.
  Status MGetValues(ValueId from, ValueId to, ValueArray* out);

  // kInvalidValueId when absent.
  Result<ValueId> FindValueId(const Value& value);
  // First vid whose value is >= / > `value`.
  Result<ValueId> LowerBound(const Value& value);
  Result<ValueId> UpperBound(const Value& value);

  // Pages pinned through this iterator so far.
  uint64_t pages_touched() const { return pages_touched_; }

 private:
  struct PinnedPage {
    PageRef ref;
    NumericDictPageView view;
  };

  // Page `ord`, validated and pinned until the iterator dies; it becomes
  // the last page touched.
  Result<const NumericDictPageView*> GetPage(uint64_t ord);
  // Pins page `ord` through the cache and validates it into `*out`.
  Status LoadPage(uint64_t ord, PinnedPage* out);

  // The vid of the first key >= NumericKey(value), and whether it is equal.
  Status Search(const Value& value, ValueId* pos, bool* exact);

  PagedNumericDictionary* dict_;
  ExecContext* ctx_ = nullptr;
  // Indexed by page ordinal, sized on the first lookup; null until looked
  // up.
  std::vector<std::unique_ptr<PinnedPage>> pinned_;
  uint64_t last_ord_ = ~uint64_t{0};
  uint64_t last_first_ = 0;  // first vid of page last_ord_
  const NumericDictPageView* last_ = nullptr;
  uint64_t pages_touched_ = 0;
};

}  // namespace payg

#endif  // PAYG_PAGED_PAGED_NUMERIC_DICTIONARY_H_
