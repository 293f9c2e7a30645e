#ifndef PAYG_PAGED_PAGED_DICTIONARY_H_
#define PAYG_PAGED_PAGED_DICTIONARY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lazy_resource.h"
#include "buffer/resource_manager.h"
#include "common/result.h"
#include "encoding/string_block.h"
#include "encoding/types.h"
#include "paged/page_cache.h"
#include "storage/storage_manager.h"

namespace payg {

// Paged order-preserving string dictionary (§3.2).
//
// Persistent layout:
//  * chain `<name>.dict` — dictionary pages and overflow pages interleaved.
//    A dictionary page payload is: u32 n_blocks, n_blocks × (u32 offset,
//    u32 length), then the prefix-encoded value blocks (16 strings each,
//    Fig. 2 format). An overflow page payload is one off-page piece of a
//    large string. All blocks are full (16 strings) except possibly the
//    final block of the dictionary, so vid → (page, block, slot) is pure
//    arithmetic once the page's first vid is known.
//  * chain `<name>.dicthlp` — the two sparse helper dictionaries:
//    ipDict_ValueId, one (last_vid, lpn) entry per dictionary page, and
//    ipDict_Value, one (last_value, lpn) entry per dictionary page.
//
// The helpers are pre-loaded in full on first access (§3.2.3) and register
// as one paged-attribute resource; dictionary and overflow pages load one at
// a time through the page cache.
class PagedDictionary {
 public:
  struct Options {
    // Suffix bytes stored on-page before a string spills to overflow pages.
    uint32_t max_onpage_bytes = 4096;
  };

  static Result<std::unique_ptr<PagedDictionary>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const std::vector<std::string>& sorted_values,
      const Options& options);

  static Result<std::unique_ptr<PagedDictionary>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const std::vector<std::string>& sorted_values) {
    return Build(storage, rm, pool, name, sorted_values, Options());
  }

  static Result<std::unique_ptr<PagedDictionary>> Open(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name);

  ~PagedDictionary();

  uint64_t size() const { return dict_size_; }
  uint64_t dict_page_count() const { return dict_page_count_; }

  PageCache* cache() { return cache_.get(); }

  // Drops all resident pages and helper structures.
  void Unload();

  // True while the helper dictionaries are resident (tests).
  bool helpers_loaded() const;

 private:
  friend class PagedDictionaryIterator;

  // The always-compact transient form of both helper dictionaries.
  struct Helpers {
    std::vector<ValueId> last_vid;         // ipDict_ValueId
    std::vector<std::string> last_value;   // ipDict_Value
    std::vector<LogicalPageNo> lpn;        // page of entry i
    uint64_t MemoryBytes() const;
  };

  PagedDictionary() = default;

  // Loads (or returns) the helper dictionaries, pinning them for the
  // caller. §3.2.3: the full helper chains are pre-loaded on first access.
  Result<const Helpers*> PinHelpers(PinnedResource* pin);
  Result<std::shared_ptr<Helpers>> LoadHelpers() const;

  std::string name_;
  StorageManager* storage_ = nullptr;
  uint64_t dict_size_ = 0;
  uint64_t dict_page_count_ = 0;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<LazyResource<Helpers>> helpers_;
};

// Iterator-based access to the paged dictionary (§3.2.2/§3.2.3). Maintains
// a handle cache: every dictionary/overflow page it loads stays pinned until
// the iterator goes out of scope, so batched lookups never reload a page and
// the resource manager cannot unload pages under the iterator.
class PagedDictionaryIterator {
 public:
  // `ctx` (optional) attributes page pins/reads to the owning query.
  explicit PagedDictionaryIterator(PagedDictionary* dict,
                                   ExecContext* ctx = nullptr)
      : dict_(dict), ctx_(ctx) {}

  // Alg. 2: vid encoding `value`, or kInvalidValueId if absent.
  Result<ValueId> FindByValue(const std::string& value);

  // First vid whose value >= `value` (== size() if none); used to translate
  // range predicates into vid ranges.
  Result<ValueId> LowerBound(const std::string& value);
  // First vid whose value > `value`.
  Result<ValueId> UpperBound(const std::string& value);

  // Alg. 3: the value encoded by `vid`.
  Result<std::string> FindByValueId(ValueId vid);

  // Appends the values of vids [from, to) to *out, in vid (= value) order.
  // Finds the first page through ipDict_ValueId, then walks pages and
  // blocks in order, decoding each block once. A dictionary page stays
  // pinned only while its blocks decode (the scan never returns to it);
  // overflow pages go through the handle cache as in FindByValueId.
  Status MGetValues(ValueId from, ValueId to, std::vector<std::string>* out);

  uint64_t pages_touched() const { return pages_touched_; }

 private:
  struct PageView {
    PageRef ref;
    std::vector<std::pair<uint32_t, uint32_t>> blocks;  // (offset, length)
    ValueId first_vid = 0;
  };

  // Loads the dictionary page at helper ordinal `ord` through the handle
  // cache and parses its transient block directory.
  Result<const PageView*> GetDictPage(uint64_t ord);

  // Loads one overflow piece (handle-cached as well).
  Result<std::string> LoadOffpage(OffpageRef ref);

  Result<const PagedDictionary::Helpers*> helpers();

  // Shared search: returns the vid of the first value >= probe and whether
  // it is an exact match.
  Status SearchValue(const std::string& value, ValueId* pos, bool* exact);

  PagedDictionary* dict_;
  ExecContext* ctx_ = nullptr;
  // Valid while helpers_pin_ is held.
  const PagedDictionary::Helpers* helpers_cache_ = nullptr;
  PinnedResource helpers_pin_;
  std::map<uint64_t, PageView> handle_cache_;       // ordinal → pinned page
  std::map<LogicalPageNo, PageRef> offpage_cache_;  // pinned overflow pages
  uint64_t pages_touched_ = 0;
};

}  // namespace payg

#endif  // PAYG_PAGED_PAGED_DICTIONARY_H_
