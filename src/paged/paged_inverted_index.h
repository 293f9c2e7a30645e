#ifndef PAYG_PAGED_PAGED_INVERTED_INDEX_H_
#define PAYG_PAGED_PAGED_INVERTED_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/result.h"
#include "encoding/bit_packing.h"
#include "paged/page_cache.h"
#include "storage/storage_manager.h"

namespace payg {

// Paged inverted index (§3.3): the postinglist (row positions reordered by
// vid) and the directory (first-posting offset per vid) persisted in a
// single chain of index pages:
//
//   page 0                meta
//   pages 1..pl_pages     postinglist blocks (n_pos-bit chunks)
//   [mixed page]          trailing postinglist block + first directory block
//   remaining pages       directory blocks (n_off-bit chunks)
//
// For unique columns the directory is an identity vector and is not stored
// at all. Block values are packed in 64-value chunks like the data vector,
// so posting j / directory entry k map to (logical page, in-page slot) by
// pure arithmetic — Eq. (1) and (2) of the paper.
class PagedInvertedIndex {
 public:
  // Builds from the per-row vids of the main fragment.
  static Result<std::unique_ptr<PagedInvertedIndex>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const std::vector<ValueId>& vids,
      uint64_t dict_size);

  static Result<std::unique_ptr<PagedInvertedIndex>> Open(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name);

  bool unique() const { return unique_; }
  uint64_t posting_count() const { return posting_count_; }
  uint64_t dict_size() const { return dict_size_; }
  bool has_mixed_page() const { return mixed_lpn_ != kInvalidPageNo; }

  PageCache* cache() { return cache_.get(); }
  void Unload() { cache_->DropAll(); }

 private:
  friend class PagedIndexIterator;

  PagedInvertedIndex() = default;

  // --- meta (mirrored on page 0) -------------------------------------------
  bool unique_ = false;
  uint32_t bits_pos_ = 1;       // bit width of a row position
  uint32_t bits_off_ = 1;       // bit width of a directory offset
  uint64_t posting_count_ = 0;  // == row count of the fragment
  uint64_t dict_size_ = 0;
  uint64_t pl_per_page_ = 0;    // postings per full postinglist page
  uint64_t pl_pages_ = 0;       // number of full postinglist pages
  uint64_t mixed_pl_count_ = 0; // postings stored on the mixed page
  LogicalPageNo mixed_lpn_ = kInvalidPageNo;
  uint64_t v_first_ = 0;        // directory entries on page b (Eq. 1)
  uint64_t v_page_ = 0;         // entries per full directory page
  LogicalPageNo dir_first_lpn_ = kInvalidPageNo;  // page b when no mixed page

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<PageCache> cache_;
};

// Iterator implementing getFirstRowPos(vid) / getNextRowPos() (§3.3.2). It
// keeps at most two pages pinned — the current directory page and the
// current postinglist page — and retains the postinglist pin across
// getNextRowPos calls so consecutive postings of the same vid hit the
// already-loaded page.
class PagedIndexIterator {
 public:
  // `ctx` (optional) attributes page pins/reads to the owning query.
  explicit PagedIndexIterator(PagedInvertedIndex* index,
                              ExecContext* ctx = nullptr)
      : index_(index), ctx_(ctx) {}

  // Positions the iterator on `vid` and returns its first row position.
  // Returns NotFound if the vid has no postings (possible only for
  // non-dense vid sets after deletes; dense builds always have ≥1).
  Result<RowPos> GetFirstRowPos(ValueId vid);

  // True while more postings remain for the current vid.
  bool HasNext() const { return cursor_ < end_; }

  // Next row position for the current vid; requires HasNext().
  Result<RowPos> GetNextRowPos();

  // Convenience: all row positions for `vid`.
  Status Lookup(ValueId vid, std::vector<RowPos>* out);

  // Number of postings of `vid` without reading any: 1 in a unique index,
  // else the difference of directory entries vid + 1 and vid (usually one
  // directory page).
  Result<uint64_t> CountPostings(ValueId vid);

  uint64_t pages_touched() const { return pages_touched_; }

  // Pages to prefetch ahead of the posting cursor when a long postinglist
  // crosses page boundaries (capped by where the current vid's postings
  // end). Defaults to DefaultReadaheadWindow() (PAYG_READAHEAD); 0
  // disables readahead for this iterator.
  void set_readahead(uint32_t pages) { readahead_.set_pages(pages); }
  uint32_t readahead() const { return readahead_.pages(); }

 private:
  // Directory entry k (k ∈ [0, dict_size]); entry dict_size is the end
  // sentinel equal to posting_count.
  Result<uint64_t> ReadDirEntry(uint64_t k);
  // Posting at global offset j.
  Result<RowPos> ReadPosting(uint64_t j);

  PagedInvertedIndex* index_;
  ExecContext* ctx_ = nullptr;
  PageRef dir_page_;
  LogicalPageNo dir_lpn_ = kInvalidPageNo;
  PageRef pl_page_;
  LogicalPageNo pl_lpn_ = kInvalidPageNo;
  uint64_t cursor_ = 0;  // next posting offset to read
  uint64_t end_ = 0;     // one past the last posting of the current vid
  uint64_t pages_touched_ = 0;
  ReadaheadWindow readahead_;  // advanced by the forward posting walk
};

}  // namespace payg

#endif  // PAYG_PAGED_PAGED_INVERTED_INDEX_H_
