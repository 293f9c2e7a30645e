#ifndef PAYG_PAGED_PAGED_DATA_VECTOR_H_
#define PAYG_PAGED_PAGED_DATA_VECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/lazy_resource.h"
#include "buffer/resource_manager.h"
#include "common/result.h"
#include "encoding/bit_packing.h"
#include "encoding/codec.h"
#include "paged/page_cache.h"
#include "paged/page_summary.h"
#include "storage/storage_manager.h"

namespace payg {

// Parsed contents of a data vector meta page (page 0 of a `.dv` chain).
struct DataVectorMeta {
  uint64_t row_count = 0;
  uint64_t values_per_page = 0;
  CodecChoice codec;
};

// Parses and validates one meta-page payload. `payload_size` selects the
// layout (24 bytes = version 0, pre-codec; 36 bytes = version 1 with the
// codec identity) and anything else is Corruption, as is a bad version
// word, an unknown codec id, or geometry the kernels cannot run on (bits
// outside [1, 32], values_per_page not a positive multiple of 64). The
// payload is untrusted input — this is the function the meta-page fuzzer
// drives (fuzz/fuzz_meta_page).
Status ParseDataVectorMeta(const uint8_t* payload, uint32_t payload_size,
                           DataVectorMeta* out);

// Paged data vector (§3.1): value identifiers encoded page by page with a
// per-column codec (S22 — plain n-bit packing, FOR residuals, or RLE runs),
// stored as a chain of disk pages. Every codec keeps a fixed number of
// values per page (a multiple of the 64-value chunk), so row position →
// logical page number stays pure arithmetic, which is what lets the
// iterator load exactly the pages a row range needs.
//
// Chain layout: page 0 is a meta page (format version, codec id + params,
// bits, row count); pages 1..N hold encoded data. Version-0 meta pages
// (pre-codec, 24-byte payload) still open and decode as plain.
class PagedDataVector {
 public:
  // Builds and persists a new paged data vector under chain `<name>.dv`,
  // selecting the codec via ResolveCodec (PAYG_FORCE_CODEC, then the cost
  // model).
  static Result<std::unique_ptr<PagedDataVector>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const std::vector<ValueId>& vids);

  // Builds with an explicit codec choice (the delta-merge selection pass
  // and tests pass one in; `choice` must come from MakeCodecChoice /
  // ChooseCodec over the same `vids`).
  static Result<std::unique_ptr<PagedDataVector>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const std::vector<ValueId>& vids,
      const CodecChoice& choice);

  // Opens an existing chain; reads only the meta page.
  static Result<std::unique_ptr<PagedDataVector>> Open(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name);

  uint64_t row_count() const { return row_count_; }
  // Packed width of the page payload words (plain/RLE: BitsNeeded(max);
  // FOR: BitsNeeded(max - base)).
  uint32_t bits() const { return codec_.params.bits; }
  // Codec this vector was built with (persisted in the meta page).
  CodecId codec_id() const { return codec_.id; }
  const CodecParams& codec_params() const { return codec_.params; }
  // Value identifiers stored per data page (a multiple of 64).
  uint64_t values_per_page() const { return values_per_page_; }
  uint64_t data_page_count() const { return data_pages_; }

  // Logical page number holding row `rpos` (meta page is page 0, data pages
  // start at 1).
  LogicalPageNo PageOfRow(RowPos rpos) const {
    return 1 + rpos / values_per_page_;
  }

  PageCache* cache() { return cache_.get(); }

  // Loads (or returns) the per-page min/max summary (§3.3's alternative to
  // the inverted index), pinned for the caller. Loaded whole on first use.
  Result<const PageSummary*> PinSummary(PinnedResource* pin);

  // Drops all resident pages and the summary (column unload).
  void Unload();

  ~PagedDataVector();

 private:
  friend class PagedDataVectorIterator;

  PagedDataVector() = default;

  // Reads the whole page summary chain.
  Result<std::shared_ptr<PageSummary>> LoadSummary() const;

  std::string name_;
  StorageManager* storage_ = nullptr;
  uint64_t row_count_ = 0;
  CodecChoice codec_;
  uint64_t values_per_page_ = 0;
  uint64_t data_pages_ = 0;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<LazyResource<PageSummary>> summary_;
};

// Stateful iterator over a paged data vector (§3.1.2). Keeps at most one
// data page pinned; repositioning to a new page releases the previous
// handle first. Implements the decode methods (get, mget) and the search
// method varieties over (row range | row list) × (single vid | vid range |
// vid set).
//
// Not thread-safe; create one per query.
class PagedDataVectorIterator {
 public:
  // `ctx` (optional) receives page-pin / rows-scanned attribution and is
  // consulted for the query deadline on every page load.
  explicit PagedDataVectorIterator(PagedDataVector* dv,
                                   ExecContext* ctx = nullptr)
      : dv_(dv), ctx_(ctx) {}

  // Folds the native/fallback codec-kernel tallies into the process-wide
  // codec.* counters and the query's ExecContext.
  ~PagedDataVectorIterator();

  // Decodes the value identifier at `rpos`.
  Result<ValueId> Get(RowPos rpos);

  // Decodes all vids in [from, to), appending to *out.
  Status MGet(RowPos from, RowPos to, std::vector<ValueId>* out);

  // search(range, single vid): rows in [from, to) whose vid == `vid`.
  Status SearchEq(RowPos from, RowPos to, ValueId vid,
                  std::vector<RowPos>* out);

  // search(range, vid range): rows in [from, to) with lo <= vid <= hi.
  Status SearchRange(RowPos from, RowPos to, ValueId lo, ValueId hi,
                     std::vector<RowPos>* out);

  // search(range, vid set): rows in [from, to) with vid ∈ sorted_vids.
  Status SearchIn(RowPos from, RowPos to,
                  const std::vector<ValueId>& sorted_vids,
                  std::vector<RowPos>* out);

  // search(row list, vid range): rows from `rows` (ascending) whose vid is
  // in [lo, hi].
  Status SearchRowsRange(const std::vector<RowPos>& rows, ValueId lo,
                         ValueId hi, std::vector<RowPos>* out);

  // Full-vector scan for a vid — Alg. 1 (used when no inverted index
  // exists). Loads every data page in turn.
  Status FindByValueId(ValueId vid, std::vector<RowPos>* out) {
    return SearchEq(0, static_cast<RowPos>(dv_->row_count()), vid, out);
  }

  // Pages loaded through this iterator's lifetime (tests/benchmarks).
  uint64_t pages_touched() const { return pages_touched_; }
  // Pages the min/max summary let the search methods skip without loading.
  uint64_t pages_pruned() const { return pages_pruned_; }
  // Per-page kernel dispatches that ran natively on the compressed image
  // vs. through the decode-into-scratch fallback (tests verify the native
  // matrix through these).
  uint64_t codec_native() const { return codec_stats_.native; }
  uint64_t codec_fallback() const { return codec_stats_.fallback; }

  // Whether search methods consult the per-page min/max summary to skip
  // pages whose [min,max] cannot overlap the predicate (§3.3). On by
  // default; the summary only pays off when values cluster per page.
  void set_use_summary(bool on) { use_summary_ = on; }

  // Pages to prefetch ahead of the cursor during sequential access (mget
  // and the range/set searches). Defaults to DefaultReadaheadWindow()
  // (PAYG_READAHEAD); 0 disables readahead for this iterator.
  void set_readahead(uint32_t pages) { readahead_.set_pages(pages); }
  uint32_t readahead() const { return readahead_.pages(); }

 private:
  // Pins the page holding `rpos` (releasing any previously pinned page) and
  // returns the page-local packed view. `sequential` marks a forward scan:
  // the next `readahead_` data pages are prefetched so their load overlaps
  // with this page's decode.
  Status Reposition(RowPos rpos, bool sequential = false);

  // True if the data page holding `rpos` may contain a vid in [lo, hi];
  // loads the summary lazily on first use (never fails the query: if the
  // summary cannot be loaded, every page "may" match).
  bool MayContain(RowPos rpos, ValueId lo, ValueId hi);

  // Set-aware variant for SearchIn: true if the page holding `rpos` may
  // contain any vid of `sorted_vids`. Strictly sharper than checking the
  // set's [front, back] band — a page whose [min, max] falls in a gap
  // between two probes is pruned even though it overlaps the band.
  bool MayContainAny(RowPos rpos, const std::vector<ValueId>& sorted_vids);

  PagedDataVector* dv_;
  ExecContext* ctx_ = nullptr;
  PageRef current_;
  LogicalPageNo current_lpn_ = kInvalidPageNo;
  RowPos page_first_row_ = 0;   // first row stored on the pinned page
  uint64_t page_rows_ = 0;      // rows stored on the pinned page
  CodecPageView view_;          // codec view of the pinned page
  CodecStats codec_stats_;      // native/fallback tallies + decode scratch
  uint64_t pages_touched_ = 0;
  uint64_t pages_pruned_ = 0;
  ReadaheadWindow readahead_;  // advanced by sequential Reposition
  bool use_summary_ = true;
  bool summary_checked_ = false;
  const PageSummary* summary_ = nullptr;  // valid while summary_pin_ is held
  PinnedResource summary_pin_;
};

}  // namespace payg

#endif  // PAYG_PAGED_PAGED_DATA_VECTOR_H_
