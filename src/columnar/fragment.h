#ifndef PAYG_COLUMNAR_FRAGMENT_H_
#define PAYG_COLUMNAR_FRAGMENT_H_

#include <memory>
#include <optional>
#include <vector>

#include "columnar/value.h"
#include "common/result.h"
#include "common/status.h"
#include "encoding/types.h"

namespace payg {

class ExecContext;
struct PageLoad;

// Per-query stateful reader over a main fragment. Readers own the paging
// state the paper attaches to iterators: pinned page handles, the
// dictionary handle cache, and inverted-index cursors. Destroying the reader
// releases every pin (iterator "goes out of scope", §3.2.3). The in-memory
// implementation is a thin pass-through.
//
// Readers are not thread-safe; create one per query.
class FragmentReader {
 public:
  virtual ~FragmentReader() = default;

  // --- data vector ---------------------------------------------------------
  // Decodes the value identifier at one row position.
  virtual Result<ValueId> GetVid(RowPos rpos) = 0;
  // Decodes all vids in [from, to) (appended to *out).
  virtual Status MGetVids(RowPos from, RowPos to,
                          std::vector<ValueId>* out) = 0;
  // Scans rows [from, to) for vids in [lo, hi]; appends matches to *out.
  virtual Status SearchVidRange(RowPos from, RowPos to, ValueId lo, ValueId hi,
                                std::vector<RowPos>* out) = 0;
  // Scans rows [from, to) for vids in `sorted_vids` (ascending).
  virtual Status SearchVidSet(RowPos from, RowPos to,
                              const std::vector<ValueId>& sorted_vids,
                              std::vector<RowPos>* out) = 0;
  // search(row list, vid range): of the candidate rows (ascending), keeps
  // those whose vid is in [lo, hi]. This is the paper's search variety over
  // a set of row positions — the building block for conjunctive predicates.
  virtual Status FilterRows(const std::vector<RowPos>& rows, ValueId lo,
                            ValueId hi, std::vector<RowPos>* out) = 0;

  // --- value lookup (index if present, else full data-vector scan) ----------
  virtual Status FindRows(ValueId vid, std::vector<RowPos>* out) = 0;
  // COUNT(*) of the rows FindRows would return. With an index it reads only
  // the directory (§3.3: the span of `vid` is the difference of two
  // entries), never a posting; without one it is the FindRows scan.
  virtual Result<uint64_t> CountRows(ValueId vid) = 0;

  // --- dictionary ----------------------------------------------------------
  virtual Result<Value> GetValueForVid(ValueId vid) = 0;
  // Decodes the values of vids [from, to), appended to *out, which holds
  // the fragment's type; the dictionary counterpart of MGetVids. Vid order
  // is value order, so (0, dict_size) yields the sorted, unique dictionary.
  virtual Status MGetValues(ValueId from, ValueId to, ValueArray* out) = 0;
  // kInvalidValueId when absent.
  virtual Result<ValueId> FindValueId(const Value& value) = 0;
  // First vid whose value is >= / > `value` (vid space is value-ordered).
  virtual Result<ValueId> LowerBoundVid(const Value& value) = 0;
  virtual Result<ValueId> UpperBoundVid(const Value& value) = 0;
};

// A read-optimized main fragment (§2): encoded data vector + order
// preserving dictionary + optional inverted index. Two implementations:
// FullyResidentFragment (default columns — loaded entirely on first access)
// and PagedFragment (page loadable columns — loaded piecewise).
class MainFragment {
 public:
  virtual ~MainFragment() = default;

  virtual uint64_t row_count() const = 0;
  virtual uint64_t dict_size() const = 0;
  virtual ValueType type() const = 0;
  virtual bool has_index() const = 0;
  virtual bool is_paged() const = 0;

  // Display name of the data vector's storage codec (S22). Fully resident
  // fragments keep the in-memory packed/sparse encoding and report
  // "resident"; paged fragments report the persisted codec ("plain",
  // "for", "rle").
  virtual const char* codec_name() const { return "resident"; }

  // Creates a per-query reader. For a fully resident fragment this triggers
  // the full column load on first access; for a paged fragment it is cheap
  // and pages load lazily as the reader touches them. When `ctx` is given,
  // the reader attributes its page pins, reads, and scanned rows to that
  // query and honours its deadline.
  virtual Result<std::unique_ptr<FragmentReader>> NewReader(
      ExecContext* ctx) = 0;
  Result<std::unique_ptr<FragmentReader>> NewReader() {
    return NewReader(nullptr);
  }

  // Appends to *out the data-vector pages a reader needs to decode the
  // vids of the main rows among `rows` (ascending), at most IoQueueDepth()
  // of them: one I/O wave. Materialize loads every projected column's
  // pages in one batch (PageCache::LoadBatch) before it reads them. A
  // fully resident fragment has none to add.
  virtual void AddRowPages(const std::vector<RowPos>& /*rows*/,
                           std::vector<PageLoad>* /*out*/) {}

  // Drops all resident memory (column unload). Safe to call while no
  // readers are open.
  virtual void Unload() = 0;

  // Bytes currently resident for this fragment as tracked by the resource
  // manager (0 when fully unloaded).
  virtual uint64_t ResidentBytes() const = 0;
};

}  // namespace payg

#endif  // PAYG_COLUMNAR_FRAGMENT_H_
