#ifndef PAYG_COLUMNAR_DELTA_FRAGMENT_H_
#define PAYG_COLUMNAR_DELTA_FRAGMENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/value.h"
#include "common/macros.h"
#include "encoding/types.h"

namespace payg {

// Write-optimized delta fragment of one column (§2). Inserts append a row;
// the dictionary is built in arrival order (NOT order-preserving — keeping
// it sorted under writes would be too costly, as the paper notes), with a
// hash map for value→vid lookup. Always fully memory resident; the regular
// delta merge keeps it small relative to the main fragment.
class DeltaFragment {
 public:
  explicit DeltaFragment(ValueType type) : type_(type) {}

  // Enables the memory-resident inverted index on this delta (§2: "each
  // fragment may also have a memory resident inverted index"). Maintained
  // incrementally by Append; FindRows then answers without scanning the vid
  // vector. Must be called while the fragment is empty.
  void EnableIndex() {
    PAYG_ASSERT_MSG(empty(), "enable the delta index before inserts");
    indexed_ = true;
  }
  bool has_index() const { return indexed_; }

  ValueType type() const { return type_; }
  uint64_t row_count() const { return vids_.size(); }
  uint64_t dict_size() const { return dict_values_.size(); }
  bool empty() const { return vids_.empty(); }

  // Appends one row, interning the value. Returns the row position.
  RowPos Append(const Value& value);

  ValueId GetVid(RowPos rpos) const {
    PAYG_ASSERT(rpos < vids_.size());
    return vids_[rpos];
  }

  const Value& GetValue(ValueId vid) const {
    PAYG_ASSERT(vid < dict_values_.size());
    return dict_values_[vid];
  }

  // Row positions (within the delta) whose value equals `value`.
  void FindRows(const Value& value, std::vector<RowPos>* out) const;

  // Row positions whose value satisfies an arbitrary predicate (ranges,
  // IN-lists, prefix matches). The dictionary is unsorted, so qualifying
  // vids are first collected by one dictionary scan, then the vid vector is
  // scanned once.
  void FindRowsMatching(const std::function<bool(const Value&)>& pred,
                        std::vector<RowPos>* out) const;

  const std::vector<ValueId>& vids() const { return vids_; }
  const std::vector<Value>& dict_values() const { return dict_values_; }

  uint64_t MemoryBytes() const;

  void Clear();

 private:
  ValueType type_;
  bool indexed_ = false;
  std::vector<ValueId> vids_;
  std::vector<Value> dict_values_;                  // by first appearance
  std::unordered_map<std::string, ValueId> lookup_; // EncodeKey → vid
  std::vector<std::vector<RowPos>> postings_;       // per vid, if indexed_
};

}  // namespace payg

#endif  // PAYG_COLUMNAR_DELTA_FRAGMENT_H_
