#ifndef PAYG_COLUMNAR_DELTA_FRAGMENT_H_
#define PAYG_COLUMNAR_DELTA_FRAGMENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "columnar/value.h"
#include "common/macros.h"
#include "encoding/types.h"

namespace payg {

// Write-optimized delta fragment of one column (§2). Inserts append a row;
// the dictionary is a typed array in arrival order (NOT order-preserving —
// keeping it sorted under writes would be too costly, as the paper notes),
// with a hash map from the element type to its vid. A -0.0 and a 0.0 are
// one key there (they compare and hash equal), holding the first arrival.
// Always fully memory resident; the regular delta merge keeps it small
// relative to the main fragment.
class DeltaFragment {
 public:
  explicit DeltaFragment(ValueType type)
      : values_(MakeValueArray(type)),
        lookup_(VariantOfType<decltype(lookup_)>(type)) {}

  // Enables the memory-resident inverted index on this delta (§2: "each
  // fragment may also have a memory resident inverted index"). Maintained
  // incrementally by Append; FindRows then answers without scanning the vid
  // vector. Must be called while the fragment is empty.
  void EnableIndex() {
    PAYG_ASSERT_MSG(empty(), "enable the delta index before inserts");
    indexed_ = true;
  }
  bool has_index() const { return indexed_; }

  ValueType type() const { return ValueArrayType(values_); }
  uint64_t row_count() const { return vids_.size(); }
  uint64_t dict_size() const { return ValueArraySize(values_); }
  bool empty() const { return vids_.empty(); }

  // Appends one row, interning the value. Returns the row position.
  RowPos Append(const Value& value);

  ValueId GetVid(RowPos rpos) const {
    PAYG_ASSERT(rpos < vids_.size());
    return vids_[rpos];
  }

  Value GetValue(ValueId vid) const { return ValueAt(values_, vid); }

  // The dictionary, in vid (arrival) order.
  const ValueArray& values() const { return values_; }

  // Row positions (within the delta) whose value equals `value`.
  void FindRows(const Value& value, std::vector<RowPos>* out) const;

  // Row positions whose value satisfies an arbitrary predicate (ranges,
  // IN-lists, prefix matches). The dictionary is unsorted, so qualifying
  // vids are first collected by one dictionary scan, then the vid vector is
  // scanned once.
  void FindRowsMatching(const std::function<bool(const Value&)>& pred,
                        std::vector<RowPos>* out) const;

  uint64_t MemoryBytes() const;

  void Clear();

 private:
  template <typename T>
  using Lookup = std::unordered_map<T, ValueId>;

  bool indexed_ = false;
  std::vector<ValueId> vids_;
  ValueArray values_;  // by first appearance
  // Value → vid; holds the alternative of values_'s element type.
  std::variant<Lookup<int64_t>, Lookup<double>, Lookup<std::string>> lookup_;
  std::vector<std::vector<RowPos>> postings_;  // per vid, if indexed_
};

}  // namespace payg

#endif  // PAYG_COLUMNAR_DELTA_FRAGMENT_H_
