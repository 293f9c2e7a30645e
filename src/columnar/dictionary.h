#ifndef PAYG_COLUMNAR_DICTIONARY_H_
#define PAYG_COLUMNAR_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>

#include "columnar/value.h"
#include "common/macros.h"
#include "common/result.h"
#include "encoding/types.h"

namespace payg {

class ChainByteReader;
class ChainByteWriter;

// Order-preserving in-memory main dictionary (§2): values are sorted and
// value identifiers are assigned in the same order, so vid comparison is
// value comparison. This is the dictionary of a fully loadable (default)
// column; a page loadable column pages its dictionary instead
// (PagedDictionary for strings, PagedNumericDictionary for numbers), and
// Read() also opens the values a legacy paged numeric meta chain embeds.
//
// The values live in one typed array, so a numeric entry costs 8 bytes, not
// a Value. Lookups binary-search it with the element type's `<`, which on
// every type is the order Value::Compare defines: NaN never reaches a
// dictionary, -0.0 equals 0.0, and strings compare bytewise.
class Dictionary {
 public:
  // An empty INT64 dictionary.
  Dictionary() = default;

  // Takes values that must already be sorted ascending and unique.
  explicit Dictionary(ValueArray sorted) : values_(std::move(sorted)) {
    CheckSorted();
  }

  // Reads `size` values of `type` in the layout Write() produces.
  static Result<Dictionary> Read(ChainByteReader* r, ValueType type,
                                 uint64_t size);

  // Appends sorted `values` to a chain: numbers as raw 8-byte words,
  // strings length-prefixed.
  static void Write(ChainByteWriter* w, const ValueArray& values);

  ValueType type() const { return ValueArrayType(values_); }
  uint64_t size() const { return ValueArraySize(values_); }
  const ValueArray& values() const { return values_; }

  // The value encoded by `vid`.
  Value GetValue(ValueId vid) const { return ValueAt(values_, vid); }

  // Appends the values of vids [from, to), in vid order, to `out`, which
  // holds this dictionary's type.
  void AppendValues(ValueId from, ValueId to, ValueArray* out) const;

  // The vid encoding `value`, if present.
  std::optional<ValueId> FindValueId(const Value& value) const;

  // Index of the first dictionary value >= `value` (== size() when all are
  // smaller). Range predicates on the data vector are translated to vid
  // ranges through this.
  ValueId LowerBound(const Value& value) const;

  // Index of the first dictionary value > `value`.
  ValueId UpperBound(const Value& value) const;

  // Heap footprint for buffer-manager accounting.
  uint64_t MemoryBytes() const;

 private:
  void CheckSorted() const;

  ValueArray values_;
};

}  // namespace payg

#endif  // PAYG_COLUMNAR_DICTIONARY_H_
