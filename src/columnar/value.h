#ifndef PAYG_COLUMNAR_VALUE_H_
#define PAYG_COLUMNAR_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/macros.h"

namespace payg {

// Logical column types. DECIMAL is carried as a scaled int64 (the scale
// lives in the column schema); CHAR and VARCHAR are both kString.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

std::string_view ValueTypeName(ValueType t);

// A typed scalar value. Comparison is only defined between values of the
// same type (column type mismatches are programming errors, enforced by
// assertion, matching the paper's setting where queries are typed by the
// schema; Table::CheckPredicate rejects mistyped query operands before
// any compare sees them).
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(std::string_view v) : v_(std::string(v)) {}

  ValueType type() const { return static_cast<ValueType>(v_.index()); }

  int64_t AsInt64() const {
    PAYG_ASSERT(type() == ValueType::kInt64);
    return std::get<int64_t>(v_);
  }
  double AsDouble() const {
    PAYG_ASSERT(type() == ValueType::kDouble);
    return std::get<double>(v_);
  }
  const std::string& AsString() const {
    PAYG_ASSERT(type() == ValueType::kString);
    return std::get<std::string>(v_);
  }
  // The payload as T (int64_t, double or std::string), for code generic
  // over the three types; T must match type().
  template <typename T>
  const T& As() const {
    PAYG_ASSERT_MSG(std::holds_alternative<T>(v_), "value of another type");
    return std::get<T>(v_);
  }

  // Three-way comparison; requires identical types. A total order only
  // over doubles that are not NaN (Partition::Insert and
  // Table::CheckPredicate reject NaN); -0.0 compares equal to 0.0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    return type() == other.type() && Compare(other) == 0;
  }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  // Human-readable rendering for examples and debugging.
  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> v_;
};

// One column's values as one typed array: alternative i holds values of
// ValueType i. Below the Table and Partition API this is how values travel
// (dictionaries, the delta, the merge, the fragment builders); a Value is
// the edge form: rows in and out, predicate operands, the wire.
using ValueArray = std::variant<std::vector<int64_t>, std::vector<double>,
                                std::vector<std::string>>;

// The element type of a typed vector, for visitors of a ValueArray.
template <typename Vec>
using ElementOf = typename std::decay_t<Vec>::value_type;

// The default-constructed alternative `type` of a variant whose
// alternative i belongs to ValueType i, such as ValueArray.
template <typename Variant>
Variant VariantOfType(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      break;
    case ValueType::kDouble:
      return Variant(std::in_place_index<1>);
    case ValueType::kString:
      return Variant(std::in_place_index<2>);
  }
  return Variant(std::in_place_index<0>);
}

// An empty array of `type`.
inline ValueArray MakeValueArray(ValueType type) {
  return VariantOfType<ValueArray>(type);
}

inline ValueType ValueArrayType(const ValueArray& values) {
  return static_cast<ValueType>(values.index());
}

inline uint64_t ValueArraySize(const ValueArray& values) {
  return std::visit([](const auto& typed) -> uint64_t { return typed.size(); },
                    values);
}

// Entry `i` of `values` as a Value.
inline Value ValueAt(const ValueArray& values, uint64_t i) {
  return std::visit(
      [i](const auto& typed) {
        PAYG_ASSERT(i < typed.size());
        return Value(typed[i]);
      },
      values);
}

}  // namespace payg

#endif  // PAYG_COLUMNAR_VALUE_H_
