#ifndef PAYG_COLUMNAR_VALUE_H_
#define PAYG_COLUMNAR_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

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

  // A type-tagged byte encoding usable as a hash-map key (delta
  // dictionary). Values that compare equal get equal keys.
  std::string EncodeKey() const;

  // Human-readable rendering for examples and debugging.
  std::string ToString() const;

  // Approximate heap footprint (strings only).
  uint64_t MemoryBytes() const {
    return type() == ValueType::kString ? AsString().capacity() : 0;
  }

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace payg

#endif  // PAYG_COLUMNAR_VALUE_H_
