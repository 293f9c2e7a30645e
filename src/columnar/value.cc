#include "columnar/value.h"

namespace payg {

std::string_view ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int Value::Compare(const Value& other) const {
  PAYG_ASSERT_MSG(type() == other.type(), "comparing values of unequal type");
  switch (type()) {
    case ValueType::kInt64: {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString:
      return AsString().compare(other.AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      return std::to_string(AsDouble());
    case ValueType::kString:
      return AsString();
  }
  return "";
}

}  // namespace payg
