#include "columnar/dictionary.h"

#include <algorithm>
#include <type_traits>

#include "storage/byte_stream.h"

namespace payg {

namespace {

template <typename T>
Result<Dictionary> ReadNumbers(ChainByteReader* r, uint64_t size) {
  std::vector<T> values(size);
  PAYG_RETURN_IF_ERROR(r->GetBytes(values.data(), size * sizeof(T)));
  return Dictionary(std::move(values));
}

}  // namespace

Result<Dictionary> Dictionary::Read(ChainByteReader* r, ValueType type,
                                    uint64_t size) {
  // Every entry takes at least 8 bytes (a number, or a string's length), so
  // a size the rest of the chain cannot hold is corrupt, not an allocation.
  if (size > r->BytesLeftAtMost() / 8) {
    return Status::Corruption("dictionary size past the end of its chain");
  }
  switch (type) {
    case ValueType::kInt64:
      return ReadNumbers<int64_t>(r, size);
    case ValueType::kDouble:
      return ReadNumbers<double>(r, size);
    case ValueType::kString: {
      std::vector<std::string> values;
      values.reserve(size);
      for (uint64_t i = 0; i < size; ++i) {
        PAYG_ASSIGN_OR_RETURN(std::string s, r->GetString());
        values.push_back(std::move(s));
      }
      return Dictionary(std::move(values));
    }
  }
  return Status::Corruption("unknown dictionary value type");
}

void Dictionary::Write(ChainByteWriter* w, const ValueArray& values) {
  std::visit(
      [w](const auto& typed) {
        using T = ElementOf<decltype(typed)>;
        if constexpr (std::is_same_v<T, std::string>) {
          for (const std::string& s : typed) w->PutString(s);
        } else {
          w->PutBytes(typed.data(), typed.size() * sizeof(T));
        }
      },
      values);
}

void Dictionary::CheckSorted() const {
#ifndef NDEBUG
  std::visit(
      [](const auto& values) {
        for (size_t i = 0; i + 1 < values.size(); ++i) {
          PAYG_ASSERT_MSG(values[i] < values[i + 1],
                          "dictionary input not sorted/unique");
        }
      },
      values_);
#endif
}

void Dictionary::AppendValues(ValueId from, ValueId to,
                              ValueArray* out) const {
  std::visit(
      [&](const auto& values) {
        PAYG_ASSERT(from <= to && to <= values.size());
        auto& typed = std::get<std::decay_t<decltype(values)>>(*out);
        typed.insert(typed.end(), values.begin() + from, values.begin() + to);
      },
      values_);
}

std::optional<ValueId> Dictionary::FindValueId(const Value& value) const {
  return std::visit(
      [&value](const auto& values) -> std::optional<ValueId> {
        const auto& key = value.As<ElementOf<decltype(values)>>();
        auto it = std::lower_bound(values.begin(), values.end(), key);
        if (it == values.end() || key < *it) return std::nullopt;
        return static_cast<ValueId>(it - values.begin());
      },
      values_);
}

ValueId Dictionary::LowerBound(const Value& value) const {
  return std::visit(
      [&value](const auto& values) {
        const auto& key = value.As<ElementOf<decltype(values)>>();
        return static_cast<ValueId>(
            std::lower_bound(values.begin(), values.end(), key) -
            values.begin());
      },
      values_);
}

ValueId Dictionary::UpperBound(const Value& value) const {
  return std::visit(
      [&value](const auto& values) {
        const auto& key = value.As<ElementOf<decltype(values)>>();
        return static_cast<ValueId>(
            std::upper_bound(values.begin(), values.end(), key) -
            values.begin());
      },
      values_);
}

uint64_t Dictionary::MemoryBytes() const {
  return std::visit(
      [](const auto& values) {
        using T = ElementOf<decltype(values)>;
        uint64_t bytes = values.capacity() * sizeof(T);
        if constexpr (std::is_same_v<T, std::string>) {
          for (const std::string& s : values) bytes += s.capacity();
        }
        return bytes;
      },
      values_);
}

}  // namespace payg
