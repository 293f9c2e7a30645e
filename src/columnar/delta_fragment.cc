#include "columnar/delta_fragment.h"

namespace payg {

namespace {

// Swaps `c` with an empty container, so its capacity is released too.
constexpr auto kRelease = [](auto& c) { std::decay_t<decltype(c)>().swap(c); };

}  // namespace

RowPos DeltaFragment::Append(const Value& value) {
  PAYG_ASSERT_MSG(value.type() == type(), "value type mismatch on insert");
  const ValueId vid = std::visit(
      [&](auto& values) {
        using T = ElementOf<decltype(values)>;
        const T& v = value.As<T>();
        auto [it, inserted] = std::get<Lookup<T>>(lookup_).try_emplace(
            v, static_cast<ValueId>(values.size()));
        if (inserted) values.push_back(v);
        return it->second;
      },
      values_);
  if (indexed_ && vid == postings_.size()) postings_.emplace_back();
  RowPos row = static_cast<RowPos>(vids_.size());
  vids_.push_back(vid);
  if (indexed_) postings_[vid].push_back(row);
  return row;
}

void DeltaFragment::FindRows(const Value& value,
                             std::vector<RowPos>* out) const {
  const ValueId vid = std::visit(
      [&value](const auto& lookup) {
        auto it = lookup.find(
            value.As<typename std::decay_t<decltype(lookup)>::key_type>());
        return it == lookup.end() ? kInvalidValueId : it->second;
      },
      lookup_);
  if (vid == kInvalidValueId) return;
  if (indexed_) {
    out->insert(out->end(), postings_[vid].begin(), postings_[vid].end());
    return;
  }
  for (RowPos r = 0; r < vids_.size(); ++r) {
    if (vids_[r] == vid) out->push_back(r);
  }
}

void DeltaFragment::FindRowsMatching(
    const std::function<bool(const Value&)>& pred,
    std::vector<RowPos>* out) const {
  std::vector<bool> qualifies(dict_size(), false);
  bool any = false;
  for (ValueId v = 0; v < dict_size(); ++v) {
    if (pred(GetValue(v))) {
      qualifies[v] = true;
      any = true;
    }
  }
  if (!any) return;
  for (RowPos r = 0; r < vids_.size(); ++r) {
    if (qualifies[vids_[r]]) out->push_back(r);
  }
}

uint64_t DeltaFragment::MemoryBytes() const {
  uint64_t bytes = vids_.capacity() * sizeof(ValueId);
  std::visit(
      [&bytes](const auto& values) {
        using T = ElementOf<decltype(values)>;
        bytes += values.capacity() * sizeof(T);
        // A string's bytes are held twice: in the array and in its key.
        if constexpr (std::is_same_v<T, std::string>) {
          for (const std::string& s : values) bytes += 2 * s.capacity();
        }
      },
      values_);
  // Rough estimate for the hash map nodes.
  bytes += dict_size() * (sizeof(void*) * 4 + 16);
  for (const auto& plist : postings_) {
    bytes += plist.capacity() * sizeof(RowPos);
  }
  bytes += postings_.capacity() * sizeof(std::vector<RowPos>);
  return bytes;
}

void DeltaFragment::Clear() {
  // Release capacity too: after a delta merge the fragment should hold no
  // memory (the merge moved everything into the main fragment).
  kRelease(vids_);
  std::visit(kRelease, values_);
  std::visit(kRelease, lookup_);
  kRelease(postings_);
}

}  // namespace payg
