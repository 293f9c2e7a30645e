#include "columnar/delta_fragment.h"

namespace payg {

RowPos DeltaFragment::Append(const Value& value) {
  PAYG_ASSERT_MSG(value.type() == type_, "value type mismatch on insert");
  std::string key = value.EncodeKey();
  auto [it, inserted] =
      lookup_.try_emplace(std::move(key), static_cast<ValueId>(dict_values_.size()));
  if (inserted) {
    dict_values_.push_back(value);
    if (indexed_) postings_.emplace_back();
  }
  RowPos row = static_cast<RowPos>(vids_.size());
  vids_.push_back(it->second);
  if (indexed_) postings_[it->second].push_back(row);
  return row;
}

void DeltaFragment::FindRows(const Value& value,
                             std::vector<RowPos>* out) const {
  auto it = lookup_.find(value.EncodeKey());
  if (it == lookup_.end()) return;
  ValueId vid = it->second;
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
  std::vector<bool> qualifies(dict_values_.size(), false);
  bool any = false;
  for (ValueId v = 0; v < dict_values_.size(); ++v) {
    if (pred(dict_values_[v])) {
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
  uint64_t bytes = vids_.capacity() * sizeof(ValueId) +
                   dict_values_.capacity() * sizeof(Value);
  for (const Value& v : dict_values_) bytes += v.MemoryBytes();
  // Rough estimate for the hash map nodes.
  bytes += lookup_.size() * (sizeof(void*) * 4 + 16);
  for (const auto& plist : postings_) {
    bytes += plist.capacity() * sizeof(RowPos);
  }
  bytes += postings_.capacity() * sizeof(std::vector<RowPos>);
  return bytes;
}

void DeltaFragment::Clear() {
  // Release capacity too: after a delta merge the fragment should hold no
  // memory (the merge moved everything into the main fragment).
  std::vector<ValueId>().swap(vids_);
  std::vector<Value>().swap(dict_values_);
  std::unordered_map<std::string, ValueId>().swap(lookup_);
  std::vector<std::vector<RowPos>>().swap(postings_);
}

}  // namespace payg
