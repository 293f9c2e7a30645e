#include "encoding/string_block.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace payg {

namespace {

template <typename T>
void PutRaw(std::vector<uint8_t>* out, T v) {
  size_t off = out->size();
  out->resize(off + sizeof(T));
  std::memcpy(out->data() + off, &v, sizeof(T));
}

template <typename T>
T GetRaw(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

size_t CommonPrefix(std::string_view a, std::string_view b, size_t cap) {
  size_t n = std::min({a.size(), b.size(), cap});
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Status StringBlockBuilder::Add(std::string_view value,
                               const OffpageWriter& write_offpage) {
  PAYG_ASSERT_MSG(!full(), "value block already holds 16 strings");
  // Prefix compression only applies within a block; the first string of a
  // block is stored in full so blocks are self-contained.
  // The prefix may not reach into the previous string's off-page portion:
  // readers reconstruct prefixes from on-page bytes only. `prev_extent_` is
  // the number of leading bytes of the previous string that are available
  // on-page (its own prefix + its on-page suffix piece).
  uint16_t prefix_len = 0;
  if (count_ > 0) {
    prefix_len = static_cast<uint16_t>(
        CommonPrefix(prev_, value, std::min<size_t>(prev_extent_, UINT16_MAX)));
  }
  std::string_view suffix = value.substr(prefix_len);

  const bool spills = suffix.size() > max_onpage_bytes_;
  const std::string_view onpage =
      spills ? suffix.substr(0, max_onpage_bytes_) : suffix;
  PutRaw<uint16_t>(&bytes_, prefix_len);
  PutRaw<uint32_t>(&bytes_, static_cast<uint32_t>(onpage.size()));
  PutRaw<uint8_t>(&bytes_, spills ? 1 : 0);
  bytes_.insert(bytes_.end(), onpage.begin(), onpage.end());

  if (spills) {
    std::string_view rest = suffix.substr(onpage.size());
    std::vector<OffpageRef> refs;
    while (!rest.empty()) {
      std::string_view piece = rest.substr(
          0, std::min<size_t>(rest.size(), offpage_piece_bytes_));
      auto r = write_offpage(piece);
      if (!r.ok()) return r.status();
      refs.push_back(*r);
      rest = rest.substr(piece.size());
    }
    PutRaw<uint16_t>(&bytes_, static_cast<uint16_t>(refs.size()));
    for (OffpageRef ref : refs) PutRaw<uint64_t>(&bytes_, ref);
    PutRaw<uint64_t>(&bytes_, suffix.size());
  }

  prev_.assign(value.data(), value.size());
  prev_extent_ = prefix_len + onpage.size();
  ++count_;
  return Status::OK();
}

std::vector<uint8_t> StringBlockBuilder::Finish() {
  std::vector<uint8_t> out;
  PutRaw<uint16_t>(&out, static_cast<uint16_t>(count_));
  out.insert(out.end(), bytes_.begin(), bytes_.end());
  bytes_.clear();
  count_ = 0;
  prev_.clear();
  prev_extent_ = 0;
  return out;
}

StringBlockReader::StringBlockReader(const uint8_t* data, size_t size)
    : data_(data), size_(size) {
  PAYG_ASSERT(size >= sizeof(uint16_t));
  count_ = GetRaw<uint16_t>(data_);
  entries_.reserve(count_);
  const uint8_t* p = data_ + sizeof(uint16_t);
  const uint8_t* end = data_ + size_;
  for (uint32_t k = 0; k < count_; ++k) {
    PAYG_ASSERT(p + 7 <= end);
    Entry e;
    e.prefix_len = GetRaw<uint16_t>(p);
    p += 2;
    e.onpage_len = GetRaw<uint32_t>(p);
    p += 4;
    uint8_t has_offpage = *p++;
    PAYG_ASSERT(p + e.onpage_len <= end);
    e.onpage = p;
    p += e.onpage_len;
    e.total_len = e.onpage_len;
    if (has_offpage != 0) {
      PAYG_ASSERT(p + 2 <= end);
      uint16_t n_ptrs = GetRaw<uint16_t>(p);
      p += 2;
      PAYG_ASSERT(p + 8ull * n_ptrs + 8 <= end);
      e.offpage.reserve(n_ptrs);
      for (uint16_t i = 0; i < n_ptrs; ++i) {
        e.offpage.push_back(GetRaw<uint64_t>(p));
        p += 8;
      }
      e.total_len = GetRaw<uint64_t>(p);
      p += 8;
    }
    entries_.push_back(std::move(e));
  }
}

Status StringBlockReader::GetStrings(uint32_t from, uint32_t to,
                                     const OffpageLoader& load,
                                     std::vector<std::string>* out) const {
  if (from > to || to > count_) {
    return Status::OutOfRange("block entry out of range");
  }
  std::string current;
  for (uint32_t i = 0; i < to; ++i) {
    const Entry& e = entries_[i];
    current.resize(e.prefix_len);  // keep shared prefix with previous string
    current.append(reinterpret_cast<const char*>(e.onpage), e.onpage_len);
    if (i < from) continue;
    out->push_back(current);
    // Off-page pieces are only fetched for the requested strings, and go
    // onto the copy: the running string keeps the on-page bytes, because
    // prefixes never extend past the stored on-page portion (a spilled
    // suffix starts with max_onpage bytes on page).
    for (OffpageRef ref : e.offpage) {
      auto piece = load(ref);
      if (!piece.ok()) return piece.status();
      out->back() += *piece;
    }
  }
  return Status::OK();
}

Result<std::string> StringBlockReader::GetString(
    uint32_t k, const OffpageLoader& load) const {
  if (k >= count_) return Status::OutOfRange("block entry out of range");
  std::vector<std::string> one;
  PAYG_RETURN_IF_ERROR(GetStrings(k, k + 1, load, &one));
  return std::move(one[0]);
}

Status StringBlockReader::Find(std::string_view value,
                               const OffpageLoader& load, uint32_t* pos,
                               bool* found) const {
  *found = false;
  std::string current;
  for (uint32_t i = 0; i < count_; ++i) {
    const Entry& e = entries_[i];
    current.resize(e.prefix_len);
    current.append(reinterpret_cast<const char*>(e.onpage), e.onpage_len);
    std::string_view candidate = current;
    int cmp;
    if (e.offpage.empty()) {
      cmp = candidate.compare(value);
    } else {
      // Large string: compare the on-page part first; only fall back to
      // incremental off-page loading when the on-page part is a prefix of
      // the probe (§3.2.2).
      std::string_view probe_head =
          value.substr(0, std::min(value.size(), candidate.size()));
      cmp = candidate.compare(probe_head);
      if (cmp == 0) {
        std::string full = current;
        for (OffpageRef ref : e.offpage) {
          auto piece = load(ref);
          if (!piece.ok()) return piece.status();
          full += *piece;
          // Early exit once the materialized part already differs.
          std::string_view head =
              value.substr(0, std::min(value.size(), full.size()));
          cmp = std::string_view(full).compare(head);
          if (cmp != 0) break;
        }
        if (cmp == 0) {
          cmp = full.size() == value.size() ? 0
                : full.size() < value.size() ? -1
                                             : 1;
        }
      }
    }
    if (cmp == 0) {
      *pos = i;
      *found = true;
      return Status::OK();
    }
    if (cmp > 0) {
      *pos = i;
      return Status::OK();
    }
  }
  *pos = count_;
  return Status::OK();
}

}  // namespace payg
