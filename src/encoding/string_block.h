#ifndef PAYG_ENCODING_STRING_BLOCK_H_
#define PAYG_ENCODING_STRING_BLOCK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace payg {

// Reference to an off-page piece of a large string: the logical page number
// of a dictionary overflow page that stores the piece (one piece per page,
// as in §3.2.1: "each stored on a separate dictionary page").
using OffpageRef = uint64_t;

// Loads the payload of an overflow page. Supplied by the paged dictionary,
// which routes it through the buffer manager.
using OffpageLoader = std::function<Result<std::string>(OffpageRef)>;

// Writes one off-page piece and returns its reference. Supplied by the
// dictionary builder.
using OffpageWriter = std::function<Result<OffpageRef>(std::string_view)>;

// Strings per value block (§3.2.1 groups every 16 consecutive dictionary
// strings into one block).
inline constexpr uint32_t kStringsPerBlock = 16;

// Serialized entry layout (Fig 2):
//   u16 prefix_len   — shared with the *previous* string in this block
//   u32 onpage_len   — suffix bytes stored literally in the block
//   u8  has_offpage
//   onpage bytes
//   if has_offpage: u16 n_ptrs, n_ptrs × u64 OffpageRef, u64 total_len
//
// A block starts with u16 count.
class StringBlockBuilder {
 public:
  // Strings whose suffix exceeds `max_onpage_bytes` spill the remainder to
  // overflow pages in pieces of `offpage_piece_bytes`.
  StringBlockBuilder(uint32_t max_onpage_bytes, uint32_t offpage_piece_bytes)
      : max_onpage_bytes_(max_onpage_bytes),
        offpage_piece_bytes_(offpage_piece_bytes) {}

  // Adds the next string (callers must add in sorted order; prefixes are
  // computed against the previously added string). Fails only if an
  // off-page write fails.
  Status Add(std::string_view value, const OffpageWriter& write_offpage);

  bool full() const { return count_ >= kStringsPerBlock; }
  uint32_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Returns the block bytes and resets the builder.
  std::vector<uint8_t> Finish();

 private:
  uint32_t max_onpage_bytes_;
  uint32_t offpage_piece_bytes_;
  uint32_t count_ = 0;
  std::string prev_;
  size_t prev_extent_ = 0;  // leading bytes of prev_ reconstructible on-page
  std::vector<uint8_t> bytes_;
};

// Read-side view over one serialized block. The block bytes must outlive the
// reader (they live on a pinned dictionary page).
class StringBlockReader {
 public:
  StringBlockReader(const uint8_t* data, size_t size);

  uint32_t count() const { return count_; }

  // Materializes the k-th string of the block (0-based). Loads off-page
  // pieces through `load` when the string is large.
  Result<std::string> GetString(uint32_t k, const OffpageLoader& load) const;

  // Appends strings [from, to) of the block to *out in one pass over the
  // running prefix (GetString per slot would re-decode the block up to each
  // slot). Off-page pieces load per string, as in GetString.
  Status GetStrings(uint32_t from, uint32_t to, const OffpageLoader& load,
                    std::vector<std::string>* out) const;

  // Binary-search-free block probe: scans entries in order (blocks hold at
  // most 16 strings) comparing against `value`. On return:
  //   *found      — exact match exists
  //   *pos        — index of the match, or of the first string > value
  Status Find(std::string_view value, const OffpageLoader& load, uint32_t* pos,
              bool* found) const;

 private:
  struct Entry {
    uint16_t prefix_len;
    uint32_t onpage_len;
    const uint8_t* onpage;  // points into block bytes
    std::vector<OffpageRef> offpage;
    uint64_t total_len;  // only valid when !offpage.empty()
  };

  const uint8_t* data_;
  size_t size_;
  uint32_t count_;
  std::vector<Entry> entries_;  // decoded headers (cheap; ≤16 entries)
};

}  // namespace payg

#endif  // PAYG_ENCODING_STRING_BLOCK_H_
