#ifndef PAYG_STORAGE_PAGE_H_
#define PAYG_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "common/macros.h"

namespace payg {

// Logical page number within one page chain (== offset / page_size in the
// chain's backing file).
using LogicalPageNo = uint64_t;

inline constexpr LogicalPageNo kInvalidPageNo = ~LogicalPageNo{0};

// What a page stores. Persisted in the page header; used for integrity
// checks when a chain is re-opened.
enum class PageType : uint16_t {
  kFree = 0,
  kDataVector = 1,        // chunks of n-bit packed value identifiers
  kDictionary = 2,        // prefix-encoded string value blocks
  kDictOverflow = 3,      // off-page pieces of large dictionary strings
  kDictHelperValueId = 4, // sparse index: last vid per dictionary page
  kDictHelperValue = 5,   // sparse index: last value per dictionary page
  kIndexPostinglist = 6,  // inverted index: row-position blocks
  kIndexDirectory = 7,    // inverted index: offset blocks
  kIndexMixed = 8,        // postinglist block followed by directory block
  kMeta = 9,              // structure-level metadata
  kNumericDictionary = 10,  // strided-FOR keys of a numeric dictionary
};

// Fixed 64-byte header at the start of every persisted page.
struct PageHeader {
  static constexpr uint32_t kMagic = 0x50415947;  // "PAYG"

  uint32_t magic = kMagic;
  uint16_t version = 1;
  uint16_t type = 0;                   // PageType
  uint64_t logical_page_no = 0;
  uint64_t structure_id = 0;           // owner structure, for diagnostics
  uint32_t payload_size = 0;           // valid payload bytes after header
  uint32_t aux = 0;                    // type-specific (e.g. chunk count)
  uint32_t aux2 = 0;                   // type-specific
  uint32_t crc = 0;                    // CRC-32C of the payload
  uint8_t reserved[24] = {};
};
static_assert(sizeof(PageHeader) == 64, "page header must stay 64 bytes");

// A fixed-size page buffer: 64-byte header followed by payload. Pages are
// the unit of disk transfer, of buffer-manager accounting, and of eviction
// for page loadable columns.
class Page {
 public:
  explicit Page(uint32_t page_size)
      : size_(page_size), data_(new uint8_t[page_size]) {
    PAYG_ASSERT_MSG(page_size > sizeof(PageHeader),
                    "page must fit header plus payload");
    std::memset(data_.get(), 0, page_size);
    new (data_.get()) PageHeader();  // stamp magic/version defaults
  }

  Page(Page&&) = default;
  Page& operator=(Page&&) = default;
  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  uint32_t size() const { return size_; }
  uint32_t capacity() const {
    return size_ - static_cast<uint32_t>(sizeof(PageHeader));
  }

  PageHeader* header() { return reinterpret_cast<PageHeader*>(data_.get()); }
  const PageHeader* header() const {
    return reinterpret_cast<const PageHeader*>(data_.get());
  }

  uint8_t* payload() { return data_.get() + sizeof(PageHeader); }
  const uint8_t* payload() const { return data_.get() + sizeof(PageHeader); }

  uint8_t* raw() { return data_.get(); }
  const uint8_t* raw() const { return data_.get(); }

  PageType type() const { return static_cast<PageType>(header()->type); }
  void set_type(PageType t) { header()->type = static_cast<uint16_t>(t); }

  uint32_t payload_size() const { return header()->payload_size; }
  void set_payload_size(uint32_t n) {
    PAYG_ASSERT(n <= capacity());
    header()->payload_size = n;
  }

  // Recompute and store the payload checksum. Called by the page file on
  // write; readers verify.
  void SealChecksum();
  bool VerifyChecksum() const;

 private:
  uint32_t size_;
  std::unique_ptr<uint8_t[]> data_;
};

}  // namespace payg

#endif  // PAYG_STORAGE_PAGE_H_
