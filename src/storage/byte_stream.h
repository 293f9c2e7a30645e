#ifndef PAYG_STORAGE_BYTE_STREAM_H_
#define PAYG_STORAGE_BYTE_STREAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page_file.h"

namespace payg {

// Streams an arbitrary byte sequence into a page chain (used to persist
// fully resident structures, which are always loaded and unloaded as a
// whole). Values are written with little-endian fixed-width encodings.
class ChainByteWriter {
 public:
  explicit ChainByteWriter(PageFile* file, PageType type = PageType::kMeta)
      : file_(file), page_(file->page_size()) {
    page_.set_type(type);
  }

  void PutU8(uint8_t v) { PutBytes(&v, 1); }
  void PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutBytes(&v, sizeof(v)); }
  void PutDouble(double v) { PutBytes(&v, sizeof(v)); }
  void PutString(std::string_view s) {
    PutU64(s.size());
    PutBytes(s.data(), s.size());
  }
  void PutBytes(const void* data, size_t n);

  // Flushes the trailing partial page. Must be called exactly once.
  Status Finish();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  PageFile* file_;
  Page page_;
  uint32_t fill_ = 0;
  uint64_t bytes_written_ = 0;
  Status deferred_;  // first write error, surfaced by Finish()
};

// Sequentially reads back a byte stream written by ChainByteWriter, pulling
// pages one at a time (each read pays the configured simulated latency —
// this is what makes a full column load cost proportional to its size).
class ChainByteReader {
 public:
  explicit ChainByteReader(const PageFile* file)
      : file_(file), page_(file->page_size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Status GetBytes(void* out, size_t n);

  // An upper bound on the bytes left in the stream (whole pages, headers
  // included), for bounding a length read from disk before allocating.
  uint64_t BytesLeftAtMost() const {
    return (file_->page_count() - next_page_) * file_->page_size() +
           (avail_ - pos_);
  }

 private:
  const PageFile* file_;
  Page page_;
  LogicalPageNo next_page_ = 0;
  uint32_t pos_ = 0;
  uint32_t avail_ = 0;
};

}  // namespace payg

#endif  // PAYG_STORAGE_BYTE_STREAM_H_
