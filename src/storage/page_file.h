#ifndef PAYG_STORAGE_PAGE_FILE_H_
#define PAYG_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/io_backend.h"
#include "storage/page.h"
#include "storage/storage_options.h"

namespace payg {

class ExecContext;
class Stopwatch;

// A chain of fixed-size pages backed by one file. The logical page number of
// a page is its index in the file (offset = lpn * page_size), which makes
// "find the page holding chunk k" a pure arithmetic operation — the property
// the paper's iterators rely on.
//
// Thread-safe for concurrent reads and appends (pread/pwrite on distinct
// offsets; the append cursor is atomic).
class PageFile {
 public:
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  // Creates a new (empty) page file, truncating any existing file at `path`.
  static Result<std::unique_ptr<PageFile>> Create(const std::string& path,
                                                  uint32_t page_size,
                                                  const StorageOptions& opts);

  // Opens an existing page file; the on-disk size must be a multiple of
  // `page_size`.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path,
                                                uint32_t page_size,
                                                const StorageOptions& opts);

  // Appends `page` to the end of the chain and returns its logical page
  // number. Stamps the header's logical_page_no and checksum.
  Result<LogicalPageNo> AppendPage(Page* page);

  // Writes `page` at an existing logical page number (rebuild paths).
  Status WritePage(LogicalPageNo lpn, Page* page);

  // Reads the page at `lpn` into `page` (whose size must match) as a
  // one-page ReadPages: the chain readers outside the page cache (meta
  // pages, byte streams) use it.
  Status ReadPage(LogicalPageNo lpn, Page* page) const;

  // One page of a batched read: its chain, its number, and the page its
  // bytes go to (sized to the chain's page size).
  struct PageRead {
    const PageFile* file = nullptr;
    LogicalPageNo lpn = kInvalidPageNo;
    Page* page = nullptr;
  };

  // The one read path, batched and possibly across chains: the n pages of
  // `reads` are read through the current IoBackend as one submission
  // (pages contiguous in one file become vectored reads; a wave is charged
  // the largest simulated latency among the files), each is verified
  // (magic, page number, checksum), and its final status lands in
  // `statuses[i]`. A verified page counts in "storage.read.*" and, when a
  // query's ExecContext is given, in its pages_read and bytes_read.
  // `done(i)` — when given — fires on the calling thread as page i
  // completes, after verification, with statuses[i] final; this is the
  // completion-driven publish hook the page cache uses, so a page becomes
  // visible when its bytes land rather than when the slowest page of the
  // batch does. Blocking: by return every page has exactly one final
  // status and one done() call. A bad page (out of range, short read,
  // corruption) fails only itself. Every file stays alive until the call
  // returns (see ~PageFile), but after its last page's done() the call
  // touches nothing of it except that count.
  // A batch of up to kInlineBatchPages pages allocates nothing for its own
  // bookkeeping.
  static void ReadPages(const PageRead* reads, Status* statuses, size_t n,
                        ExecContext* ctx = nullptr,
                        PageIoDoneFn done = nullptr);

  // The batched read above over pages of this chain only.
  void ReadPages(const LogicalPageNo* lpns, Page* const* pages,
                 Status* statuses, size_t n, ExecContext* ctx = nullptr,
                 PageIoDoneFn done = nullptr) const;

  // Batches up to this many pages keep their per-page bookkeeping on the
  // stack: a demand miss is a batch of one, a row's batch is one wave.
  static constexpr size_t kInlineBatchPages = 8;

  // Number of pages currently in the chain.
  uint64_t page_count() const { return page_count_; }

  uint32_t page_size() const { return page_size_; }
  const std::string& path() const { return path_; }

 private:
  PageFile(std::string path, int fd, uint32_t page_size, uint64_t page_count,
           const StorageOptions& opts);

  // Verification + accounting of one page a batch landed: magic, page
  // number, checksum (counting "io.checksum_fail"), then the read counters
  // and the time since `submitted` in "storage.read.latency_us".
  Status VerifyLoadedPage(LogicalPageNo lpn, Page* page, ExecContext* ctx,
                          const Stopwatch& submitted) const;

  std::string path_;
  int fd_;
  uint32_t page_size_;
  std::atomic<uint64_t> page_count_;
  StorageOptions opts_;

  // Batched reads in flight that include this file. The destructor spins
  // until this drains so a ReadPages still finalizing pages never touches a
  // dead PageFile — owners destroy the cache (which drains its own waiters)
  // before the file, and this closes the last window in between.
  mutable std::atomic<uint64_t> inflight_batches_{0};

  // Process-wide page traffic ("storage.read.*" / "storage.write.*") and
  // the physical-IO latency histograms (one "storage.read.latency_us"
  // sample per verified page). Resolved once here so the read path pays no
  // registry lookup.
  obs::Counter* m_pages_read_;
  obs::Counter* m_bytes_read_;
  obs::Counter* m_pages_written_;
  obs::Counter* m_bytes_written_;
  obs::Histogram* m_read_latency_us_;
  obs::Histogram* m_write_latency_us_;

  // Batched-I/O observability ("io.*"): batch size distribution (one
  // sample per submission), pages currently in flight, checksum failures.
  obs::Histogram* m_io_batch_pages_;
  obs::Gauge* m_io_inflight_;
  obs::Counter* m_io_checksum_fail_;
};

}  // namespace payg

#endif  // PAYG_STORAGE_PAGE_FILE_H_
