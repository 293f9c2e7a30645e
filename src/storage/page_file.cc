#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "exec/exec_context.h"
#include "obs/trace.h"
#include "storage/io_backend.h"

namespace payg {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

PageFile::PageFile(std::string path, int fd, uint32_t page_size,
                   uint64_t page_count, const StorageOptions& opts)
    : path_(std::move(path)),
      fd_(fd),
      page_size_(page_size),
      page_count_(page_count),
      opts_(opts) {
  auto& reg = obs::MetricsRegistry::Global();
  m_pages_read_ = reg.counter("storage.read.pages");
  m_bytes_read_ = reg.counter("storage.read.bytes");
  m_pages_written_ = reg.counter("storage.write.pages");
  m_bytes_written_ = reg.counter("storage.write.bytes");
  m_read_latency_us_ = reg.histogram("storage.read.latency_us");
  m_write_latency_us_ = reg.histogram("storage.write.latency_us");
  m_io_batch_pages_ = reg.histogram("io.batch_pages");
  m_io_inflight_ = reg.gauge("io.inflight");
  m_io_checksum_fail_ = reg.counter("io.checksum_fail");
}

PageFile::~PageFile() {
  // ReadPages holds inflight_batches_ for its whole duration; by the time an
  // owner destroys the file every cache waiter is gone, so this drains in
  // at most one batch's tail.
  while (inflight_batches_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path,
                                                   uint32_t page_size,
                                                   const StorageOptions& opts) {
  if (page_size <= sizeof(PageHeader)) {
    return Status::InvalidArgument("page size too small");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(Errno("create", path));
  return std::unique_ptr<PageFile>(
      new PageFile(path, fd, page_size, 0, opts));
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path,
                                                 uint32_t page_size,
                                                 const StorageOptions& opts) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Status::IOError(Errno("open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Errno("fstat", path));
  }
  if (st.st_size % page_size != 0) {
    ::close(fd);
    return Status::Corruption("file size is not a multiple of page size: " +
                              path);
  }
  uint64_t count = static_cast<uint64_t>(st.st_size) / page_size;
  return std::unique_ptr<PageFile>(
      new PageFile(path, fd, page_size, count, opts));
}

Result<LogicalPageNo> PageFile::AppendPage(Page* page) {
  LogicalPageNo lpn = page_count_.fetch_add(1);
  Status s = WritePage(lpn, page);
  if (!s.ok()) return s;
  return lpn;
}

Status PageFile::WritePage(LogicalPageNo lpn, Page* page) {
  PAYG_ASSERT(page->size() == page_size_);
  page->header()->logical_page_no = lpn;
  page->SealChecksum();
  off_t offset = static_cast<off_t>(lpn) * page_size_;
  Stopwatch timer;
  ssize_t n = ::pwrite(fd_, page->raw(), page_size_, offset);
  if (n != static_cast<ssize_t>(page_size_)) {
    return Status::IOError(Errno("pwrite", path_));
  }
  m_write_latency_us_->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
  m_pages_written_->Inc();
  m_bytes_written_->Add(page_size_);
  return Status::OK();
}

Status PageFile::ReadPage(LogicalPageNo lpn, Page* page) const {
  const PageRead read{this, lpn, page};
  Status st;
  ReadPages(&read, &st, 1);
  return st;
}

Status PageFile::VerifyLoadedPage(LogicalPageNo lpn, Page* page,
                                  ExecContext* ctx,
                                  const Stopwatch& submitted) const {
  if (page->header()->magic != PageHeader::kMagic) {
    return Status::Corruption("bad page magic at lpn " + std::to_string(lpn) +
                              " in " + path_);
  }
  if (page->header()->logical_page_no != lpn) {
    return Status::Corruption("page number mismatch at lpn " +
                              std::to_string(lpn) + " in " + path_);
  }
  // Before anything walks `payload_size` bytes (the checksum below, every
  // decoder above) it must fit the page: a corrupt header claiming 4 GB of
  // payload would otherwise send the CRC straight past the buffer.
  if (page->header()->payload_size > page->capacity()) {
    return Status::Corruption("payload size " +
                              std::to_string(page->header()->payload_size) +
                              " exceeds page capacity at lpn " +
                              std::to_string(lpn) + " in " + path_);
  }
  if (opts_.verify_checksums && !page->VerifyChecksum()) {
    m_io_checksum_fail_->Inc();
    return Status::Corruption("checksum mismatch at lpn " +
                              std::to_string(lpn) + " in " + path_);
  }
  m_pages_read_->Inc();
  m_bytes_read_->Add(page_size_);
  m_read_latency_us_->Record(
      static_cast<uint64_t>(submitted.ElapsedMicros()));
  Bump(ctx, &QueryStats::pages_read);
  Bump(ctx, &QueryStats::bytes_read, page_size_);
  return Status::OK();
}

void PageFile::ReadPages(const PageRead* reads, Status* statuses, size_t n,
                         ExecContext* ctx, const PageIoDoneFn& done) {
  if (n == 0) return;
  // Keep each file alive until every page of this batch is finalized: its
  // destructor spins on this count (see ~PageFile). One count per file per
  // batch, taken before any page can complete.
  std::vector<const PageFile*> files;
  for (size_t i = 0; i < n; ++i) {
    if (std::find(files.begin(), files.end(), reads[i].file) != files.end()) {
      continue;
    }
    files.push_back(reads[i].file);
    reads[i].file->inflight_batches_.fetch_add(1, std::memory_order_acq_rel);
  }
  struct BatchScope {
    const std::vector<const PageFile*>& files;
    ~BatchScope() {
      for (const PageFile* f : files) {
        f->inflight_batches_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  } scope{files};

  // The io.* metrics are process-wide, so any file's pointers do; they are
  // copied now because a file may be torn down (up to its final count)
  // once its last page completes.
  const PageFile& first = *reads[0].file;
  obs::Gauge* inflight = first.m_io_inflight_;
  // The span and the latency samples cover the whole physical read,
  // including the simulated device latency — that is the cost the paper's
  // cold-read measurements are about.
  obs::TraceSpan span("io", "batch_read", n);
  first.m_io_batch_pages_->Record(n);
  inflight->Add(static_cast<int64_t>(n));
  Stopwatch timer;

  // Screen out-of-range pages up front so the backend only ever sees real
  // file offsets; they complete (with OutOfRange) immediately.
  std::vector<PageIoRequest> reqs;
  reqs.reserve(n);
  std::vector<size_t> orig;  // backend index -> caller index
  orig.reserve(n);
  uint32_t latency_us = 0;
  for (size_t i = 0; i < n; ++i) {
    const PageFile& file = *reads[i].file;
    PAYG_ASSERT(reads[i].page->size() == file.page_size_);
    if (reads[i].lpn >= file.page_count_.load(std::memory_order_acquire)) {
      statuses[i] = Status::OutOfRange("page " + std::to_string(reads[i].lpn) +
                                       " beyond end of chain " + file.path_);
      inflight->Add(-1);
      if (done) done(i);
      continue;
    }
    latency_us = std::max(latency_us, file.opts_.simulated_read_latency_us);
    PageIoRequest req;
    req.fd = file.fd_;
    req.page_size = file.page_size_;
    req.lpn = reads[i].lpn;
    req.buf = reads[i].page->raw();
    reqs.push_back(std::move(req));
    orig.push_back(i);
  }
  if (reqs.empty()) return;

  // The backend moves bytes; verification and accounting happen here, per
  // page, before the caller's completion hook sees it.
  auto finalize = [&](size_t j) {
    const size_t i = orig[j];
    Status st = std::move(reqs[j].status);
    if (st.ok()) {
      st = reads[i].file->VerifyLoadedPage(reads[i].lpn, reads[i].page, ctx,
                                           timer);
    }
    statuses[i] = std::move(st);
    inflight->Add(-1);
    if (done) done(i);
  };
  CurrentIoBackend()->ReadBatch(reqs.data(), reqs.size(), latency_us,
                                finalize);
}

void PageFile::ReadPages(const LogicalPageNo* lpns, Page* const* pages,
                         Status* statuses, size_t n, ExecContext* ctx,
                         const PageIoDoneFn& done) const {
  std::vector<PageRead> reads(n);
  for (size_t i = 0; i < n; ++i) reads[i] = PageRead{this, lpns[i], pages[i]};
  ReadPages(reads.data(), statuses, n, ctx, done);
}

}  // namespace payg
