#ifndef PAYG_STORAGE_IO_BACKEND_H_
#define PAYG_STORAGE_IO_BACKEND_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "storage/page.h"

namespace payg {

// One page of a batched read: the file it comes from (fd and page size),
// where the bytes go and how that page fared. One batch may mix pages of
// several files. The backend fills `status` as the page completes;
// verification of the page contents (magic, checksum) stays with the
// caller — the backend only moves bytes.
struct PageIoRequest {
  int fd = -1;
  uint32_t page_size = 0;
  LogicalPageNo lpn = kInvalidPageNo;  // offset = lpn * page_size
  uint8_t* buf = nullptr;  // page_size bytes, caller-owned
  Status status;
};

// Invoked on the submitting thread as each page of a batch completes —
// possibly long before the whole batch returns. The argument is the index
// into the request array; the request's `status` is final by then. This is
// what makes completion-driven cache publish possible: a waiter on page k
// wakes when page k's read lands, not when the slowest page of the batch
// does.
using PageIoDoneFn = std::function<void(size_t)>;

// Strategy for turning a batch of page reads into device traffic. Two
// implementations exist: the portable synchronous pread path (one device
// round trip per page, contiguous runs coalesced into one preadv syscall)
// and a Linux io_uring backend (vectored multi-page SQEs submitted from one
// submission queue, up to IoQueueDepth() in flight, one simulated device
// round trip per submission wave; a one-page batch is one plain pread).
// Backends are stateless singletons; all per-batch state lives on the
// calling thread.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual const char* name() const = 0;

  // True when the backend overlaps in-flight requests (its round-trip cost
  // is per submission wave, not per page).
  virtual bool queue_depth_aware() const = 0;

  // Reads every request's page from its file into its buffer. Runs of
  // pages adjacent in the array and on disk coalesce into one vectored
  // read only within one file. Blocking: returns once every request
  // carries a final status; `done` (may be empty) fires per page as it
  // completes. A page failure (short read, I/O error) is reported in that
  // page's status and never poisons the rest of the batch.
  // `simulated_latency_us` is the modeled cost of one device round trip
  // (see class comment for how each backend maps round trips onto a
  // batch); a batch over several files passes the largest of theirs.
  virtual void ReadBatch(PageIoRequest* reqs, size_t n,
                         uint32_t simulated_latency_us,
                         const PageIoDoneFn& done) = 0;
};

// The process-wide backend reads are routed through. Selected on first use
// from PAYG_IO_BACKEND (auto | sync | uring): `auto` (default) picks uring
// when the runtime probe succeeds, else sync; asking for `uring` on a host
// without it falls back to sync with a one-time note on stderr, so test
// legs pinned to uring skip-not-fail on kernels lacking io_uring. The
// effective choice is published as the "io.backend" gauge (0 sync,
// 1 uring).
IoBackend* CurrentIoBackend();

// Switches the process-wide backend ("sync" / "uring"). For tests and
// benchmarks sweeping both backends in one process; callers quiesce
// outstanding I/O first (WaitForPrefetchIdle). Fails with Unsupported when
// uring is requested but unavailable, leaving the current backend in place.
Status SetIoBackend(const char* name);

// Result of the one-time io_uring runtime probe (io_uring_setup + mmap;
// seccomp or an old kernel make it fail cleanly).
bool IoUringAvailable();

// Submission queue depth for queue-depth-aware backends: PAYG_IO_DEPTH,
// clamped to [1, 128], default 8. Published as the "io.depth" gauge.
uint32_t IoQueueDepth();

// Overrides the depth (tests / bench sweeps). Takes effect on the next
// batch; each submitter's ring is re-sized lazily.
void SetIoQueueDepth(uint32_t depth);

// EINTR-retrying full pread: the uring backend's one-page and ring-less
// reads; consults the test fault hook before each syscall. On success
// `*got` is the byte count actually read (short only at end of file).
Status PreadFull(int fd, uint8_t* buf, size_t len, off_t offset, size_t* got);

// Sleeps (or spins, below scheduler granularity) for one simulated device
// round trip. Zero is free.
void ChargeSimulatedLatency(uint32_t latency_us);

// Test seam for fault injection: the hook is consulted immediately before
// every read syscall (pread/preadv and io_uring_enter) and returns an errno
// to simulate for that call, or 0 for no fault. Backends treat an injected
// errno exactly like the real one (EINTR retries, others fail the affected
// pages). Plain function pointer so the hot path is one relaxed load.
using IoFaultHook = int (*)();
void SetIoFaultHookForTest(IoFaultHook hook);

namespace internal {
// Implemented in io_uring_backend.cc. Null on platforms without io_uring
// support compiled in or when the runtime probe fails.
IoBackend* UringBackendOrNull();
// Bumps the shared "io.syscalls" counter (for the uring translation unit).
void CountReadSyscall();
// Consults the test fault hook (for the uring translation unit).
int ConsumeInjectedFault();
}  // namespace internal

}  // namespace payg

#endif  // PAYG_STORAGE_IO_BACKEND_H_
