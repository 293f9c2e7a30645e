// io_uring read backend: vectored multi-page SQEs from one submission
// queue per submitter thread, reaped completion by completion so the cache
// can publish each page the moment its bytes land. Raw syscalls + mmap'd
// rings (no liburing dependency); compile-guarded so non-Linux builds fall
// back to the sync backend via UringBackendOrNull() == nullptr.

#include "storage/io_backend.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define PAYG_HAS_IO_URING 1
#endif

#ifdef PAYG_HAS_IO_URING

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

namespace payg {

namespace {

// Pages folded into one vectored SQE. Deliberately small: one SQE models
// one device command (one simulated round trip), so the cap keeps the
// PAYG_IO_DEPTH axis meaningful — a 16-page window is 4 commands whose
// overlap the queue depth governs, not one mega-command.
constexpr size_t kMaxPagesPerSqe = 4;
constexpr int kMaxRunRetries = 8;
// Same bound the sync backend applies to EINTR storms and partial-read
// resubmission (io_backend.cc kMaxEintrRetries).
constexpr int kMaxEintrRetries = 100;

int SysIoUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, nullptr, 0));
}

// One mmap'd submission/completion ring pair. Each submitter thread owns
// one (thread_local), so no cross-thread coordination is needed on the
// ring itself; the kernel is the only other party, synchronized through
// acquire/release on the mapped head/tail words.
struct Ring {
  int fd = -1;
  uint32_t sq_entries = 0;
  uint32_t cq_entries = 0;
  void* sq_ptr = nullptr;
  size_t sq_map_sz = 0;
  void* cq_ptr = nullptr;  // == sq_ptr under IORING_FEAT_SINGLE_MMAP
  size_t cq_map_sz = 0;
  io_uring_sqe* sqes = nullptr;
  size_t sqes_map_sz = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_mask = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned* cq_mask = nullptr;
  io_uring_cqe* cqes = nullptr;

  ~Ring() { Teardown(); }

  bool Init(uint32_t want_entries) {
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    fd = SysIoUringSetup(want_entries, &p);
    if (fd < 0) return false;
    sq_entries = p.sq_entries;
    cq_entries = p.cq_entries;
    sq_map_sz = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_map_sz = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap && cq_map_sz > sq_map_sz) sq_map_sz = cq_map_sz;
    sq_ptr = ::mmap(nullptr, sq_map_sz, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    if (sq_ptr == MAP_FAILED) {
      sq_ptr = nullptr;
      Teardown();
      return false;
    }
    if (single_mmap) {
      cq_ptr = sq_ptr;
      cq_map_sz = 0;  // owned by the sq mapping
    } else {
      cq_ptr = ::mmap(nullptr, cq_map_sz, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
      if (cq_ptr == MAP_FAILED) {
        cq_ptr = nullptr;
        Teardown();
        return false;
      }
    }
    sqes_map_sz = p.sq_entries * sizeof(io_uring_sqe);
    void* m = ::mmap(nullptr, sqes_map_sz, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
    if (m == MAP_FAILED) {
      Teardown();
      return false;
    }
    sqes = static_cast<io_uring_sqe*>(m);
    auto* sq = static_cast<uint8_t*>(sq_ptr);
    sq_head = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask = reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    auto* cq = static_cast<uint8_t*>(cq_ptr);
    cq_head = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask = reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
    return true;
  }

  void Teardown() {
    if (sqes != nullptr) ::munmap(sqes, sqes_map_sz);
    if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_map_sz);
    if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_map_sz);
    if (fd >= 0) ::close(fd);
    sqes = nullptr;
    cq_ptr = nullptr;
    sq_ptr = nullptr;
    fd = -1;
    sq_entries = 0;
  }

  bool valid() const { return fd >= 0; }
};

uint32_t CeilPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Lazily (re)initialized per submitter thread, sized to the current
// PAYG_IO_DEPTH. Returns null when setup fails on this thread (resource
// limits); the caller then degrades to synchronous per-page reads.
Ring* ThreadRing() {
  thread_local Ring ring;
  const uint32_t want = CeilPow2(IoQueueDepth());
  if (ring.valid() && ring.sq_entries >= want) return &ring;
  ring.Teardown();
  if (!ring.Init(want)) return nullptr;
  return &ring;
}

// A contiguous span of requests of one file served by one SQE. A run may be
// submitted
// several times: transient errors (EINTR/EAGAIN) resubmit it whole, short
// positive completions resubmit the unread remainder (`got` bytes already
// landed, `nvec` iovecs re-aimed past them) — the same recovery the sync
// backend's ReadRun loop performs. The run's file (fd, page size) is that
// of its first request.
struct Run {
  size_t first = 0;   // index into the request array
  size_t npages = 0;
  size_t got = 0;     // bytes landed so far, across resubmissions
  unsigned nvec = 0;  // live iovecs for the next submission
  int retries = 0;    // transient-error resubmissions
  int short_retries = 0;
};

class UringIoBackend final : public IoBackend {
 public:
  const char* name() const override { return "uring"; }
  bool queue_depth_aware() const override { return true; }

  void ReadBatch(PageIoRequest* reqs, size_t n, uint32_t simulated_latency_us,
                 const PageIoDoneFn& done) override {
    if (n == 0) return;
    // One page costs one round trip either way, and a plain pread is
    // cheaper than entering the ring; a thread that reads only single
    // pages never sets a ring up.
    Ring* ring = n == 1 ? nullptr : ThreadRing();
    if (ring == nullptr) {
      FallbackSequential(reqs, n, simulated_latency_us, done);
      return;
    }

    // Carve the batch into runs contiguous within one file; each run is one
    // vectored SQE.
    std::vector<Run> runs;
    runs.reserve(n);
    std::vector<iovec> iov(n);  // flat, stable; run r owns [first, first+npages)
    for (size_t i = 0; i < n;) {
      size_t len = 1;
      while (i + len < n && len < kMaxPagesPerSqe &&
             reqs[i + len].fd == reqs[i].fd &&
             reqs[i + len].page_size == reqs[i].page_size &&
             reqs[i + len].lpn == reqs[i].lpn + len) {
        ++len;
      }
      for (size_t k = 0; k < len; ++k) {
        iov[i + k].iov_base = reqs[i + k].buf;
        iov[i + k].iov_len = reqs[i].page_size;
      }
      runs.push_back(Run{i, len, 0, static_cast<unsigned>(len), 0, 0});
      i += len;
    }

    const uint32_t depth = std::min(IoQueueDepth(), ring->sq_entries);
    std::deque<size_t> pending;  // run indexes not yet submitted
    for (size_t r = 0; r < runs.size(); ++r) pending.push_back(r);
    std::vector<char> finalized(runs.size(), 0);
    // SQEs the kernel has consumed and not yet completed. While this is
    // non-zero the kernel may write into the caller's page buffers at any
    // moment, so no path may return to the caller without draining it.
    size_t kernel_inflight = 0;
    size_t completed_pages = 0;

    while (completed_pages < n) {
      // Fill the submission queue up to the configured depth.
      unsigned to_submit = 0;
      while (!pending.empty() && kernel_inflight + to_submit < depth) {
        const size_t r = pending.front();
        pending.pop_front();
        const Run& run = runs[r];
        const PageIoRequest& head = reqs[run.first];
        const uint64_t off =
            static_cast<uint64_t>(head.lpn) * head.page_size + run.got;
        PushSqe(ring, head.fd, run, &iov[run.first], off, r);
        ++to_submit;
      }
      // One simulated device round trip covers everything submitted in
      // this wave — the queue-depth-aware cost model: a wave of `depth`
      // commands costs what one command costs.
      if (to_submit > 0) ChargeSimulatedLatency(simulated_latency_us);
      unsigned consumed = 0;
      const bool submitted = Submit(ring, to_submit, &consumed);
      kernel_inflight += consumed;
      if (!submitted) {
        AbortBatch(ring, reqs, &runs, &finalized, &kernel_inflight,
                   &completed_pages, done,
                   std::string("io_uring_enter: ") + std::strerror(errno));
        return;
      }
      if (kernel_inflight == 0) {
        if (!pending.empty()) continue;  // next wave picks them up
        // Unreachable by construction (every run is finalized, pending, or
        // in the kernel), but never return a page without a final status.
        FailUnfinished(reqs, runs, &finalized, &completed_pages, done,
                       "io_uring batch: internal accounting error");
        return;
      }
      if (!WaitForCompletion(ring)) {
        AbortBatch(ring, reqs, &runs, &finalized, &kernel_inflight,
                   &completed_pages, done,
                   std::string("io_uring_enter(wait): ") +
                       std::strerror(errno));
        return;
      }
      // Reap every available completion, publishing page by page.
      unsigned head = __atomic_load_n(ring->cq_head, __ATOMIC_ACQUIRE);
      const unsigned tail = __atomic_load_n(ring->cq_tail, __ATOMIC_ACQUIRE);
      while (head != tail) {
        const io_uring_cqe& cqe = ring->cqes[head & *ring->cq_mask];
        const size_t r = static_cast<size_t>(cqe.user_data);
        Run& run = runs[r];
        --kernel_inflight;
        const size_t want =
            run.npages * static_cast<size_t>(reqs[run.first].page_size);
        if (cqe.res == -EINTR || cqe.res == -EAGAIN) {
          if (++run.retries <= kMaxRunRetries) {
            pending.push_back(r);  // transient: resubmit as-is
          } else {
            FinishRun(reqs, run, run.got,
                      Status::IOError(
                          std::string("io_uring read: persistent ") +
                          std::strerror(-cqe.res)),
                      &completed_pages, done);
            finalized[r] = 1;
          }
        } else if (cqe.res < 0) {
          FinishRun(reqs, run, run.got,
                    Status::IOError(std::string("io_uring read: ") +
                                    std::strerror(-cqe.res)),
                    &completed_pages, done);
          finalized[r] = 1;
        } else if (cqe.res == 0 || run.got + static_cast<size_t>(cqe.res) >=
                                       want) {
          // EOF, or the run is complete. Pages past `got` (EOF case) get a
          // short-read status from FinishRun.
          run.got += static_cast<size_t>(cqe.res);
          FinishRun(reqs, run, run.got, Status::OK(),
                    &completed_pages, done);
          finalized[r] = 1;
        } else if (++run.short_retries <= kMaxEintrRetries) {
          // Mid-file partial transfer: re-aim the iovecs past the bytes we
          // have and resubmit the remainder, exactly like the sync
          // backend's ReadRun loop.
          run.got += static_cast<size_t>(cqe.res);
          RebuildIov(reqs, &run, &iov[run.first]);
          pending.push_back(r);
        } else {
          run.got += static_cast<size_t>(cqe.res);
          FinishRun(reqs, run, run.got,
                    Status::IOError("io_uring read: persistent short read"),
                    &completed_pages, done);
          finalized[r] = 1;
        }
        ++head;
        __atomic_store_n(ring->cq_head, head, __ATOMIC_RELEASE);
      }
    }
  }

 private:
  static void PushSqe(Ring* ring, int fd, const Run& run, const iovec* iov,
                      uint64_t offset, size_t run_index) {
    const unsigned tail = *ring->sq_tail;  // single producer: plain read ok
    const unsigned idx = tail & *ring->sq_mask;
    io_uring_sqe* s = &ring->sqes[idx];
    std::memset(s, 0, sizeof(*s));
    s->opcode = IORING_OP_READV;
    s->fd = fd;
    s->addr = reinterpret_cast<uint64_t>(iov);
    s->len = run.nvec;
    s->off = offset;
    s->user_data = run_index;
    ring->sq_array[idx] = idx;
    __atomic_store_n(ring->sq_tail, tail + 1, __ATOMIC_RELEASE);
  }

  // Re-aims a run's iovecs past the `run->got` bytes already landed,
  // compacting the remainder into the front of the run's iov slots.
  static void RebuildIov(PageIoRequest* reqs, Run* run, iovec* iov) {
    const uint32_t page_size = reqs[run->first].page_size;
    size_t skip = run->got;
    unsigned nv = 0;
    for (size_t k = 0; k < run->npages; ++k) {
      if (skip >= page_size) {
        skip -= page_size;
        continue;
      }
      iov[nv].iov_base = reqs[run->first + k].buf + skip;
      iov[nv].iov_len = page_size - skip;
      skip = 0;
      ++nv;
    }
    run->nvec = nv;
  }

  // Submits `to_submit` SQEs (no wait). Retries EINTR/EAGAIN up to
  // kMaxEintrRetries; returns false on a hard failure or when the cap is
  // exceeded (errno preserved). `*consumed` is the count the kernel
  // actually took — those SQEs are in flight even when this returns false.
  static bool Submit(Ring* ring, unsigned to_submit, unsigned* consumed) {
    *consumed = 0;
    int transient = 0;
    while (to_submit > 0) {
      const int fault = internal::ConsumeInjectedFault();
      internal::CountReadSyscall();
      int r;
      if (fault != 0) {
        errno = fault;
        r = -1;
      } else {
        r = SysIoUringEnter(ring->fd, to_submit, 0, 0);
      }
      if (r < 0) {
        if ((errno == EINTR || errno == EAGAIN) &&
            ++transient <= kMaxEintrRetries) {
          continue;
        }
        return false;
      }
      to_submit -= static_cast<unsigned>(r);
      *consumed += static_cast<unsigned>(r);
    }
    return true;
  }

  // Blocks until at least one completion is reapable. Retries EINTR/EAGAIN
  // up to kMaxEintrRetries, then fails (errno preserved).
  static bool WaitForCompletion(Ring* ring) {
    int transient = 0;
    for (;;) {
      const unsigned head = __atomic_load_n(ring->cq_head, __ATOMIC_ACQUIRE);
      const unsigned tail = __atomic_load_n(ring->cq_tail, __ATOMIC_ACQUIRE);
      if (head != tail) return true;
      const int fault = internal::ConsumeInjectedFault();
      internal::CountReadSyscall();
      int r;
      if (fault != 0) {
        errno = fault;
        r = -1;
      } else {
        r = SysIoUringEnter(ring->fd, 0, 1, IORING_ENTER_GETEVENTS);
      }
      if (r < 0) {
        if (errno != EINTR && errno != EAGAIN) return false;
        if (++transient > kMaxEintrRetries) return false;
      }
    }
  }

  // Hard-failure teardown. Two hazards if we just returned: (a) the kernel
  // still owns up to `*kernel_inflight` READV SQEs aimed at the caller's
  // buffers — returning lets the caller free them and the async completion
  // scribbles freed heap; (b) SQEs pushed onto the SQ ring but never
  // consumed by the kernel would be submitted by the NEXT batch on this
  // thread, pointing at this batch's dead iovecs. So: rewind our tail to
  // the kernel's head (discarding unconsumed SQEs), then reap until
  // nothing is in flight — completions drained here are finalized with
  // their real results — and only then fail whatever never completed. If
  // the drain itself cannot finish, tear the ring down so nothing stale
  // can ever reach a later batch.
  static void AbortBatch(Ring* ring, PageIoRequest* reqs,
                         std::vector<Run>* runs, std::vector<char>* finalized,
                         size_t* kernel_inflight, size_t* completed_pages,
                         const PageIoDoneFn& done, const std::string& msg) {
    const unsigned kernel_head =
        __atomic_load_n(ring->sq_head, __ATOMIC_ACQUIRE);
    __atomic_store_n(ring->sq_tail, kernel_head, __ATOMIC_RELEASE);
    if (!DrainInflight(ring, reqs, runs, finalized, kernel_inflight,
                       completed_pages, done)) {
      ring->Teardown();  // next batch on this thread re-inits from scratch
    }
    FailUnfinished(reqs, *runs, finalized, completed_pages, done, msg);
  }

  // Reaps until every kernel-held SQE has completed, finalizing each run
  // with the result its completion carried (no resubmission — the batch is
  // aborting). Deliberately bypasses the fault hook: this is the cleanup
  // path, and bailing out early would hand the kernel freed buffers.
  // Returns false only if io_uring_enter fails hard or the retry cap is
  // exhausted with SQEs still in flight.
  static bool DrainInflight(Ring* ring, PageIoRequest* reqs,
                            std::vector<Run>* runs,
                            std::vector<char>* finalized,
                            size_t* kernel_inflight, size_t* completed_pages,
                            const PageIoDoneFn& done) {
    int transient = 0;
    while (*kernel_inflight > 0) {
      unsigned head = __atomic_load_n(ring->cq_head, __ATOMIC_ACQUIRE);
      const unsigned tail = __atomic_load_n(ring->cq_tail, __ATOMIC_ACQUIRE);
      while (head != tail && *kernel_inflight > 0) {
        const io_uring_cqe& cqe = ring->cqes[head & *ring->cq_mask];
        const size_t r = static_cast<size_t>(cqe.user_data);
        Run& run = (*runs)[r];
        --*kernel_inflight;
        if (cqe.res >= 0) {
          run.got += static_cast<size_t>(cqe.res);
          FinishRun(reqs, run, run.got, Status::OK(), completed_pages,
                    done);
        } else {
          FinishRun(reqs, run, run.got,
                    Status::IOError(std::string("io_uring read: ") +
                                    std::strerror(-cqe.res)),
                    completed_pages, done);
        }
        (*finalized)[r] = 1;
        ++head;
        __atomic_store_n(ring->cq_head, head, __ATOMIC_RELEASE);
      }
      if (*kernel_inflight == 0) break;
      internal::CountReadSyscall();
      const int r =
          SysIoUringEnter(ring->fd, 0, 1, IORING_ENTER_GETEVENTS);
      if (r < 0) {
        if (errno != EINTR && errno != EAGAIN) return false;
        if (++transient > kMaxEintrRetries) return false;
      }
    }
    return true;
  }

  // Finalizes every page of one run from its completed byte count: pages
  // fully covered are OK, the rest surface a short-read error — a failed
  // run never poisons pages outside it.
  static void FinishRun(PageIoRequest* reqs, const Run& run, size_t got,
                        const Status& st, size_t* completed_pages,
                        const PageIoDoneFn& done) {
    const size_t page_size = reqs[run.first].page_size;
    for (size_t k = 0; k < run.npages; ++k) {
      PageIoRequest& q = reqs[run.first + k];
      if (!st.ok()) {
        q.status = st;
      } else if ((k + 1) * page_size <= got) {
        q.status = Status::OK();
      } else {
        q.status = Status::IOError(
            "short read at lpn " + std::to_string(q.lpn) + " (got " +
            std::to_string(got) + " bytes of a " +
            std::to_string(run.npages) + "-page run)");
      }
      ++*completed_pages;
      if (done) done(run.first + k);
    }
  }

  // After a hard submission failure every run not yet finalized gets `msg`,
  // so the caller always sees exactly one final status per page.
  static void FailUnfinished(PageIoRequest* reqs, const std::vector<Run>& runs,
                             std::vector<char>* finalized,
                             size_t* completed_pages, const PageIoDoneFn& done,
                             const std::string& msg) {
    for (size_t r = 0; r < runs.size(); ++r) {
      if ((*finalized)[r]) continue;
      (*finalized)[r] = 1;
      for (size_t k = 0; k < runs[r].npages; ++k) {
        reqs[runs[r].first + k].status = Status::IOError(msg);
        ++*completed_pages;
        if (done) done(runs[r].first + k);
      }
    }
  }

  // A one-page batch, or a thread without a ring: plain sequential preads,
  // each from its own file, with per-page round trips (mirrors the sync
  // backend's cost model).
  static void FallbackSequential(PageIoRequest* reqs, size_t n,
                                 uint32_t simulated_latency_us,
                                 const PageIoDoneFn& done) {
    for (size_t i = 0; i < n; ++i) {
      ChargeSimulatedLatency(simulated_latency_us);
      const size_t page_size = reqs[i].page_size;
      size_t got = 0;
      Status st = PreadFull(reqs[i].fd, reqs[i].buf, page_size,
                            static_cast<off_t>(reqs[i].lpn * page_size), &got);
      if (st.ok() && got < page_size) {
        st = Status::IOError("short read at lpn " +
                             std::to_string(reqs[i].lpn));
      }
      reqs[i].status = st;
      if (done) done(i);
    }
  }
};

}  // namespace

namespace internal {

IoBackend* UringBackendOrNull() {
  static IoBackend* backend = []() -> IoBackend* {
    // Runtime probe: a throwaway ring proves io_uring_setup + mmap work
    // here (seccomp policies and pre-5.1 kernels fail cleanly).
    Ring probe;
    if (!probe.Init(4)) return nullptr;
    return new UringIoBackend();
  }();
  return backend;
}

}  // namespace internal

}  // namespace payg

#else  // !PAYG_HAS_IO_URING

namespace payg {
namespace internal {
IoBackend* UringBackendOrNull() { return nullptr; }
}  // namespace internal
}  // namespace payg

#endif
