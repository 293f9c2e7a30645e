#include "storage/io_backend.h"

#include <unistd.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/env.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace payg {

namespace {

constexpr uint32_t kMaxIoDepth = 128;
// Cap on pages coalesced into one vectored read (well under IOV_MAX; at the
// default 256 KiB pages this is already a 16 MiB transfer).
constexpr size_t kMaxPagesPerVector = 64;
constexpr int kMaxEintrRetries = 100;

std::atomic<IoFaultHook> g_fault_hook{nullptr};
std::atomic<uint32_t> g_io_depth{0};  // 0 = not yet resolved from env

obs::Counter* SyscallCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().counter("io.syscalls");
  return c;
}

int InjectedFault() {
  IoFaultHook hook = g_fault_hook.load(std::memory_order_relaxed);
  return hook != nullptr ? hook() : 0;
}

// The portable fallback: per-page device round trips, exactly the cost
// model of the historical one-pread-per-page path, but with contiguous runs
// coalesced into one preadv so a batched submission issues measurably fewer
// syscalls. Completion callbacks fire page by page (after that page's
// simulated round trip), preserving completion-driven publish.
class SyncIoBackend final : public IoBackend {
 public:
  const char* name() const override { return "sync"; }
  bool queue_depth_aware() const override { return false; }

  void ReadBatch(PageIoRequest* reqs, size_t n, uint32_t simulated_latency_us,
                 PageIoDoneFn done) override {
    size_t i = 0;
    while (i < n) {
      // Maximal run of contiguous pages starting at i (adjacent in the
      // array AND adjacent in one file).
      size_t run = 1;
      while (i + run < n && run < kMaxPagesPerVector &&
             reqs[i + run].fd == reqs[i].fd &&
             reqs[i + run].page_size == reqs[i].page_size &&
             reqs[i + run].lpn == reqs[i].lpn + run) {
        ++run;
      }
      const size_t page_size = reqs[i].page_size;
      size_t got = 0;
      Status st = ReadRun(&reqs[i], run, &got);
      for (size_t k = 0; k < run; ++k) {
        // One device round trip per page: synchronous semantics, the bytes
        // of page k "arrive" after k+1 round trips even though the preadv
        // already happened.
        ChargeSimulatedLatency(simulated_latency_us);
        if (st.ok() && (k + 1) * page_size <= got) {
          reqs[i + k].status = Status::OK();
        } else if (st.ok()) {
          reqs[i + k].status = Status::IOError(
              "short read at lpn " + std::to_string(reqs[i + k].lpn) +
              " (got " + std::to_string(got) + " of " +
              std::to_string(run * page_size) + " run bytes)");
        } else {
          reqs[i + k].status = st;
        }
        if (done) done(i + k);
      }
      i += run;
    }
  }

 private:
  // One vectored read for `run` contiguous pages of one file; EINTR
  // retried, faults injected via the test hook. `*got` is the total bytes
  // read.
  static Status ReadRun(PageIoRequest* reqs, size_t run, size_t* got) {
    const int fd = reqs[0].fd;
    const size_t page_size = reqs[0].page_size;
    struct iovec iov[kMaxPagesPerVector];
    for (size_t k = 0; k < run; ++k) {
      iov[k].iov_base = reqs[k].buf;
      iov[k].iov_len = page_size;
    }
    const off_t offset = static_cast<off_t>(reqs[0].lpn * page_size);
    const size_t want = run * page_size;
    size_t nvec = run;  // live iovecs; shrinks as partial reads are re-aimed
    *got = 0;
    for (int attempt = 0; attempt < kMaxEintrRetries; ++attempt) {
      int fault = InjectedFault();
      SyscallCounter()->Inc();
      ssize_t r;
      if (fault != 0) {
        errno = fault;
        r = -1;
      } else {
        r = ::preadv(fd, iov, static_cast<int>(nvec), offset + *got);
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("preadv: ") + std::strerror(errno));
      }
      *got += static_cast<size_t>(r);
      if (r == 0 || *got >= want) return Status::OK();  // EOF or complete
      // Partial read: re-aim the iovecs past the bytes we have.
      size_t skip = *got;
      size_t nv = 0;
      for (size_t k = 0; k < run; ++k) {
        if (skip >= page_size) {
          skip -= page_size;
          continue;
        }
        iov[nv].iov_base = reqs[k].buf + skip;
        iov[nv].iov_len = page_size - skip;
        skip = 0;
        ++nv;
      }
      nvec = nv;  // rebuilt from scratch each attempt, from reqs + *got
    }
    return Status::IOError("preadv: persistent EINTR");
  }
};

SyncIoBackend* SyncBackend() {
  static SyncIoBackend* b = new SyncIoBackend();
  return b;
}

std::atomic<IoBackend*> g_backend{nullptr};

void PublishBackendGauge(IoBackend* b) {
  obs::MetricsRegistry::Global().gauge("io.backend")->Set(
      b->queue_depth_aware() ? 1 : 0);
}

IoBackend* ResolveBackendFromEnv() {
  const char* want = EnvRaw("PAYG_IO_BACKEND");
  IoBackend* uring = internal::UringBackendOrNull();
  IoBackend* chosen;
  if (want != nullptr && std::strcmp(want, "sync") == 0) {
    chosen = SyncBackend();
  } else if (want != nullptr && std::strcmp(want, "uring") == 0) {
    chosen = uring;
    if (chosen == nullptr) {
      std::fprintf(stderr,
                   "payg: PAYG_IO_BACKEND=uring but io_uring is unavailable "
                   "on this host; falling back to the sync backend\n");
      chosen = SyncBackend();
    }
  } else {
    // auto (also the fallback for unknown values): prefer uring.
    chosen = uring != nullptr ? uring : SyncBackend();
  }
  PublishBackendGauge(chosen);
  return chosen;
}

}  // namespace

IoBackend* CurrentIoBackend() {
  IoBackend* b = g_backend.load(std::memory_order_acquire);
  if (b != nullptr) return b;
  // First use: resolve from env. A concurrent SetIoBackend simply wins.
  IoBackend* resolved = ResolveBackendFromEnv();
  IoBackend* expected = nullptr;
  if (g_backend.compare_exchange_strong(expected, resolved,
                                        std::memory_order_acq_rel)) {
    return resolved;
  }
  return expected;
}

Status SetIoBackend(const char* name) {
  if (name != nullptr && std::strcmp(name, "sync") == 0) {
    g_backend.store(SyncBackend(), std::memory_order_release);
    PublishBackendGauge(SyncBackend());
    return Status::OK();
  }
  if (name != nullptr && std::strcmp(name, "uring") == 0) {
    IoBackend* uring = internal::UringBackendOrNull();
    if (uring == nullptr) {
      return Status::Unsupported("io_uring is unavailable on this host");
    }
    g_backend.store(uring, std::memory_order_release);
    PublishBackendGauge(uring);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown I/O backend (want sync|uring)");
}

bool IoUringAvailable() { return internal::UringBackendOrNull() != nullptr; }

uint32_t IoQueueDepth() {
  uint32_t d = g_io_depth.load(std::memory_order_relaxed);
  if (d != 0) return d;
  d = static_cast<uint32_t>(
      EnvLong("PAYG_IO_DEPTH", 1, kMaxIoDepth, /*fallback=*/8));
  obs::MetricsRegistry::Global().gauge("io.depth")->Set(d);
  g_io_depth.store(d, std::memory_order_relaxed);
  return d;
}

void SetIoQueueDepth(uint32_t depth) {
  const uint32_t d = std::clamp<uint32_t>(depth, 1, kMaxIoDepth);
  g_io_depth.store(d, std::memory_order_relaxed);
  obs::MetricsRegistry::Global().gauge("io.depth")->Set(d);
}

Status PreadFull(int fd, uint8_t* buf, size_t len, off_t offset,
                 size_t* got) {
  *got = 0;
  for (int attempt = 0; attempt < kMaxEintrRetries; ++attempt) {
    int fault = InjectedFault();
    SyscallCounter()->Inc();
    ssize_t r;
    if (fault != 0) {
      errno = fault;
      r = -1;
    } else {
      r = ::pread(fd, buf + *got, len - *got, offset + static_cast<off_t>(*got));
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread: ") + std::strerror(errno));
    }
    *got += static_cast<size_t>(r);
    if (r == 0 || *got >= len) return Status::OK();
  }
  return Status::IOError("pread: persistent EINTR");
}

void ChargeSimulatedLatency(uint32_t latency_us) {
  if (latency_us == 0) return;
  if (latency_us >= 1000) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  } else {
    // OS sleeps round sub-millisecond waits up to scheduler granularity;
    // spin for precision.
    SpinWaitMicros(latency_us);
  }
}

void SetIoFaultHookForTest(IoFaultHook hook) {
  g_fault_hook.store(hook, std::memory_order_relaxed);
}

namespace internal {

int ConsumeInjectedFault() { return InjectedFault(); }

void CountReadSyscall() {
  // The shared counter is bumped by the call sites directly; this hook
  // exists for the uring translation unit, which cannot see SyscallCounter.
  SyscallCounter()->Inc();
}

}  // namespace internal

}  // namespace payg
