#ifndef PAYG_BUFFER_RESOURCE_MANAGER_H_
#define PAYG_BUFFER_RESOURCE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "buffer/disposition.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace payg {

using ResourceId = uint64_t;
inline constexpr ResourceId kInvalidResourceId = 0;

namespace buffer_detail {

// Dead flag of Entry::pin_state: set exactly once, by whoever removes the
// resource (evictor or voluntary Unregister). The low 63 bits count pins.
inline constexpr uint64_t kDeadFlag = 1ull << 63;
inline constexpr uint64_t kPinCountMask = kDeadFlag - 1;

// Entry::last_touch packs two things into one word: the tick of the
// manager's clock at the latest touch, above a small touch count n (the
// registration and every Touch since, saturating at kTouchCap) in the low
// kTouchBits. A paged victim pass ranks by age × bytes / n (DESIGN.md §8).
inline constexpr int kTouchBits = 8;
inline constexpr uint64_t kTouchCap = (uint64_t{1} << kTouchBits) - 1;
inline constexpr uint64_t StampTick(uint64_t stamp) {
  return stamp >> kTouchBits;
}
inline constexpr uint64_t StampTouches(uint64_t stamp) {
  return stamp & kTouchCap;
}

// One registered resource. Shared ownership: the striped table holds one
// reference, every outstanding pin handle holds another, so a pin can be
// released (atomically, without any lock) even after the registration is
// gone.
//
// Field protection: `pin_state` is the lock-free pin/liveness word and
// `last_touch` the recency stamp (a unique tick of the manager's clock and
// the touch count, loaded and stored relaxed on every touch; a touch that
// races another may lose one count). Everything else is written once before
// the entry is published and read-only afterwards, except `payload`, which
// an eviction resets after winning the dead flag against a zero pin count:
// nothing reads a payload without holding a pin on it, so no reader can
// see the reset.
struct Entry {
  ResourceId id = kInvalidResourceId;
  uint64_t bytes = 0;
  Disposition disposition = Disposition::kTemporary;
  PoolId pool = PoolId::kGeneral;
  std::atomic<uint64_t> pin_state{0};
  std::atomic<uint64_t> last_touch{0};
  // The resource's bytes. Eviction drops them under the manager's lock;
  // otherwise they go with the entry's last reference.
  std::shared_ptr<void> payload;
};

}  // namespace buffer_detail

// Opaque reference to a registered resource. Pinning through a handle is a
// pure CAS loop on the entry's pin word — no mutex, no hash lookup — which
// is what lets the page-cache hit path scale with threads.
using ResourceHandle = std::shared_ptr<buffer_detail::Entry>;

class PinnedResource;

// SAP HANA-style memory manager (§5): tracks *logical resources* — a fully
// resident column registers as one resource, each loaded page of a page
// loadable column registers as its own resource with kPagedAttribute
// disposition.
//
// A registration owns the resource's bytes (its payload), so evicting a
// resource means dropping its payload: no owner code runs for an evictor,
// and an owner may be torn down at any time. An owner learns of an
// eviction only when a pin through its handle fails.
//
// Eviction:
//  * Reactive: when total tracked bytes exceed the global budget, first
//    shrink paged-attribute pools down to their lower limits (descending
//    t × bytes / n: age, size and touches since load; disposition weight
//    ignored), then evict general resources in descending t/w order.
//  * Proactive: a background sweeper shrinks any paged pool that exceeds its
//    upper limit down to its lower limit, even when plenty of memory is
//    available. It runs asynchronously and never blocks new loads.
//
// Pinned resources (pin_count > 0) and kNonSwappable resources are never
// evicted. Evictions are counted once, in the registry counters
// "rm.evictions.reactive|proactive" and "rm.evicted.bytes".
//
// Concurrency layout (hot to cold):
//  * Pin/unpin through a ResourceHandle: lock-free CAS on the entry's pin
//    word. An entry is removed by CAS-ing the word from 0 to the dead flag,
//    so TryPin fails cleanly against a concurrently-chosen victim and a
//    victim is never chosen while pinned.
//  * Touch: one relaxed load and one relaxed store of the entry's stamp
//    (a fresh clock tick and the touch count plus one).
//  * Register/Unregister: the id→entry table is striped; registration and
//    voluntary release take one stripe mutex plus atomic byte counters —
//    never the main mutex (unless registration pushes the budget over and
//    has to run reactive eviction).
//  * Victim selection: main mutex. A pass walks the table stripes once,
//    sorts one pool's candidates by their stamps, evicts from the front and
//    drops the victims' payloads before it releases the mutex.
// Lock order: mu_ → table stripe. No path holds a stripe mutex while
// acquiring mu_, and a payload's destructor takes no lock.
class ResourceManager {
 public:
  struct Limits {
    uint64_t lower = 0;  // shrink target
    uint64_t upper = 0;  // proactive trigger; 0 = unlimited
  };

  ResourceManager();
  ~ResourceManager();

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // Registers `payload` as a resource of `bytes` bytes and runs reactive
  // eviction if that puts the total over budget. The entry owns the
  // payload from now on. It is returned pinned once, so no eviction
  // (including the reactive one this call may run) can pick it before the
  // caller releases that pin; the caller keeps handle() to pin it again.
  // The payload's destructor may run on an evicting thread under the
  // manager's lock: it must take no lock and reach no owner.
  PinnedResource Register(uint64_t bytes, Disposition disposition,
                          PoolId pool, std::shared_ptr<void> payload);

  // Removes a resource its owner releases. The payload stays with the
  // entry until its last reference goes, so outstanding pins keep the
  // bytes alive. Returns false if the resource was already removed
  // (evicted). Takes only the entry's table stripe, never the main mutex.
  bool Unregister(const ResourceHandle& handle);

  // Marks the resource recently used: stores a fresh clock tick and one
  // more touch (up to kTouchCap) into its stamp, taking no lock.
  void Touch(const ResourceHandle& handle);

  // True once the resource has been evicted or unregistered: it can never
  // be pinned again.
  static bool IsDead(const ResourceHandle& handle) {
    return (handle->pin_state.load(std::memory_order_acquire) &
            buffer_detail::kDeadFlag) != 0;
  }

  // Global memory budget in bytes; 0 = unlimited. Triggers reactive
  // eviction immediately if the new budget is already exceeded.
  void SetGlobalBudget(uint64_t bytes);

  // Lower/upper limits of a paged pool (§5). upper == 0 disables the
  // proactive sweep for that pool. The general pool has no limits: only
  // the global budget bounds it.
  void SetPoolLimits(PoolId pool, Limits limits);

  // Runs one synchronous proactive sweep (tests use this to avoid timing
  // dependence on the background thread).
  void SweepNow();

  uint64_t resource_count() const {
    return resource_count_.load(std::memory_order_relaxed);
  }
  uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t pool_bytes(PoolId pool) const {
    return pool_bytes_[static_cast<int>(pool)].load(std::memory_order_relaxed);
  }

 private:
  using Entry = buffer_detail::Entry;

  // Striped id→entry table: the miss path (register/unregister) contends
  // only on one stripe.
  static constexpr int kTableStripes = 16;
  struct TableStripe {
    mutable Mutex mu;
    std::unordered_map<ResourceId, ResourceHandle> map GUARDED_BY(mu);
  };

  // Drops a removed entry's accounting: table slot, bytes, count, gauges.
  // The caller has already won the dead flag.
  void Forget(const Entry& e);
  // The one victim collector. Walks the table stripes, ranks the unpinned,
  // swappable entries of `pool` by descending score — t × bytes / n inside
  // a paged pool, t/w in the general pool (§5) — and CASes them dead until
  // the pool level (paged pool) or the total (general pool) is at most
  // `target`; then drops the victims' payloads in victim order. Returns
  // the number of victims. `proactive` only labels the eviction counter
  // (sweeper vs. budget).
  size_t EvictLocked(PoolId pool, uint64_t target, bool proactive)
      REQUIRES(mu_);
  // Over budget: shrinks the paged pools to their lower limits, then evicts
  // general resources until the total fits.
  void ReactiveEvict();
  // Proactive pass: every paged pool over its upper limit, down to its
  // lower limit. Records the sweep (DESIGN.md §6: only sweeps that
  // evicted).
  void SweepLocked() REQUIRES(mu_);
  void BackgroundSweeper();
  // Pushes total/pool byte levels and the resource count into the registry
  // gauges ("rm.bytes.*", "rm.resources"). Gauges are statistics: written
  // from atomic counters without holding any lock.
  void UpdateGauges();

  TableStripe table_stripes_[kTableStripes];

  // Byte/count accounting: atomics, so the register/unregister path needs
  // no lock and the budget check is one relaxed load.
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> pool_bytes_[kNumPools];
  std::atomic<uint64_t> resource_count_{0};
  std::atomic<uint64_t> global_budget_{0};
  struct AtomicLimits {
    std::atomic<uint64_t> lower{0};
    std::atomic<uint64_t> upper{0};
  };
  AtomicLimits pool_limits_[kNumPools];

  // Serializes victim passes. Lock order (DESIGN.md §8): mu_ → table
  // stripe; no path acquires mu_ while holding a stripe.
  Mutex mu_;
  CondVar sweeper_cv_;
  std::atomic<ResourceId> next_id_{1};
  std::atomic<uint64_t> clock_{1};
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::thread sweeper_;

  // Registry metrics (resolved once; see DESIGN.md §6 for the name scheme).
  obs::Counter* m_evict_reactive_;
  obs::Counter* m_evict_proactive_;
  obs::Counter* m_evicted_bytes_;
  obs::Histogram* m_sweep_duration_us_;
  obs::Gauge* m_bytes_total_;
  obs::Gauge* m_bytes_pool_[kNumPools];
  obs::Gauge* m_resources_;
};

// RAII pin on a registered resource: ResourceManager::Register returns one,
// TryPin takes another through a handle, and destruction unpins. Holds the
// resource's handle, so release is lock-free and remains safe after the
// registration is gone. The payload may be read only through a pin.
class PinnedResource {
 public:
  PinnedResource() = default;

  // Lock-free pin: a CAS loop on the entry's pin word that fails iff the
  // entry has been removed (evicted or unregistered). Does NOT record a
  // recency touch — callers that want one call ResourceManager::Touch.
  static PinnedResource TryPin(ResourceHandle handle) {
    if (handle == nullptr) return PinnedResource();
    uint64_t cur = handle->pin_state.load(std::memory_order_acquire);
    while (true) {
      if (cur & buffer_detail::kDeadFlag) return PinnedResource();
      if (handle->pin_state.compare_exchange_weak(
              cur, cur + 1, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return PinnedResource(std::move(handle));
      }
    }
  }

  PinnedResource(PinnedResource&& other) noexcept { *this = std::move(other); }
  PinnedResource& operator=(PinnedResource&& other) noexcept {
    if (this == &other) return *this;  // self-move must not drop the pin
    Release();
    handle_ = std::move(other.handle_);
    return *this;
  }
  PinnedResource(const PinnedResource&) = delete;
  PinnedResource& operator=(const PinnedResource&) = delete;

  ~PinnedResource() { Release(); }

  bool valid() const { return handle_ != nullptr; }
  const ResourceHandle& handle() const { return handle_; }
  // The registration's payload; stable while the pin is held.
  void* payload() const { return handle_->payload.get(); }

  // Unpins: one fetch_sub, safe after the registration is gone (the handle
  // keeps the entry alive and the count bits are independent of the dead
  // flag).
  void Release() {
    if (handle_ == nullptr) return;
    const uint64_t prev =
        handle_->pin_state.fetch_sub(1, std::memory_order_release);
    PAYG_ASSERT_MSG((prev & buffer_detail::kPinCountMask) != 0,
                    "unpin without pin");
    (void)prev;
    handle_.reset();
  }

 private:
  friend class ResourceManager;

  // Adopts a pin that already exists (a registration's initial pin).
  explicit PinnedResource(ResourceHandle pinned)
      : handle_(std::move(pinned)) {}

  ResourceHandle handle_;
};

}  // namespace payg

#endif  // PAYG_BUFFER_RESOURCE_MANAGER_H_
