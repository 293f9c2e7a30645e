#ifndef PAYG_BUFFER_RESOURCE_MANAGER_H_
#define PAYG_BUFFER_RESOURCE_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buffer/disposition.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace payg {

using ResourceId = uint64_t;
inline constexpr ResourceId kInvalidResourceId = 0;

// Called when the manager evicts a resource. Runs *outside* the manager's
// lock; by the time it runs the registration is already gone, so the owner
// must only release its own memory and must not call back into the manager
// for this id. Reactive eviction runs it on the thread whose Register* or
// SetGlobalBudget pushed the total over budget, so an owner registers
// pinned: an unpinned registration made under the owner's lock could pick
// itself as the victim and run its callback against that same lock.
using EvictCallback = std::function<void()>;

namespace buffer_detail {

// Dead flag of Entry::pin_state: set exactly once, by whoever removes the
// resource (evictor or voluntary Unregister). The low 63 bits count pins.
inline constexpr uint64_t kDeadFlag = 1ull << 63;
inline constexpr uint64_t kPinCountMask = kDeadFlag - 1;

// One registered resource. Shared ownership: the striped table holds one
// reference, every outstanding pin handle holds another, so a pin can be
// released (atomically, without any lock) even after the registration is
// gone.
//
// Field protection: `pin_state` is the lock-free pin/liveness word and
// `last_touch` the recency stamp (a unique tick of the manager's clock,
// stored relaxed on every touch). Everything else is written once before
// the entry is published and read-only afterwards, except `on_evict`, which
// only the dead-flag winner moves out.
struct Entry {
  ResourceId id = kInvalidResourceId;
  std::string label;  // plain registrations
  // Paged registrations: label is conceptually `*label_prefix + "#" +
  // label_id`, kept unformatted so the page-load path never allocates.
  std::shared_ptr<const std::string> label_prefix;
  uint64_t label_id = 0;
  uint64_t bytes = 0;
  Disposition disposition = Disposition::kTemporary;
  PoolId pool = PoolId::kGeneral;
  std::atomic<uint64_t> pin_state{0};
  std::atomic<uint64_t> last_touch{0};
  EvictCallback on_evict;
};

}  // namespace buffer_detail

// Opaque reference to a registered resource. Pinning through a handle is a
// pure CAS loop on the entry's pin word — no mutex, no hash lookup — which
// is what lets the page-cache hit path scale with threads.
using ResourceHandle = std::shared_ptr<buffer_detail::Entry>;

// SAP HANA-style memory manager (§5): tracks *logical resources* — a fully
// resident column registers as one resource, each loaded page of a page
// loadable column registers as its own resource with kPagedAttribute
// disposition.
//
// Eviction:
//  * Reactive: when total tracked bytes exceed the global budget, first
//    shrink paged-attribute pools down to their lower limits (plain LRU,
//    weight ignored), then evict general resources in descending t/w order.
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
//  * Touch: one relaxed store of a fresh clock tick into the entry's stamp.
//  * Register/Unregister: the id→entry table is striped; registration and
//    voluntary release take one stripe mutex plus atomic byte counters —
//    never the main mutex (unless registration pushes the budget over and
//    has to run reactive eviction).
//  * Victim selection: main mutex. A pass walks the table stripes once,
//    sorts one pool's candidates by their stamps and evicts from the front.
// Lock order: mu_ → table stripe. No path holds a stripe mutex while
// acquiring mu_.
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

  // Registers a resource and runs reactive eviction if over budget. The
  // returned id is never kInvalidResourceId.
  ResourceId Register(std::string label, uint64_t bytes,
                      Disposition disposition, PoolId pool,
                      EvictCallback on_evict);

  // Registers a resource that is already pinned once (pin_count starts at
  // 1), so it can never be evicted between registration and the caller's
  // first pin. The caller owns one Unpin. When `out_handle` is non-null it
  // receives the lock-free pin handle.
  ResourceId RegisterPinned(std::string label, uint64_t bytes,
                            Disposition disposition, PoolId pool,
                            EvictCallback on_evict,
                            ResourceHandle* out_handle = nullptr);

  // RegisterPinned for a page of a paged structure: the label is
  // `*label_prefix + "#" + label_id`, stored unformatted, so this path
  // performs no string allocation (the prefix is shared by every page of
  // one chain).
  ResourceId RegisterPinnedPage(std::shared_ptr<const std::string> label_prefix,
                                uint64_t label_id, uint64_t bytes,
                                Disposition disposition, PoolId pool,
                                EvictCallback on_evict,
                                ResourceHandle* out_handle = nullptr);

  // Removes a resource without invoking its eviction callback (the owner is
  // releasing it voluntarily). Returns false if the id is unknown (already
  // evicted) — callers use this to detect eviction races. Takes only the
  // entry's table stripe, never the main mutex.
  bool Unregister(ResourceId id);

  // Marks the resource recently used: stores a fresh clock tick into its
  // stamp, taking no lock. No-op if already evicted.
  void Touch(ResourceId id);
  void Touch(const ResourceHandle& handle);

  // Pins the resource against eviction. Returns false if the resource no
  // longer exists. Each successful Pin must be matched by Unpin.
  bool Pin(ResourceId id);
  void Unpin(ResourceId id);

  // Resolves the lock-free pin handle of a live resource (one stripe
  // lookup); null if the id is unknown. Owners of long-lived registrations
  // resolve once and pin through the handle afterwards.
  ResourceHandle FindHandle(ResourceId id) const { return Find(id); }

  // Lock-free pin through a handle: CAS loop on the entry's pin word. Fails
  // iff the entry has been removed (evicted or unregistered). Does NOT
  // record a recency touch — hot paths that want one call Touch(handle).
  static bool TryPinHandle(const ResourceHandle& handle) {
    uint64_t cur = handle->pin_state.load(std::memory_order_acquire);
    while (true) {
      if (cur & buffer_detail::kDeadFlag) return false;
      if (handle->pin_state.compare_exchange_weak(
              cur, cur + 1, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return true;
      }
    }
  }

  // Lock-free unpin. Safe after the registration is gone: the handle keeps
  // the entry alive and the count bits are independent of the dead flag.
  static void UnpinHandle(const ResourceHandle& handle) {
    const uint64_t prev =
        handle->pin_state.fetch_sub(1, std::memory_order_release);
    PAYG_ASSERT_MSG((prev & buffer_detail::kPinCountMask) != 0,
                    "unpin without pin");
    (void)prev;
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

  ResourceHandle Find(ResourceId id) const {
    const TableStripe& stripe = table_stripes_[id % kTableStripes];
    MutexLock lock(stripe.mu);
    auto it = stripe.map.find(id);
    return it == stripe.map.end() ? nullptr : it->second;
  }
  void EraseFromTable(ResourceId id) {
    TableStripe& stripe = table_stripes_[id % kTableStripes];
    MutexLock lock(stripe.mu);
    stripe.map.erase(id);
  }

  // Publishes a fully-populated entry (label fields set by the caller):
  // assigns the id and the first stamp, inserts into the table stripe, and
  // runs reactive eviction if the new bytes push the total over budget.
  ResourceId RegisterInternal(ResourceHandle entry, uint32_t initial_pins,
                              ResourceHandle* out_handle);
  // Drops a removed entry's accounting: table slot, bytes, count, gauges.
  // The caller has already won the dead flag.
  void Forget(const Entry& e);
  // The one victim collector. Walks the table stripes, ranks the unpinned,
  // swappable entries of `pool` by descending t/w (w = 1 inside a paged
  // pool, so plain LRU there, §5) and CASes them dead until the pool level
  // (paged pool) or the total (general pool) is at most `target`.
  // `proactive` only labels the eviction counter (sweeper vs. budget).
  void EvictLocked(PoolId pool, uint64_t target, bool proactive,
                   std::vector<EvictCallback>* callbacks) REQUIRES(mu_);
  // Over budget: shrinks the paged pools to their lower limits, then evicts
  // general resources until the total fits, and runs the callbacks on the
  // calling thread after releasing mu_.
  void ReactiveEvict();
  // Proactive pass: every paged pool over its upper limit, down to its
  // lower limit.
  void SweepLocked(std::vector<EvictCallback>* callbacks) REQUIRES(mu_);
  // Runs a sweep's callbacks outside mu_ and records the sweep (DESIGN.md
  // §6: only sweeps that evicted).
  void FinishSweep(std::chrono::steady_clock::time_point start,
                   const std::vector<EvictCallback>& callbacks);
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

// RAII pin. Obtained via PinnedResource::TryPin; unpins on destruction.
// Holds the resource's handle, so release is lock-free and remains safe
// after the registration is gone.
class PinnedResource {
 public:
  PinnedResource() = default;

  static PinnedResource TryPin(ResourceManager* rm, ResourceId id) {
    PinnedResource p;
    if (rm == nullptr) return p;
    ResourceHandle h = rm->FindHandle(id);
    if (h != nullptr && ResourceManager::TryPinHandle(h)) {
      rm->Touch(h);  // pins count as recency, as they always have
      p.handle_ = std::move(h);
    }
    return p;
  }

  // Lock-free variant for callers that already hold the handle.
  static PinnedResource TryPin(ResourceHandle handle) {
    PinnedResource p;
    if (handle != nullptr && ResourceManager::TryPinHandle(handle)) {
      p.handle_ = std::move(handle);
    }
    return p;
  }

  // Adopts a pin that already exists (RegisterPinned's initial pin) without
  // pinning again.
  static PinnedResource Adopt(ResourceManager* rm, ResourceId id) {
    PinnedResource p;
    p.handle_ = rm->FindHandle(id);
    PAYG_ASSERT(p.handle_ != nullptr);
    return p;
  }
  static PinnedResource Adopt(ResourceHandle handle) {
    PinnedResource p;
    p.handle_ = std::move(handle);
    return p;
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
  ResourceId id() const {
    return handle_ == nullptr ? kInvalidResourceId : handle_->id;
  }

  void Release() {
    if (handle_ != nullptr) {
      ResourceManager::UnpinHandle(handle_);
      handle_.reset();
    }
  }

 private:
  ResourceHandle handle_;
};

}  // namespace payg

#endif  // PAYG_BUFFER_RESOURCE_MANAGER_H_
