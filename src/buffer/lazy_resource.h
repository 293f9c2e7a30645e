#ifndef PAYG_BUFFER_LAZY_RESOURCE_H_
#define PAYG_BUFFER_LAZY_RESOURCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "buffer/resource_manager.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace payg {

// An object loaded on first use and registered with the resource manager as
// one resource: a fully resident column's payload, or a paged structure's
// page summary or dictionary helpers. Pin() returns the
// resident object pinned, or loads, registers and installs a fresh one;
// eviction drops it and the next Pin() loads it again. A caller keeps the
// object alive through its shared_ptr and off the victim list through its
// pin.
//
// load_mu_ serializes loaders, so racing first readers share one load. The
// eviction callback takes only mu_, and the registration runs under
// load_mu_ but not mu_: it may run reactive eviction, and with it other
// owners' callbacks, on this thread (DESIGN.md §8). It registers pinned, so
// that eviction can never pick the object being installed.
template <typename T>
class LazyResource {
 public:
  LazyResource(ResourceManager* rm, std::string label, Disposition disposition,
               PoolId pool)
      : rm_(rm),
        label_(std::move(label)),
        disposition_(disposition),
        pool_(pool) {}
  ~LazyResource() { Unload(); }

  LazyResource(const LazyResource&) = delete;
  LazyResource& operator=(const LazyResource&) = delete;

  // `load()` returns Result<std::shared_ptr<T>>; the registration is
  // T::MemoryBytes() bytes.
  template <typename Load>
  Result<std::shared_ptr<T>> Pin(PinnedResource* pin, const Load& load)
      EXCLUDES(load_mu_, mu_) {
    {
      MutexLock lock(mu_);
      if (std::shared_ptr<T> v = PinLocked(pin)) return v;
    }
    MutexLock loading(load_mu_);
    {
      MutexLock lock(mu_);
      if (std::shared_ptr<T> v = PinLocked(pin)) return v;  // loaded meanwhile
    }
    PAYG_ASSIGN_OR_RETURN(std::shared_ptr<T> fresh, load());
    const uint64_t gen = loads_.fetch_add(1, std::memory_order_relaxed) + 1;
    ResourceHandle handle;
    const ResourceId id = rm_->RegisterPinned(
        label_, fresh->MemoryBytes(), disposition_, pool_,
        [this, gen] {
          MutexLock lock(mu_);
          // A stale callback must not drop a newer load.
          if (gen_ == gen) Forget();
        },
        &handle);
    MutexLock lock(mu_);
    value_ = fresh;
    id_ = id;
    gen_ = gen;
    *pin = PinnedResource::Adopt(std::move(handle));
    return fresh;
  }

  // The installed object, unpinned (null when not loaded). For accounting
  // only: readers go through Pin().
  std::shared_ptr<T> resident() const {
    MutexLock lock(mu_);
    return value_;
  }

  // Releases the registration (owner-initiated unload). Holders of a
  // shared_ptr keep their copy alive.
  void Unload() {
    MutexLock lock(mu_);
    if (value_ != nullptr) rm_->Unregister(id_);
    Forget();
  }

  // Loads performed so far.
  uint64_t load_count() const {
    return loads_.load(std::memory_order_relaxed);
  }

 private:
  // Pins the installed object. One whose registration was evicted (its
  // callback still pending) is dropped instead, so the caller loads anew.
  std::shared_ptr<T> PinLocked(PinnedResource* pin) REQUIRES(mu_) {
    if (value_ == nullptr) return nullptr;
    PinnedResource p = PinnedResource::TryPin(rm_, id_);
    if (!p.valid()) {
      Forget();
      return nullptr;
    }
    *pin = std::move(p);
    return value_;
  }

  void Forget() REQUIRES(mu_) {
    value_ = nullptr;
    id_ = kInvalidResourceId;
  }

  ResourceManager* const rm_;
  const std::string label_;
  const Disposition disposition_;
  const PoolId pool_;
  // Written under load_mu_; also the generation of each load.
  std::atomic<uint64_t> loads_{0};

  Mutex load_mu_;
  mutable Mutex mu_;
  std::shared_ptr<T> value_ GUARDED_BY(mu_);
  ResourceId id_ GUARDED_BY(mu_) = kInvalidResourceId;
  uint64_t gen_ GUARDED_BY(mu_) = 0;
};

}  // namespace payg

#endif  // PAYG_BUFFER_LAZY_RESOURCE_H_
