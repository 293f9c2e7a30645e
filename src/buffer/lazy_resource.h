#ifndef PAYG_BUFFER_LAZY_RESOURCE_H_
#define PAYG_BUFFER_LAZY_RESOURCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "buffer/resource_manager.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace payg {

// An object loaded on first use and registered with the resource manager as
// one resource: a fully resident column's payload, or a paged structure's
// page summary or dictionary helpers. Pin() returns the resident object
// pinned, or loads, registers and installs a fresh one. The registration
// owns the object, so eviction frees it without calling back here; the
// next Pin() finds its handle dead and loads it again. A caller reads the
// object only while it holds the pin.
//
// mu_ serializes loaders, so racing first readers share one load. The
// registration runs under mu_: it may run reactive eviction, which frees
// other registrations' payloads on this thread but runs no owner code, and
// it registers pinned, so that eviction can never pick the object being
// installed.
template <typename T>
class LazyResource {
 public:
  LazyResource(ResourceManager* rm, Disposition disposition, PoolId pool)
      : rm_(rm), disposition_(disposition), pool_(pool) {}
  ~LazyResource() { Unload(); }

  LazyResource(const LazyResource&) = delete;
  LazyResource& operator=(const LazyResource&) = delete;

  // `load()` returns Result<std::shared_ptr<T>>; the registration is
  // T::MemoryBytes() bytes. The returned object stays valid while `*pin`
  // is held.
  template <typename Load>
  Result<const T*> Pin(PinnedResource* pin, const Load& load) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (handle_ != nullptr) {
      PinnedResource p = PinnedResource::TryPin(handle_);
      if (p.valid()) {
        rm_->Touch(handle_);  // pins count as recency
        *pin = std::move(p);
        return static_cast<const T*>(pin->payload());
      }
    }
    PAYG_ASSIGN_OR_RETURN(std::shared_ptr<T> fresh, load());
    loads_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t bytes = fresh->MemoryBytes();
    *pin = rm_->Register(bytes, disposition_, pool_, std::move(fresh));
    handle_ = pin->handle();
    return static_cast<const T*>(pin->payload());
  }

  // Bytes of the installed object, 0 when it is not loaded. For accounting
  // only: readers go through Pin().
  uint64_t resident_bytes() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return handle_ != nullptr && !ResourceManager::IsDead(handle_)
               ? handle_->bytes
               : 0;
  }

  // Releases the registration (owner-initiated unload). Holders of a pin
  // keep the object alive until they release it.
  void Unload() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (handle_ != nullptr) rm_->Unregister(handle_);
    handle_ = nullptr;
  }

  // Loads performed so far.
  uint64_t load_count() const {
    return loads_.load(std::memory_order_relaxed);
  }

 private:
  ResourceManager* const rm_;
  const Disposition disposition_;
  const PoolId pool_;
  std::atomic<uint64_t> loads_{0};

  mutable Mutex mu_;
  // The current registration; dead once evicted or unloaded.
  ResourceHandle handle_ GUARDED_BY(mu_);
};

}  // namespace payg

#endif  // PAYG_BUFFER_LAZY_RESOURCE_H_
