#ifndef PAYG_PAGED_PAGE_CACHE_H_
#define PAYG_PAGED_PAGE_CACHE_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/page_file.h"

namespace payg {

class PageCache;

// One page of a batched load (PageCache::LoadBatch): the cache that holds
// it and its page number.
struct PageLoad {
  PageCache* cache = nullptr;
  LogicalPageNo lpn = kInvalidPageNo;
};

// A pinned reference to a loaded page. While the pin is held the resource
// manager will not evict the page (§3.1.2: the iterator "pins the page in
// memory to make sure the page does not get evicted by the resource manager
// when it is being read"). The page is the pinned registration's payload,
// so the pin also keeps the bytes alive across an owner-initiated unload:
// readers never observe freed memory.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PinnedResource pin, const Page* page, LogicalPageNo lpn)
      : pin_(std::move(pin)), page_(page), lpn_(lpn) {}

  bool valid() const { return pin_.valid(); }
  const Page& page() const { return *page_; }
  LogicalPageNo lpn() const { return lpn_; }

  void Release() { pin_.Release(); }

 private:
  PinnedResource pin_;
  const Page* page_ = nullptr;  // the pinned payload's page
  LogicalPageNo lpn_ = kInvalidPageNo;
};

// Tracks which pages of one page chain are currently loaded, registering
// each loaded page as an individual kPagedAttribute resource that owns the
// page's bytes. Eviction by the resource manager frees the bytes without
// calling into the cache: the page's slot keeps the dead handle, counts as
// absent, and is erased when next met; the next access reloads the page.
//
// Thread-safe and sharded: pages are distributed over PAYG_CACHE_SHARDS
// independent shards by `lpn & mask`, each with its own mutex, slot map,
// in-flight set and condvar, so hits, misses and prefetch publishes on
// unrelated pages never contend. Hits additionally pin through the
// resource manager's lock-free handle path, so the warm loop takes exactly
// one (uncontended in the common case) shard mutex and no process-wide
// lock.
class PageCache {
 public:
  // `shard_count` == 0 uses the process default (DefaultCacheShards());
  // other values are rounded up to a power of two and clamped — tests use
  // 1 to force worst-case contention on a single shard.
  PageCache(PageFile* file, ResourceManager* rm, PoolId pool,
            uint32_t shard_count = 0);

  ~PageCache() { DropAll(); }

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Returns a pinned reference to page `lpn`, loading it if not resident.
  // When `ctx` is given, the pin (and any disk read) is attributed to that
  // query and its deadline is checked before touching the page.
  Result<PageRef> GetPage(LogicalPageNo lpn, ExecContext* ctx = nullptr);

  // Non-blocking batched readahead: one submission for `count` consecutive
  // pages starting at `first` (clamped to the chain, already-resident and
  // already-in-flight pages filtered out), returning immediately. The
  // surviving pages go to the shared background I/O pool as ONE task whose
  // batched read (PageFile::ReadPages) publishes each page into its shard
  // as that page's bytes complete — a concurrent GetPage waiting on the
  // in-flight entry wakes when its page lands, not when the whole batch
  // does. A loaded page enters the cache unpinned, with the normal
  // weighted-LRU disposition — the resource manager may evict it before it
  // is ever touched (counted as wasted). `ctx` is charged the *issue* (one
  // query.io_batches when any page is issued, plus one prefetch per page);
  // the physical read happens after this call returns and is accounted to
  // the cache only, because the background task may outlive the query.
  void PrefetchRange(LogicalPageNo first, uint32_t count,
                     ExecContext* ctx = nullptr);

  // Blocking batched load of `pages`, which may belong to several caches:
  // each page neither resident nor in flight is marked in flight exactly
  // as PrefetchRange marks it, each resident one is touched (so loading
  // the others cannot evict it before the caller pins it), and the marked
  // pages of every chain are read in ONE PageFile submission on the
  // calling thread, each published as its bytes land. The accounting is
  // readahead's: `ctx` is charged the issue (one query.io_batches, one
  // prefetch per marked page), the cache the read, and a page's first pin
  // is a prefetch hit. A page whose read fails is dropped, so the GetPage
  // that needs it reads it again and returns the error. Fails only when
  // `ctx`'s deadline has passed, before issuing anything.
  static Status LoadBatch(const std::vector<PageLoad>& pages,
                          ExecContext* ctx = nullptr);

  // Blocks until no prefetch load is in flight (tests / benchmarks; new
  // prefetches may be issued while this returns). Waits shard by shard,
  // never holding two shard locks at once.
  void WaitForPrefetchIdle();

  // True if the page is resident right now (tests / stats; racy by nature).
  bool IsLoaded(LogicalPageNo lpn) const;

  // Unloads every cached page (structure unload). Outstanding PageRefs keep
  // their bytes alive but the pages leave the resource manager's
  // accounting. Shards are drained one at a time — each shard's in-flight
  // prefetches are waited out under that shard's lock only, so a prefetch
  // publishing to another shard can never deadlock against the drain.
  void DropAll();

  // Pages resident right now (slots whose registration is still live).
  uint64_t loaded_page_count() const;
  uint64_t load_count() const { return loads_; }

  uint32_t shard_count() const { return static_cast<uint32_t>(shard_mask_) + 1; }

  // Prefetches issued whose page has not landed yet (see the accounting
  // invariant where the registry counters are resolved, page_cache.cc).
  uint64_t prefetch_inflight_count() const;

  PageFile* file() const { return file_; }
  ResourceManager* resource_manager() const { return rm_; }

 private:
  // The payload of one page's registration: the page's bytes, owned by the
  // resource manager's entry (defined in page_cache.cc).
  struct CachedPage;

  struct Shard {
    // DESIGN.md §8: no path ever holds two shard mutexes — the aggregate
    // walks (DropAll, WaitForPrefetchIdle, counts) visit shards strictly one
    // at a time, which is what makes a prefetch publishing to another shard
    // deadlock-free against them.
    mutable Mutex mu;
    // Lock-free pin handle of each page's registration. A handle the
    // manager has evicted is dead: its slot counts as absent and is erased
    // wherever it is met, and InsertLocked reaps the whole map whenever it
    // has doubled since the last reap, so dead slots stay bounded.
    std::unordered_map<LogicalPageNo, ResourceHandle> slots GUARDED_BY(mu);
    size_t reap_at GUARDED_BY(mu) = 0;
    // Pages a background prefetch is currently loading. GetPage waits for
    // an in-flight load of its page instead of issuing a duplicate read,
    // which is what lets readahead actually hide latency. DropAll (and
    // thus the destructor) drains this set per shard before clearing, so
    // no task outlives the cache.
    std::unordered_set<LogicalPageNo> inflight GUARDED_BY(mu);
    CondVar inflight_cv;
    // "cache.shard<k>.pages" — resident pages in this shard, summed across
    // cache instances. Atomic gauge: raised when a page takes its slot,
    // lowered by the page's payload when its bytes go.
    obs::Gauge* occupancy = nullptr;
  };

  Shard& ShardFor(LogicalPageNo lpn) const { return shards_[lpn & shard_mask_]; }

  // Scoped shard lock, recording the wait in "cache.lock_wait" only when
  // the fast-path TryLock loses (so a warm scan with no contention records
  // nothing).
  class SCOPED_CAPABILITY ShardLock {
   public:
    ShardLock(const PageCache& cache, const Shard& shard) ACQUIRE(shard.mu);
    ~ShardLock() RELEASE() { mu_.Unlock(); }

    ShardLock(const ShardLock&) = delete;
    ShardLock& operator=(const ShardLock&) = delete;

   private:
    Mutex& mu_;
  };

  // The live slot of `lpn`, pinned (invalid if the page is absent). A dead
  // slot met here is erased. Touches the page and settles a prefetch hit.
  PinnedResource PinLocked(Shard& shard, LogicalPageNo lpn, ExecContext* ctx)
      REQUIRES(shard.mu);

  // The handle of `lpn`'s live slot, or null; a dead slot met here is
  // erased.
  static const ResourceHandle* LiveLocked(Shard& shard, LogicalPageNo lpn)
      REQUIRES(shard.mu);

  // Marks `lpn` in flight for a batched read unless it is resident or
  // already loading. A resident page is touched when `touch_resident` is
  // set: LoadBatch's caller pins it next, while readahead must not shield
  // a page from the resource manager. True if marked.
  bool MarkInflight(LogicalPageNo lpn, bool touch_resident);

  // Gives `lpn` the slot of `pin`'s registration and reaps the shard's dead
  // slots when the map has doubled since the last reap.
  static void InsertLocked(Shard& shard, LogicalPageNo lpn,
                           const PinnedResource& pin) REQUIRES(shard.mu);

  // One batched read over `loads` (each already marked in flight by its
  // cache, possibly several caches), publishing per page: the body of a
  // PrefetchRange task on the background I/O pool and of LoadBatch on the
  // caller's thread.
  static void DoBatchRead(const std::vector<PageLoad>& loads);

  // Completion hook of the batched read: registers + inserts `page` into
  // its shard (or counts it wasted on error / when superseded), then — as
  // the very LAST access to `this` for this page — erases the in-flight
  // entry and notifies waiters.
  void PublishPrefetched(LogicalPageNo lpn, std::shared_ptr<CachedPage> page,
                         const Status& st);

  PageFile* file_;
  ResourceManager* rm_;
  PoolId pool_;
  std::unique_ptr<Shard[]> shards_;
  uint64_t shard_mask_ = 0;
  std::atomic<uint64_t> loads_{0};
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_pin_waits_;
  obs::Counter* m_prefetch_issued_;
  obs::Counter* m_prefetch_hits_;
  obs::Counter* m_prefetch_wasted_;
  obs::Histogram* m_lock_wait_us_;
};

// Readahead window (pages prefetched ahead of a sequential cursor) used by
// the paged iterators: PAYG_READAHEAD, default 2, clamped to [0, 64]; 0
// disables readahead. Malformed values (trailing garbage, empty) fall back
// to the default. The effective value is published once as the
// "cache.readahead" gauge.
uint32_t DefaultReadaheadWindow();

// Readahead state of one forward-moving page cursor (the paged data-vector
// and inverted-index iterators): the window size and the frontier, the
// first page no issued readahead covers yet. Remembering the frontier lets
// a refill wait until the window ahead of the cursor has fallen to half and
// then top it up with one multi-page PrefetchRange — batches the I/O backend
// can turn into vectored reads — instead of re-asking for the whole window
// at every page, which the cache's in-flight dedup would shrink to one page
// per step.
class ReadaheadWindow {
 public:
  uint32_t pages() const { return pages_; }
  void set_pages(uint32_t pages) { pages_ = pages; }

  // Called before the cursor pins `lpn`, coming from `prev_lpn`
  // (kInvalidPageNo for a fresh cursor). `last_page` is the last page the
  // cursor can still need; readahead never reaches past it.
  void Advance(PageCache* cache, LogicalPageNo lpn, LogicalPageNo prev_lpn,
               LogicalPageNo last_page, ExecContext* ctx);

 private:
  uint32_t pages_ = DefaultReadaheadWindow();
  LogicalPageNo frontier_ = 0;
};

// Default shard count for new PageCaches: PAYG_CACHE_SHARDS, rounded up to
// a power of two and clamped to [1, 256]; defaults to a power of two near
// hardware_concurrency. Malformed values fall back to the default. The
// effective value is published once as the "cache.shards" gauge.
uint32_t DefaultCacheShards();

}  // namespace payg

#endif  // PAYG_PAGED_PAGE_CACHE_H_
