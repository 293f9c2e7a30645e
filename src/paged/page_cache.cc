#include "paged/page_cache.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "common/env.h"
#include "common/small_array.h"
#include "common/stopwatch.h"
#include "exec/exec_context.h"
#include "exec/io_pool.h"

namespace payg {

namespace {

constexpr uint32_t kMaxCacheShards = 256;

// A shard's dead slots are reaped no more often than every this many
// inserts, so a small shard does not rescan its map on every load.
constexpr size_t kMinReapSlots = 16;

uint32_t NormalizeShardCount(uint32_t requested) {
  const uint32_t clamped =
      std::clamp<uint32_t>(requested, 1, kMaxCacheShards);
  return std::bit_ceil(clamped);
}

}  // namespace

// The registration's payload. Its destructor runs where the bytes go — on
// an evicting thread under the resource manager's lock, at the last
// reference after DropAll, or in Publish for a failed read — so it takes no
// lock and knows nothing of the cache: it settles the page's accounting in
// process-lifetime registry metrics only.
struct PageCache::CachedPage {
  CachedPage(uint32_t page_size, bool prefetched, obs::Counter* wasted)
      : page(page_size), prefetched(prefetched), prefetch_wasted(wasted) {}
  ~CachedPage() {
    if (occupancy != nullptr) occupancy->Add(-1);
    if (prefetched) prefetch_wasted->Inc();
  }

  Page page;
  // Loaded by PrefetchRange and not yet served to any GetPage call. The
  // first pin clears the flag (a prefetch hit); bytes that go with the
  // flag still set were a wasted readahead. Written only under a pin.
  bool prefetched;
  obs::Counter* prefetch_wasted;
  // The shard's "cache.shard<k>.pages" gauge, once the page holds a slot.
  obs::Gauge* occupancy = nullptr;
};

PageCache::PageCache(PageFile* file, ResourceManager* rm, PoolId pool,
                     uint32_t shard_count)
    : file_(file), rm_(rm), pool_(pool) {
  const uint32_t shards =
      shard_count == 0 ? DefaultCacheShards() : NormalizeShardCount(shard_count);
  shard_mask_ = shards - 1;
  shards_ = std::make_unique<Shard[]>(shards);
  auto& reg = obs::MetricsRegistry::Global();
  // Every successful GetPage call is exactly one hit (served from a
  // resident slot, possibly after waiting for another load of the page) or
  // one miss (this call read the page).
  //
  // Prefetch accounting invariant, at any quiesce point (no GetPage call
  // running, so every in-flight page is a prefetch):
  //   issued == hits + wasted + inflight.
  // Every issued prefetch ends in exactly one bucket: its first GetPage
  // touch (hit), or a failed read, or bytes that go untouched — evicted or
  // dropped — (wasted, counted by CachedPage), or it is still loading
  // (inflight, see prefetch_inflight_count()).
  m_hits_ = reg.counter("cache.hits");
  m_misses_ = reg.counter("cache.misses");
  m_prefetch_issued_ = reg.counter("cache.prefetch_issued");
  m_prefetch_hits_ = reg.counter("cache.prefetch_hits");
  m_prefetch_wasted_ = reg.counter("cache.prefetch_wasted");
  m_lock_wait_us_ = reg.histogram("cache.lock_wait");
  for (uint32_t k = 0; k < shards; ++k) {
    shards_[k].occupancy =
        reg.gauge("cache.shard" + std::to_string(k) + ".pages");
  }
}

PageCache::ShardLock::ShardLock(const PageCache& cache, const Shard& shard)
    : mu_(shard.mu) {
  if (shard.mu.TryLock()) return;
  const auto t0 = std::chrono::steady_clock::now();
  shard.mu.Lock();
  const auto waited_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  cache.m_lock_wait_us_->Record(static_cast<uint64_t>(waited_us));
}

PinnedResource PageCache::PinLocked(Shard& shard, LogicalPageNo lpn,
                                   ExecContext* ctx) {
  auto it = shard.slots.find(lpn);
  if (it == shard.slots.end()) return PinnedResource();
  PinnedResource pin = PinnedResource::TryPin(it->second);
  if (!pin.valid()) {
    shard.slots.erase(it);  // evicted: the slot is dead
    return pin;
  }
  rm_->Touch(pin.handle());
  auto* cached = static_cast<CachedPage*>(pin.payload());
  if (cached->prefetched) {
    cached->prefetched = false;
    m_prefetch_hits_->Inc();
    Bump(ctx, &QueryStats::prefetch_hits);
  }
  return pin;
}

const ResourceHandle* PageCache::LiveLocked(Shard& shard, LogicalPageNo lpn) {
  auto it = shard.slots.find(lpn);
  if (it == shard.slots.end()) return nullptr;
  if (!ResourceManager::IsDead(it->second)) return &it->second;
  shard.slots.erase(it);
  return nullptr;
}

bool PageCache::MarkInflight(LogicalPageNo lpn, bool touch_resident) {
  // Pages already resident or already loading drop out: that dedup is what
  // lets GetPage wait on the in-flight entry instead of re-reading.
  Shard& shard = ShardFor(lpn);
  ShardLock lock(*this, shard);
  if (shard.inflight.count(lpn) > 0) return false;
  if (const ResourceHandle* live = LiveLocked(shard, lpn)) {
    if (touch_resident) rm_->Touch(*live);
    return false;
  }
  shard.inflight.insert(lpn);
  return true;
}

void PageCache::InsertLocked(Shard& shard, LogicalPageNo lpn,
                             const PinnedResource& pin) {
  static_cast<CachedPage*>(pin.payload())->occupancy = shard.occupancy;
  shard.occupancy->Add(1);
  shard.slots.insert_or_assign(lpn, pin.handle());
  if (shard.slots.size() < shard.reap_at) return;
  // Amortized O(1) per insert: the map must double again before the next
  // reap, so it never holds more than twice the live slots of the last
  // reap (or kMinReapSlots).
  std::erase_if(shard.slots, [](const auto& slot) {
    return ResourceManager::IsDead(slot.second);
  });
  shard.reap_at = std::max(kMinReapSlots, 2 * shard.slots.size());
}

Result<PageRef> PageCache::GetPage(LogicalPageNo lpn, ExecContext* ctx) {
  if (ctx != nullptr) {
    PAYG_RETURN_IF_ERROR(ctx->CheckDeadline());
  }
  // Cold/hit wait attribution for the query profile: the timestamp covers
  // the whole call (shard lock, in-flight load wait, physical read), so
  // page_cold_us is exactly the time this query spent blocked on page
  // loads. Only taken when a query is attached — the no-context path stays
  // clock-free.
  const uint64_t access_start_ns = ctx != nullptr ? MonotonicNanos() : 0;
  Shard& shard = ShardFor(lpn);
  {
    ShardLock lock(*this, shard);
    // If a load of this very page is in flight (readahead, a row batch or
    // another caller's miss), wait for it rather than paying a duplicate
    // physical read — this wait (bounded by one page read) is where
    // readahead turns latency into overlap. Explicit loop (not a predicate
    // lambda) so the analysis sees the guarded reads.
    while (shard.inflight.count(lpn) != 0) shard.inflight_cv.Wait(shard.mu);
    PinnedResource pin = PinLocked(shard, lpn, ctx);
    if (pin.valid()) {
      Bump(ctx, &QueryStats::pages_pinned);
      if (ctx != nullptr) {
        CountPageAccess(ctx, /*cold=*/false,
                        MonotonicNanos() - access_start_ns);
      }
      m_hits_->Inc();
      const Page* page = &static_cast<CachedPage*>(pin.payload())->page;
      return PageRef(std::move(pin), page, lpn);
    }
    // A miss: from here on every other caller of the page waits for this
    // call's read.
    shard.inflight.insert(lpn);
  }

  // Read outside the shard lock, so the (possibly simulated-latency) read
  // does not block other pages of the shard. The publish hands over the
  // registration's pin: the page cannot be evicted before it is returned.
  const PageLoad load{this, lpn};
  PinnedResource pin;
  PAYG_RETURN_IF_ERROR(DoBatchRead(&load, 1, ctx, &pin));
  m_misses_->Inc();
  Bump(ctx, &QueryStats::pages_pinned);
  if (ctx != nullptr) {
    CountPageAccess(ctx, /*cold=*/true, MonotonicNanos() - access_start_ns);
  }
  const Page* page = &static_cast<CachedPage*>(pin.payload())->page;
  return PageRef(std::move(pin), page, lpn);
}

void PageCache::PrefetchRange(LogicalPageNo first, uint32_t count,
                              ExecContext* ctx) {
  if (count == 0) return;
  const uint64_t limit = file_->page_count();
  if (first >= limit) return;
  if (first + count > limit) count = static_cast<uint32_t>(limit - first);

  // Mark the surviving pages in flight one shard at a time (never two shard
  // locks at once).
  std::vector<PageLoad> loads;
  loads.reserve(count);
  for (uint32_t w = 0; w < count; ++w) {
    if (MarkInflight(first + w, /*touch_resident=*/false)) {
      loads.push_back(PageLoad{this, first + w});
    }
  }
  if (loads.empty()) return;

  m_prefetch_issued_->Add(loads.size());
  Bump(ctx, &QueryStats::prefetch_issued, loads.size());
  Bump(ctx, &QueryStats::io_batches);
  // Note: the task must not touch `ctx` — it may outlive the query.
  SharedIoPool()->Submit([loads = std::move(loads)] {
    // A page whose read fails is dropped; the GetPage that needs it reads
    // it again. analyzer:allow(status-swallow)
    (void)DoBatchRead(loads.data(), loads.size());
  });
}

Status PageCache::LoadBatch(const std::vector<PageLoad>& pages,
                            ExecContext* ctx) {
  if (pages.empty()) return Status::OK();
  if (ctx != nullptr) {
    PAYG_RETURN_IF_ERROR(ctx->CheckDeadline());
  }
  std::vector<PageLoad> loads;
  loads.reserve(pages.size());
  for (const PageLoad& p : pages) {
    if (!p.cache->MarkInflight(p.lpn, /*touch_resident=*/true)) continue;
    p.cache->m_prefetch_issued_->Inc();
    loads.push_back(p);
  }
  if (loads.empty()) return Status::OK();
  Bump(ctx, &QueryStats::prefetch_issued, loads.size());
  Bump(ctx, &QueryStats::io_batches);
  // A page whose read fails is dropped; the GetPage that needs it reads it
  // again and returns the error. analyzer:allow(status-swallow)
  (void)DoBatchRead(loads.data(), loads.size());
  return Status::OK();
}

Status PageCache::DoBatchRead(const PageLoad* loads, size_t n,
                              ExecContext* ctx, PinnedResource* pins) {
  // One batched submission for every page, whatever its chain. Publish
  // fires per page from inside ReadPages as that page's bytes complete and
  // verify, and takes this frame's reference to the page, so a failed
  // prefetch counts as wasted before its in-flight entry goes. That erase
  // is a cache's teardown signal, so after the LAST publish of a cache's
  // pages that cache may already be gone — once the read starts, nothing
  // here reaches a cache except through its own pages' publishes, and
  // ReadPages itself holds each PageFile alive
  // (PageFile::inflight_batches_).
  constexpr size_t kInline = PageFile::kInlineBatchPages;
  SmallArray<std::shared_ptr<CachedPage>, kInline> pages(n);
  SmallArray<PageFile::PageRead, kInline> reads(n);
  for (size_t i = 0; i < n; ++i) {
    const PageCache& cache = *loads[i].cache;
    pages[i] = std::make_shared<CachedPage>(cache.file_->page_size(),
                                            /*prefetched=*/pins == nullptr,
                                            cache.m_prefetch_wasted_);
    reads[i] = PageFile::PageRead{cache.file_, loads[i].lpn, &pages[i]->page};
  }
  SmallArray<Status, kInline> statuses(n);
  PageFile::ReadPages(reads.data(), statuses.data(), n, ctx, [&](size_t i) {
    loads[i].cache->Publish(loads[i].lpn, std::move(pages[i]), statuses[i],
                            pins != nullptr ? &pins[i] : nullptr);
  });
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  return Status::OK();
}

void PageCache::Publish(LogicalPageNo lpn, std::shared_ptr<CachedPage> page,
                        const Status& st, PinnedResource* keep) {
  // Erasing `lpn` from its shard's inflight set is the signal DropAll / the
  // destructor wait on before tearing the cache down, so it must be the
  // LAST access to `this` for this page — notify while still holding the
  // shard lock, touch nothing of the cache afterwards. A failed read's
  // bytes go before that, so its wasted count lands first.
  PinnedResource pin;
  if (st.ok()) {
    loads_.fetch_add(1, std::memory_order_relaxed);
    pin = rm_->Register(file_->page_size(), Disposition::kPagedAttribute,
                        pool_, std::move(page));
  }
  page.reset();  // a failed read's bytes
  Shard& shard = ShardFor(lpn);
  ShardLock lock(*this, shard);
  // This call holds the page's in-flight mark, so the slot is free.
  if (pin.valid()) InsertLocked(shard, lpn, pin);
  // A demand load stays pinned for its caller. Prefetched pages sit in the
  // cache unpinned, with the normal weighted-LRU disposition: readahead
  // must never shield a page from the resource manager.
  if (keep != nullptr) {
    *keep = std::move(pin);
  } else {
    pin.Release();
  }
  shard.inflight.erase(lpn);
  shard.inflight_cv.NotifyAll();
}

bool PageCache::IsLoaded(LogicalPageNo lpn) const {
  Shard& shard = ShardFor(lpn);
  ShardLock lock(*this, shard);
  return LiveLocked(shard, lpn) != nullptr;
}

void PageCache::WaitForPrefetchIdle() {
  const uint32_t shards = shard_count();
  for (uint32_t k = 0; k < shards; ++k) {
    Shard& shard = shards_[k];
    ShardLock lock(*this, shard);
    while (!shard.inflight.empty()) shard.inflight_cv.Wait(shard.mu);
  }
}

uint64_t PageCache::prefetch_inflight_count() const {
  uint64_t total = 0;
  const uint32_t shards = shard_count();
  for (uint32_t k = 0; k < shards; ++k) {
    Shard& shard = shards_[k];
    ShardLock lock(*this, shard);
    total += shard.inflight.size();
  }
  return total;
}

void PageCache::DropAll() {
  // One shard at a time: drain that shard's in-flight prefetches (the cv
  // wait releases the shard lock, so a task publishing to this — or any
  // other — shard can always make progress), then unregister its slots.
  // No two shard locks are ever held together, so a prefetch completing on
  // another shard cannot deadlock against the drain. Each page's bytes go
  // with their last reference: here, or at the last outstanding PageRef.
  const uint32_t shards = shard_count();
  for (uint32_t k = 0; k < shards; ++k) {
    Shard& shard = shards_[k];
    ShardLock lock(*this, shard);
    while (!shard.inflight.empty()) shard.inflight_cv.Wait(shard.mu);
    for (const auto& [lpn, handle] : shard.slots) rm_->Unregister(handle);
    shard.slots.clear();
    shard.reap_at = 0;
  }
}

uint64_t PageCache::loaded_page_count() const {
  uint64_t total = 0;
  const uint32_t shards = shard_count();
  for (uint32_t k = 0; k < shards; ++k) {
    Shard& shard = shards_[k];
    ShardLock lock(*this, shard);
    std::erase_if(shard.slots, [](const auto& slot) {
      return ResourceManager::IsDead(slot.second);
    });
    total += shard.slots.size();
  }
  return total;
}

uint32_t DefaultReadaheadWindow() {
  static const uint32_t window = [] {
    const uint32_t w = static_cast<uint32_t>(
        EnvLong("PAYG_READAHEAD", 0, 64, /*fallback=*/2));
    obs::MetricsRegistry::Global().gauge("cache.readahead")->Set(w);
    return w;
  }();
  return window;
}

void ReadaheadWindow::Advance(PageCache* cache, LogicalPageNo lpn,
                              LogicalPageNo prev_lpn, LogicalPageNo last_page,
                              ExecContext* ctx) {
  if (pages_ == 0) return;
  if (frontier_ <= lpn || lpn < prev_lpn || prev_lpn == kInvalidPageNo) {
    // Fresh cursor, or it jumped (backward or past the frontier): restart
    // the window at this page.
    frontier_ = lpn + 1;
  }
  if ((frontier_ - lpn - 1) * 2 > pages_) return;
  const LogicalPageNo want_hi = std::min<LogicalPageNo>(lpn + pages_,
                                                        last_page);
  if (want_hi < frontier_) return;
  cache->PrefetchRange(frontier_,
                       static_cast<uint32_t>(want_hi - frontier_ + 1), ctx);
  frontier_ = want_hi + 1;
}

uint32_t DefaultCacheShards() {
  static const uint32_t shards = [] {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    const uint32_t def = NormalizeShardCount(static_cast<uint32_t>(hw));
    const uint32_t n = NormalizeShardCount(static_cast<uint32_t>(EnvLong(
        "PAYG_CACHE_SHARDS", 1, kMaxCacheShards, static_cast<long>(def))));
    obs::MetricsRegistry::Global().gauge("cache.shards")->Set(n);
    return n;
  }();
  return shards;
}

}  // namespace payg
