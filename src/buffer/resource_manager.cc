#include "buffer/resource_manager.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/macros.h"
#include "obs/trace.h"

namespace payg {

using buffer_detail::kDeadFlag;
using buffer_detail::kTouchBits;
using buffer_detail::kTouchCap;
using buffer_detail::StampTick;
using buffer_detail::StampTouches;

namespace {

constexpr PoolId kPagedPools[] = {PoolId::kPagedPool, PoolId::kColdPagedPool};

}  // namespace

ResourceManager::ResourceManager() {
  for (auto& pb : pool_bytes_) pb.store(0, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::Global();
  m_evict_reactive_ = reg.counter("rm.evictions.reactive");
  m_evict_proactive_ = reg.counter("rm.evictions.proactive");
  m_evicted_bytes_ = reg.counter("rm.evicted.bytes");
  m_sweep_duration_us_ = reg.histogram("rm.sweep.duration_us");
  m_bytes_total_ = reg.gauge("rm.bytes.total");
  m_bytes_pool_[static_cast<int>(PoolId::kGeneral)] =
      reg.gauge("rm.bytes.general");
  m_bytes_pool_[static_cast<int>(PoolId::kPagedPool)] =
      reg.gauge("rm.bytes.paged");
  m_bytes_pool_[static_cast<int>(PoolId::kColdPagedPool)] =
      reg.gauge("rm.bytes.cold_paged");
  m_resources_ = reg.gauge("rm.resources");
  sweeper_ = std::thread([this] { BackgroundSweeper(); });
}

void ResourceManager::UpdateGauges() {
  // Gauges show the level of *this* manager; with several stores in one
  // process the last writer wins, which is fine for the single-store
  // benchmarks these feed. Counters aggregate across managers. Written from
  // the atomic accounting without any lock — gauges are statistics.
  m_bytes_total_->Set(
      static_cast<int64_t>(total_bytes_.load(std::memory_order_relaxed)));
  for (int p = 0; p < kNumPools; ++p) {
    m_bytes_pool_[p]->Set(
        static_cast<int64_t>(pool_bytes_[p].load(std::memory_order_relaxed)));
  }
  m_resources_->Set(
      static_cast<int64_t>(resource_count_.load(std::memory_order_relaxed)));
}

ResourceManager::~ResourceManager() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  sweeper_cv_.NotifyAll();
  sweeper_.join();
}

PinnedResource ResourceManager::Register(uint64_t bytes,
                                         Disposition disposition, PoolId pool,
                                         std::shared_ptr<void> payload) {
  auto entry = std::make_shared<Entry>();
  const ResourceId id = next_id_.fetch_add(1);
  entry->id = id;
  entry->bytes = bytes;
  entry->disposition = disposition;
  entry->pool = pool;
  entry->payload = std::move(payload);
  entry->last_touch.store(
      clock_.fetch_add(1, std::memory_order_relaxed) << kTouchBits | 1,
      std::memory_order_relaxed);
  entry->pin_state.store(1, std::memory_order_relaxed);  // the caller's pin
  PinnedResource pin(entry);
  const auto pool_idx = static_cast<int>(pool);

  {
    TableStripe& stripe = table_stripes_[id % kTableStripes];
    MutexLock lock(stripe.mu);
    stripe.map.emplace(id, std::move(entry));
  }
  pool_bytes_[pool_idx].fetch_add(bytes, std::memory_order_relaxed);
  const uint64_t total =
      total_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  resource_count_.fetch_add(1, std::memory_order_relaxed);
  UpdateGauges();

  const uint64_t budget = global_budget_.load(std::memory_order_relaxed);
  if (budget != 0 && total > budget) ReactiveEvict();
  // The proactive sweep is asynchronous by design: loading new pages is
  // never blocked on it (§5), so the pool may transiently exceed the upper
  // limit.
  const uint64_t upper =
      pool_limits_[pool_idx].upper.load(std::memory_order_relaxed);
  if (upper != 0 &&
      pool_bytes_[pool_idx].load(std::memory_order_relaxed) > upper) {
    sweeper_cv_.NotifyOne();
  }
  return pin;
}

bool ResourceManager::Unregister(const ResourceHandle& handle) {
  // Winner of the dead flag owns the removal; a concurrent evictor's
  // CAS(0 → dead) fails against either our flag or an outstanding pin.
  const uint64_t prev =
      handle->pin_state.fetch_or(kDeadFlag, std::memory_order_acq_rel);
  if (prev & kDeadFlag) return false;  // eviction got there first
  Forget(*handle);
  return true;
}

void ResourceManager::Forget(const Entry& e) {
  {
    TableStripe& stripe = table_stripes_[e.id % kTableStripes];
    MutexLock lock(stripe.mu);
    stripe.map.erase(e.id);
  }
  pool_bytes_[static_cast<int>(e.pool)].fetch_sub(e.bytes,
                                                  std::memory_order_relaxed);
  total_bytes_.fetch_sub(e.bytes, std::memory_order_relaxed);
  resource_count_.fetch_sub(1, std::memory_order_relaxed);
  UpdateGauges();
}

void ResourceManager::Touch(const ResourceHandle& handle) {
  const uint64_t tick = clock_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t touches =
      StampTouches(handle->last_touch.load(std::memory_order_relaxed));
  handle->last_touch.store(
      tick << kTouchBits | std::min(touches + 1, kTouchCap),
      std::memory_order_relaxed);
}

void ResourceManager::SetGlobalBudget(uint64_t bytes) {
  global_budget_.store(bytes, std::memory_order_relaxed);
  ReactiveEvict();
}

void ResourceManager::SetPoolLimits(PoolId pool, Limits limits) {
  PAYG_ASSERT(pool != PoolId::kGeneral);
  auto& lim = pool_limits_[static_cast<int>(pool)];
  lim.lower.store(limits.lower, std::memory_order_relaxed);
  lim.upper.store(limits.upper, std::memory_order_relaxed);
  sweeper_cv_.NotifyOne();
}

size_t ResourceManager::EvictLocked(PoolId pool, uint64_t target,
                                    bool proactive) {
  const bool paged = pool != PoolId::kGeneral;
  const std::atomic<uint64_t>& level =
      paged ? pool_bytes_[static_cast<int>(pool)] : total_bytes_;
  if (level.load(std::memory_order_relaxed) <= target) return 0;

  struct Candidate {
    double score;   // paged: t × bytes / n; general: t/w
    uint64_t tick;  // of the latest touch
    ResourceHandle entry;
  };
  const uint64_t now = clock_.load(std::memory_order_relaxed);
  std::vector<Candidate> candidates;
  for (const TableStripe& stripe : table_stripes_) {
    MutexLock lock(stripe.mu);  // mu_ → table stripe: allowed order
    for (const auto& [id, e] : stripe.map) {
      if (e->pool != pool || e->disposition == Disposition::kNonSwappable ||
          e->pin_state.load(std::memory_order_acquire) != 0) {
        continue;
      }
      // A touch that landed after `now` was read is fresh, not the oldest
      // entry by unsigned wrap-around.
      const uint64_t stamp = e->last_touch.load(std::memory_order_relaxed);
      const uint64_t tick = StampTick(stamp);
      const double t = static_cast<double>(now > tick ? now - tick : 0);
      // Inside a paged pool a page that is large and seldom touched goes
      // first (GreedyDual-Size-Frequency's idea): n is at least 1, the
      // registration's own count.
      const double score =
          paged ? t * static_cast<double>(e->bytes) /
                      static_cast<double>(StampTouches(stamp))
                : t / DispositionWeight(e->disposition);
      candidates.push_back({score, tick, e});
    }
  }
  // Equal scores go oldest first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score != b.score ? a.score > b.score : a.tick < b.tick;
            });
  std::vector<ResourceHandle> victims;
  for (Candidate& c : candidates) {
    if (level.load(std::memory_order_relaxed) <= target) break;
    // Winning the dead flag makes this pass the victim's sole remover: a
    // concurrent TryPin fails against the flag, and a pin taken since the
    // walk (or a racing Unregister) makes the CAS fail.
    uint64_t expected = 0;
    if (!c.entry->pin_state.compare_exchange_strong(
            expected, kDeadFlag, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      continue;
    }
    Forget(*c.entry);
    m_evicted_bytes_->Add(c.entry->bytes);
    (proactive ? m_evict_proactive_ : m_evict_reactive_)->Inc();
    victims.push_back(std::move(c.entry));
  }
  // No pin can exist on a victim, so nothing reads these payloads any more.
  // Their destructors take no lock, so dropping them here is safe; their
  // owners may already be gone and are never reached.
  for (const ResourceHandle& v : victims) v->payload.reset();
  return victims.size();
}

void ResourceManager::ReactiveEvict() {
  const uint64_t budget = global_budget_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  MutexLock lock(mu_);
  // Low-memory situation: paged-attribute resources are unloaded first,
  // down to each pool's lower limit, before touching anything else (§5).
  // These count as reactive, not proactive: budget pressure, not sweeper.
  for (PoolId pool : kPagedPools) {
    if (total_bytes_.load(std::memory_order_relaxed) <= budget) break;
    EvictLocked(pool,
                pool_limits_[static_cast<int>(pool)].lower.load(
                    std::memory_order_relaxed),
                /*proactive=*/false);
  }
  EvictLocked(PoolId::kGeneral, budget, /*proactive=*/false);
}

void ResourceManager::SweepLocked() {
  const auto start = std::chrono::steady_clock::now();
  size_t evicted = 0;
  for (PoolId pool : kPagedPools) {
    const AtomicLimits& lim = pool_limits_[static_cast<int>(pool)];
    const uint64_t upper = lim.upper.load(std::memory_order_relaxed);
    if (upper != 0 && pool_bytes(pool) > upper) {
      evicted += EvictLocked(pool, lim.lower.load(std::memory_order_relaxed),
                             /*proactive=*/true);
    }
  }
  // Only sweeps that actually evicted register a duration/span — the idle
  // 20ms ticks would otherwise drown the histogram in zeros.
  if (evicted == 0) return;
  m_sweep_duration_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  if (obs::Tracer::enabled()) {
    obs::Tracer::Global().RecordSpan("buffer", "sweep", start, evicted);
  }
}

void ResourceManager::SweepNow() {
  MutexLock lock(mu_);
  SweepLocked();
}

void ResourceManager::BackgroundSweeper() {
  UniqueLock lock(mu_);
  while (!shutting_down_) {
    // Timed wait (not a predicate wait): the sweeper wakes on the 20 ms
    // tick, on limit changes, and on over-limit registrations alike.
    (void)sweeper_cv_.WaitFor(mu_, std::chrono::milliseconds(20));
    if (shutting_down_) break;
    SweepLocked();
  }
}

}  // namespace payg
