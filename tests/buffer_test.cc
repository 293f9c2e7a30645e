#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "counter_delta.h"

namespace payg {
namespace {

TEST(DispositionTest, WeightsAreOrdered) {
  EXPECT_LT(DispositionWeight(Disposition::kTemporary),
            DispositionWeight(Disposition::kShortTerm));
  EXPECT_LT(DispositionWeight(Disposition::kShortTerm),
            DispositionWeight(Disposition::kMidTerm));
  EXPECT_LT(DispositionWeight(Disposition::kMidTerm),
            DispositionWeight(Disposition::kLongTerm));
  EXPECT_LT(DispositionWeight(Disposition::kLongTerm),
            DispositionWeight(Disposition::kNonSwappable));
}

// A payload that reports its release. Eviction drops a payload while the
// test still holds the entry's handle, so a release seen then is an
// eviction; an unregistered payload goes only with the handle. Observers
// are declared before the manager, which releases what it still holds when
// it is destroyed.
class Probe {
 public:
  explicit Probe(std::function<void()> on_release)
      : on_release_(std::move(on_release)) {}
  ~Probe() {
    if (on_release_) on_release_();
  }

 private:
  std::function<void()> on_release_;
};

// Registers a resource, releases the pin Register returns, and hands back
// the handle, so the resource is evictable from here on.
ResourceHandle Add(ResourceManager& rm, uint64_t bytes,
                   Disposition disposition, PoolId pool,
                   std::function<void()> on_release = nullptr) {
  PinnedResource pin = rm.Register(
      bytes, disposition, pool, std::make_shared<Probe>(std::move(on_release)));
  return pin.handle();
}

// A pin through the handle, with the recency touch a reader records.
PinnedResource PinAndTouch(ResourceManager& rm, const ResourceHandle& h) {
  PinnedResource pin = PinnedResource::TryPin(h);
  if (pin.valid()) rm.Touch(h);
  return pin;
}

TEST(ResourceManagerTest, TracksBytesPerPool) {
  ResourceManager rm;
  Add(rm, 100, Disposition::kMidTerm, PoolId::kGeneral);
  Add(rm, 50, Disposition::kPagedAttribute, PoolId::kPagedPool);
  Add(rm, 25, Disposition::kPagedAttribute, PoolId::kColdPagedPool);
  EXPECT_EQ(rm.total_bytes(), 175u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kGeneral), 100u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 50u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kColdPagedPool), 25u);
}

TEST(ResourceManagerTest, UnregisterReleasesBytes) {
  std::atomic<int> released{0};
  ResourceManager rm;
  ResourceHandle h = Add(rm, 100, Disposition::kMidTerm, PoolId::kGeneral,
                         [&] { released++; });
  EXPECT_TRUE(rm.Unregister(h));
  EXPECT_EQ(rm.total_bytes(), 0u);
  EXPECT_FALSE(rm.Unregister(h));  // second time: already gone
  EXPECT_TRUE(ResourceManager::IsDead(h));
  EXPECT_FALSE(PinnedResource::TryPin(h).valid());
  // The payload is left to the entry's last reference.
  EXPECT_EQ(released.load(), 0);
  h.reset();
  EXPECT_EQ(released.load(), 1);
}

TEST(ResourceManagerTest, ReactiveEvictionEnforcesGlobalBudget) {
  EvictionCounters evictions;
  std::atomic<int> evicted{0};
  ResourceManager rm;
  rm.SetGlobalBudget(250);
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(Add(rm, 100, Disposition::kMidTerm, PoolId::kGeneral,
                          [&] { evicted++; }));
  }
  // 5 x 100 bytes against a 250 budget: at least 3 evictions.
  EXPECT_LE(rm.total_bytes(), 250u);
  EXPECT_GE(evicted.load(), 3);
  EXPECT_GE(evictions.reactive(), 3u);
}

TEST(ResourceManagerTest, LruPrefersOldUntouchedResources) {
  std::vector<int> evicted;
  ResourceManager rm;
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(Add(rm, 100, Disposition::kMidTerm, PoolId::kGeneral,
                          [&evicted, i] { evicted.push_back(i); }));
  }
  // Touch 0 and 1 so 2 becomes the coldest.
  rm.Touch(handles[0]);
  rm.Touch(handles[1]);
  rm.SetGlobalBudget(350);  // forces exactly one eviction
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2);
}

TEST(ResourceManagerTest, WeightedLruEvictsLowWeightFirst) {
  std::vector<std::string> evicted;
  ResourceManager rm;
  // Same age, different dispositions: the temporary resource must go first
  // (t/w ordering with smaller w → larger score).
  Add(rm, 100, Disposition::kLongTerm, PoolId::kGeneral,
      [&] { evicted.push_back("long"); });
  Add(rm, 100, Disposition::kTemporary, PoolId::kGeneral,
      [&] { evicted.push_back("tmp"); });
  rm.SetGlobalBudget(150);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "tmp");
}

TEST(ResourceManagerTest, NonSwappableIsNeverEvicted) {
  std::atomic<int> evicted{0};
  ResourceManager rm;
  ResourceHandle h = Add(rm, 100, Disposition::kNonSwappable,
                         PoolId::kGeneral, [&] { evicted++; });
  rm.SetGlobalBudget(10);
  EXPECT_EQ(evicted.load(), 0);
  EXPECT_EQ(rm.total_bytes(), 100u);  // budget is overrun rather than violated
  EXPECT_TRUE(rm.Unregister(h));
}

TEST(ResourceManagerTest, PinnedResourcesSurviveEviction) {
  std::atomic<int> evicted{0};
  ResourceManager rm;
  ResourceHandle h = Add(rm, 100, Disposition::kTemporary, PoolId::kGeneral,
                         [&] { evicted++; });
  PinnedResource pin = PinAndTouch(rm, h);
  ASSERT_TRUE(pin.valid());
  rm.SetGlobalBudget(10);
  EXPECT_EQ(evicted.load(), 0);
  pin.Release();
  rm.SetGlobalBudget(10);  // re-trigger
  EXPECT_EQ(evicted.load(), 1);
  // An owner learns of the eviction when its pin fails.
  EXPECT_TRUE(ResourceManager::IsDead(h));
  EXPECT_FALSE(PinnedResource::TryPin(h).valid());
}

TEST(ResourceManagerTest, RegisterStartsPinned) {
  std::atomic<int> evicted{0};
  ResourceManager rm;
  PinnedResource pin =
      rm.Register(100, Disposition::kPagedAttribute, PoolId::kPagedPool,
                  std::make_shared<Probe>([&] { evicted++; }));
  ASSERT_TRUE(pin.valid());
  rm.SetPoolLimits(PoolId::kPagedPool, {0, 10});
  rm.SweepNow();
  EXPECT_EQ(evicted.load(), 0);  // pinned: sweep skips it
  pin.Release();
  rm.SweepNow();
  EXPECT_EQ(evicted.load(), 1);
}

TEST(ResourceManagerTest, ProactiveSweepShrinksToLowerLimit) {
  EvictionCounters evictions;
  std::atomic<int> evicted{0};
  ResourceManager rm;
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 15; ++i) {
    handles.push_back(Add(rm, 100, Disposition::kPagedAttribute,
                          PoolId::kPagedPool, [&] { evicted++; }));
  }
  // Limits set after registration: whichever sweep runs first (this call or
  // the background sweeper's periodic wake) sees all 1500 bytes, so the
  // assertions hold under any interleaving.
  rm.SetPoolLimits(PoolId::kPagedPool, {200, 1000});
  rm.SweepNow();
  // 1500 bytes > upper 1000 → shrink to lower limit 200.
  EXPECT_LE(rm.pool_bytes(PoolId::kPagedPool), 200u);
  EXPECT_GE(evicted.load(), 13);
  EXPECT_GE(evictions.proactive(), 13u);
}

TEST(ResourceManagerTest, ProactiveSweepIgnoresPoolBelowUpperLimit) {
  std::atomic<int> evicted{0};
  ResourceManager rm;
  rm.SetPoolLimits(PoolId::kPagedPool, {200, 1000});
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(Add(rm, 100, Disposition::kPagedAttribute,
                          PoolId::kPagedPool, [&] { evicted++; }));
  }
  rm.SweepNow();
  EXPECT_EQ(evicted.load(), 0);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 500u);
  for (const ResourceHandle& h : handles) EXPECT_TRUE(rm.Unregister(h));
}

TEST(ResourceManagerTest, PagedPoolEvictedByAgeSizeAndTouches) {
  std::vector<int> order;
  ResourceManager rm;
  std::vector<ResourceHandle> handles;
  // Registered at ticks 1..4, each with one touch (its registration).
  const uint64_t bytes[] = {100, 100, 50, 100};
  for (int i = 0; i < 4; ++i) {
    handles.push_back(Add(rm, bytes[i], Disposition::kPagedAttribute,
                          PoolId::kPagedPool,
                          [&order, i] { order.push_back(i); }));
  }
  rm.Touch(handles[0]);  // tick 5, two touches
  // The sweep reads the clock at 6; t × bytes / n is 0: 1×100/2, 1: 5×100,
  // 2: 4×50, 3: 3×100. Plain LRU would take 1, 2, 3.
  rm.SetPoolLimits(PoolId::kPagedPool, {100, 150});
  rm.SweepNow();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// Each pass below evicts through the budget: a registration over it
// shrinks the paged pool to its lower limit while the new page is still
// pinned, so no sweeper timing is involved.
TEST(ResourceManagerTest, LargerPageGoesFirstAtEqualAge) {
  std::vector<std::string> evicted;
  ResourceManager rm;
  rm.SetPoolLimits(PoolId::kPagedPool, {40 << 10, 0});
  rm.SetGlobalBudget(40 << 10);
  ResourceHandle small = Add(rm, 8 << 10, Disposition::kPagedAttribute,
                             PoolId::kPagedPool,
                             [&] { evicted.push_back("8K"); });
  // One tick younger, four times the bytes.
  ResourceHandle large = Add(rm, 32 << 10, Disposition::kPagedAttribute,
                             PoolId::kPagedPool,
                             [&] { evicted.push_back("32K"); });
  ASSERT_TRUE(evicted.empty());
  Add(rm, 8 << 10, Disposition::kPagedAttribute, PoolId::kPagedPool);
  EXPECT_EQ(evicted, (std::vector<std::string>{"32K"}));
  EXPECT_FALSE(ResourceManager::IsDead(small));
}

TEST(ResourceManagerTest, OftenTouchedPageOutlivesUntouchedOnes) {
  std::vector<std::string> evicted;
  ResourceManager rm;
  rm.SetPoolLimits(PoolId::kPagedPool, {300, 0});
  rm.SetGlobalBudget(300);
  ResourceHandle older = Add(rm, 100, Disposition::kPagedAttribute,
                             PoolId::kPagedPool,
                             [&] { evicted.push_back("older"); });
  ResourceHandle hot = Add(rm, 100, Disposition::kPagedAttribute,
                           PoolId::kPagedPool,
                           [&] { evicted.push_back("hot"); });
  for (int i = 0; i < 7; ++i) rm.Touch(hot);
  // Loaded after the hot page's last touch, so LRU would evict the hot
  // page before this one.
  ResourceHandle younger = Add(rm, 100, Disposition::kPagedAttribute,
                               PoolId::kPagedPool,
                               [&] { evicted.push_back("younger"); });
  ASSERT_TRUE(evicted.empty());
  // Two more pages push two out: the older and the younger untouched page.
  Add(rm, 100, Disposition::kPagedAttribute, PoolId::kPagedPool);
  Add(rm, 100, Disposition::kPagedAttribute, PoolId::kPagedPool);
  EXPECT_EQ(evicted, (std::vector<std::string>{"older", "younger"}));
  EXPECT_FALSE(ResourceManager::IsDead(hot));
}

TEST(ResourceManagerTest, SaturatedPageIsEvictedOnceNoLongerTouched) {
  constexpr uint64_t kCap = buffer_detail::kTouchCap;
  bool hot_evicted = false;
  ResourceManager rm;
  rm.SetPoolLimits(PoolId::kPagedPool, {200, 0});
  rm.SetGlobalBudget(200);
  ResourceHandle hot = Add(rm, 100, Disposition::kPagedAttribute,
                           PoolId::kPagedPool, [&] { hot_evicted = true; });
  for (uint64_t i = 0; i < 4 * kCap; ++i) rm.Touch(hot);
  EXPECT_EQ(buffer_detail::StampTouches(hot->last_touch.load()), kCap);
  // Each pass loads one page touched once and evicts one page. The hot
  // page's score grows by 100 / kCap per pass while the oldest other page
  // scores 200, so it goes within 2 × kCap + 1 passes, and it survives the
  // first ones.
  std::vector<ResourceHandle> pages;
  uint64_t passes = 0;
  while (!hot_evicted && passes <= 2 * kCap + 1) {
    pages.push_back(
        Add(rm, 100, Disposition::kPagedAttribute, PoolId::kPagedPool));
    ++passes;
    if (passes == 2) EXPECT_FALSE(hot_evicted);
  }
  EXPECT_TRUE(hot_evicted);
  EXPECT_LE(passes, 2 * kCap + 1);
  EXPECT_GE(passes, 2 * kCap - 1);
}

TEST(ResourceManagerTest, GeneralPoolIgnoresSizeAndTouches) {
  std::vector<std::string> evicted;
  ResourceManager rm;
  ResourceHandle touched = Add(rm, 100, Disposition::kMidTerm,
                               PoolId::kGeneral,
                               [&] { evicted.push_back("touched"); });
  for (int i = 0; i < 5; ++i) rm.Touch(touched);
  // Younger, larger and touched once: t/w still takes the older one.
  ResourceHandle large = Add(rm, 400, Disposition::kMidTerm, PoolId::kGeneral,
                             [&] { evicted.push_back("large"); });
  rm.SetGlobalBudget(450);
  EXPECT_EQ(evicted, (std::vector<std::string>{"touched"}));
  EXPECT_EQ(rm.total_bytes(), 400u);
}

TEST(ResourceManagerTest, ReactivePathDrainsPagedPoolBeforeColumns) {
  std::vector<std::string> order;
  ResourceManager rm;
  rm.SetPoolLimits(PoolId::kPagedPool, {0, 0});  // no proactive limits
  ResourceHandle column = Add(rm, 100, Disposition::kMidTerm, PoolId::kGeneral,
                              [&] { order.push_back("column"); });
  std::vector<ResourceHandle> pages;
  for (int i = 0; i < 3; ++i) {
    pages.push_back(
        Add(rm, 100, Disposition::kPagedAttribute, PoolId::kPagedPool,
            [&, i] { order.push_back("page" + std::to_string(i)); }));
  }
  // Budget forces evicting 300 bytes; all pages must go before the column.
  rm.SetGlobalBudget(100);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].substr(0, 4), "page");
  EXPECT_EQ(order[1].substr(0, 4), "page");
  EXPECT_EQ(order[2].substr(0, 4), "page");
  EXPECT_EQ(rm.total_bytes(), 100u);  // the column survived
  EXPECT_TRUE(rm.Unregister(column));
}

TEST(ResourceManagerTest, BackgroundSweeperRunsAsynchronously) {
  std::atomic<int> evicted{0};
  ResourceManager rm;
  rm.SetPoolLimits(PoolId::kPagedPool, {100, 300});
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(Add(rm, 100, Disposition::kPagedAttribute,
                          PoolId::kPagedPool, [&] { evicted++; }));
  }
  // The background thread wakes within ~20ms; give it some slack. A sweep
  // releases its victims' payloads before it releases the manager's lock,
  // so once they are counted the pool bytes are down too.
  for (int i = 0; i < 100 && evicted.load() < 9; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(rm.pool_bytes(PoolId::kPagedPool), 100u);
  EXPECT_GE(evicted.load(), 9);
}

TEST(ResourceManagerTest, StatsSnapshotIsConsistent) {
  EvictionCounters evictions;
  ResourceManager rm;
  ResourceHandle a = Add(rm, 100, Disposition::kMidTerm, PoolId::kGeneral);
  ResourceHandle b =
      Add(rm, 200, Disposition::kPagedAttribute, PoolId::kPagedPool);
  EXPECT_EQ(rm.total_bytes(), 300u);
  EXPECT_EQ(rm.resource_count(), 2u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kGeneral), 100u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 200u);
  EXPECT_EQ(evictions.reactive(), 0u);
  EXPECT_EQ(evictions.proactive(), 0u);
  EXPECT_EQ(evictions.bytes(), 0u);

  rm.SetGlobalBudget(150);  // evicts the paged resource first (reactive)
  EXPECT_EQ(rm.total_bytes(), 100u);
  EXPECT_EQ(evictions.bytes(), 200u);
  EXPECT_EQ(evictions.reactive(), 1u);
  EXPECT_TRUE(ResourceManager::IsDead(b));
  EXPECT_FALSE(ResourceManager::IsDead(a));
}

TEST(ResourceManagerTest, TouchRevivesEvictionOrder) {
  std::vector<int> order;
  ResourceManager rm;
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(Add(rm, 100, Disposition::kPagedAttribute,
                          PoolId::kPagedPool,
                          [&order, i] { order.push_back(i); }));
  }
  // Touch in reverse: LRU order becomes 2, 1, 0.
  rm.Touch(handles[2]);
  rm.Touch(handles[1]);
  rm.Touch(handles[0]);
  rm.SetPoolLimits(PoolId::kPagedPool, {100, 200});
  rm.SweepNow();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

// One resource of the reference model below.
struct ModelEntry {
  ResourceHandle handle;
  PoolId pool = PoolId::kGeneral;
  Disposition disposition = Disposition::kTemporary;
  uint64_t bytes = 0;
  uint64_t stamp = 0;    // tick of the latest touch
  uint64_t touches = 1;  // since the registration, up to kTouchCap
  int pins = 0;
  bool live = true;

  void Touch(uint64_t tick) {
    stamp = tick;
    touches = std::min(touches + 1, buffer_detail::kTouchCap);
  }
};

// Payload releases in the order they ran, overall and per pool. The test
// holds every handle, so each release is an eviction. A proactive pass may
// run on the background sweeper instead of SweepNow's caller, but each pool
// is still evicted by one pass on one thread.
class EvictionLog {
 public:
  void Record(PoolId pool, int index) {
    MutexLock lock(mu_);
    all_.push_back(index);
    per_pool_[static_cast<int>(pool)].push_back(index);
  }
  size_t size() {
    MutexLock lock(mu_);
    return all_.size();
  }
  std::vector<int> all() {
    MutexLock lock(mu_);
    return all_;
  }
  std::vector<int> of_pool(PoolId pool) {
    MutexLock lock(mu_);
    return per_pool_[static_cast<int>(pool)];
  }
  void Clear() {
    MutexLock lock(mu_);
    all_.clear();
    for (auto& v : per_pool_) v.clear();
  }

 private:
  Mutex mu_;
  std::vector<int> all_ GUARDED_BY(mu_);
  std::vector<int> per_pool_[kNumPools] GUARDED_BY(mu_);
};

// Seeded sequences of registrations, touches, pins, unpins and unregisters,
// then a budget cut and a sweep, against a brute-force model of the §5
// victim order. The model replays the manager's clock (one tick per
// registration, touch and successful pin) and each resource's touch count,
// and evicts paged pools by descending t × bytes / n (ties oldest first)
// down to their lower limits, then the general pool by descending t/w.
// t/w ties may go either way, so the general victims are compared by
// score, and general resources share one size so a tie cannot change how
// many go.
TEST(ResourceManagerTest, VictimOrderMatchesReferenceModel) {
  constexpr PoolId kPools[] = {PoolId::kGeneral, PoolId::kPagedPool,
                               PoolId::kColdPagedPool};
  constexpr PoolId kPagedPools[] = {PoolId::kPagedPool,
                                    PoolId::kColdPagedPool};
  constexpr Disposition kGeneralDispositions[] = {
      Disposition::kTemporary, Disposition::kShortTerm, Disposition::kMidTerm,
      Disposition::kLongTerm};
  for (int ops : {40, 150, 500}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("ops=" + std::to_string(ops) +
                   " seed=" + std::to_string(seed));
      Random rng(seed * 7919 + static_cast<uint64_t>(ops));
      EvictionLog log;
      ResourceManager rm;
      std::vector<ModelEntry> model;
      std::vector<std::vector<PinnedResource>> held;  // model[i]'s pins
      uint64_t clock = 1;  // the manager's clock starts at 1

      auto pick = [&](bool pinned_only) {
        std::vector<int> live;
        for (size_t i = 0; i < model.size(); ++i) {
          if (model[i].live && (!pinned_only || model[i].pins > 0)) {
            live.push_back(static_cast<int>(i));
          }
        }
        return live.empty() ? -1 : live[rng.Uniform(live.size())];
      };
      for (int op = 0; op < ops; ++op) {
        const uint64_t dice = rng.Uniform(100);
        if (dice < 45 || model.empty()) {
          ModelEntry e;
          e.pool = kPools[rng.Uniform(3)];
          if (e.pool == PoolId::kGeneral) {
            e.disposition = kGeneralDispositions[rng.Uniform(4)];
            e.bytes = 100;
          } else {
            e.disposition = Disposition::kPagedAttribute;
            e.bytes = 50 * rng.UniformRange(1, 8);
          }
          if (rng.Uniform(20) == 0) e.disposition = Disposition::kNonSwappable;
          const int index = static_cast<int>(model.size());
          PinnedResource pin = rm.Register(
              e.bytes, e.disposition, e.pool,
              std::make_shared<Probe>([&log, pool = e.pool, index] {
                log.Record(pool, index);
              }));
          e.handle = pin.handle();
          held.emplace_back();
          if (rng.Uniform(5) == 0) {
            held.back().push_back(std::move(pin));
            e.pins = 1;
          }
          e.stamp = clock++;
          model.push_back(e);
        } else if (dice < 70) {
          const int i = pick(false);
          if (i < 0) continue;
          rm.Touch(model[i].handle);
          model[i].Touch(clock++);
        } else if (dice < 82) {
          const int i = pick(false);
          if (i < 0) continue;
          PinnedResource pin = PinAndTouch(rm, model[i].handle);
          ASSERT_TRUE(pin.valid());
          held[i].push_back(std::move(pin));
          ++model[i].pins;
          model[i].Touch(clock++);
        } else if (dice < 94) {
          const int i = pick(true);
          if (i < 0) continue;
          held[i].pop_back();
          --model[i].pins;
        } else {
          const int i = pick(false);
          if (i < 0) continue;
          ASSERT_TRUE(rm.Unregister(model[i].handle));
          model[i].live = false;
        }
      }

      auto pool_bytes = [](const std::vector<ModelEntry>& m, PoolId pool) {
        uint64_t bytes = 0;
        for (const ModelEntry& e : m) {
          if (e.live && e.pool == pool) bytes += e.bytes;
        }
        return bytes;
      };
      auto total = [&](const std::vector<ModelEntry>& m) {
        uint64_t bytes = 0;
        for (PoolId pool : kPools) bytes += pool_bytes(m, pool);
        return bytes;
      };
      auto candidates = [](const std::vector<ModelEntry>& m, PoolId pool) {
        std::vector<int> out;
        for (size_t i = 0; i < m.size(); ++i) {
          if (m[i].live && m[i].pool == pool && m[i].pins == 0 &&
              m[i].disposition != Disposition::kNonSwappable) {
            out.push_back(static_cast<int>(i));
          }
        }
        return out;
      };
      const uint64_t now = clock;
      // Age × size / touches inside a paged pool, down to `target`.
      auto paged_score = [&](const ModelEntry& e) {
        return static_cast<double>(now - e.stamp) *
               static_cast<double>(e.bytes) / static_cast<double>(e.touches);
      };
      auto evict_paged = [&](std::vector<ModelEntry>* m, PoolId pool,
                             uint64_t target, std::vector<int>* victims) {
        std::vector<int> c = candidates(*m, pool);
        std::sort(c.begin(), c.end(), [&](int a, int b) {
          const double sa = paged_score((*m)[a]), sb = paged_score((*m)[b]);
          return sa != sb ? sa > sb : (*m)[a].stamp < (*m)[b].stamp;
        });
        for (int i : c) {
          if (pool_bytes(*m, pool) <= target) break;
          (*m)[i].live = false;
          victims->push_back(i);
        }
      };
      auto score = [&](int i) {
        return static_cast<double>(now - model[i].stamp) /
               DispositionWeight(model[i].disposition);
      };

      // Reactive: a budget cut, with lower limits and no sweep.
      uint64_t lower[kNumPools] = {};
      for (PoolId pool : kPagedPools) {
        lower[static_cast<int>(pool)] =
            rng.Uniform(pool_bytes(model, pool) + 1);
        rm.SetPoolLimits(pool, {lower[static_cast<int>(pool)], 0});
      }
      const uint64_t budget =
          std::max<uint64_t>(1, total(model) * rng.UniformRange(10, 90) / 100);
      std::vector<ModelEntry> predicted = model;
      std::vector<int> expect_paged;
      std::vector<double> expect_general;
      for (PoolId pool : kPagedPools) {
        if (total(predicted) <= budget) break;
        evict_paged(&predicted, pool, lower[static_cast<int>(pool)],
                    &expect_paged);
      }
      std::vector<int> general = candidates(predicted, PoolId::kGeneral);
      std::sort(general.begin(), general.end(),
                [&](int a, int b) { return score(a) > score(b); });
      for (int i : general) {
        if (total(predicted) <= budget) break;
        predicted[i].live = false;
        expect_general.push_back(score(i));
      }
      rm.SetGlobalBudget(budget);
      const std::vector<int> got = log.all();
      ASSERT_EQ(got.size(), expect_paged.size() + expect_general.size());
      EXPECT_EQ(
          std::vector<int>(got.begin(), got.begin() + expect_paged.size()),
          expect_paged);
      std::vector<double> got_general;
      for (size_t k = expect_paged.size(); k < got.size(); ++k) {
        EXPECT_EQ(model[got[k]].pool, PoolId::kGeneral);
        got_general.push_back(score(got[k]));
      }
      EXPECT_EQ(got_general, expect_general);
      for (int i : got) model[i].live = false;
      for (PoolId pool : kPools) {
        EXPECT_EQ(rm.pool_bytes(pool), pool_bytes(model, pool));
      }

      // Proactive: every paged pool over its upper limit, down to its lower.
      rm.SetGlobalBudget(0);
      log.Clear();
      std::vector<int> expect_sweep[kNumPools];
      size_t expect_swept = 0;
      ResourceManager::Limits limits[kNumPools];
      for (PoolId pool : kPagedPools) {
        const int p = static_cast<int>(pool);
        const uint64_t level = pool_bytes(model, pool);
        if (level > 0) {
          limits[p].upper = rng.Uniform(level);
          limits[p].lower = rng.Uniform(limits[p].upper + 1);
        }
        if (limits[p].upper != 0 && level > limits[p].upper) {
          evict_paged(&model, pool, limits[p].lower, &expect_sweep[p]);
        }
        expect_swept += expect_sweep[p].size();
      }
      for (PoolId pool : kPagedPools) {
        rm.SetPoolLimits(pool, limits[static_cast<int>(pool)]);
      }
      rm.SweepNow();
      for (int k = 0; k < 2000 && log.size() < expect_swept; ++k) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      for (PoolId pool : kPagedPools) {
        EXPECT_EQ(log.of_pool(pool), expect_sweep[static_cast<int>(pool)]);
        EXPECT_EQ(rm.pool_bytes(pool), pool_bytes(model, pool));
      }
    }
  }
}

TEST(ResourceManagerTest, ZeroBudgetMeansUnlimited) {
  std::atomic<int> evicted{0};
  ResourceManager rm;
  std::vector<ResourceHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(Add(rm, 1 << 20, Disposition::kTemporary,
                          PoolId::kGeneral, [&] { evicted++; }));
  }
  EXPECT_EQ(evicted.load(), 0);
  EXPECT_EQ(rm.total_bytes(), 20u << 20);
}

TEST(PinnedResourceTest, MoveTransfersOwnership) {
  ResourceManager rm;
  ResourceHandle h = Add(rm, 10, Disposition::kMidTerm, PoolId::kGeneral);
  PinnedResource a = PinnedResource::TryPin(h);
  ASSERT_TRUE(a.valid());
  PinnedResource b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_FALSE(b.valid());
  // After release the resource must be evictable again.
  rm.SetGlobalBudget(1);
  EXPECT_EQ(rm.total_bytes(), 0u);
}

TEST(PinnedResourceTest, SelfMoveKeepsPin) {
  ResourceManager rm;
  ResourceHandle h = Add(rm, 10, Disposition::kMidTerm, PoolId::kGeneral);
  PinnedResource a = PinnedResource::TryPin(h);
  ASSERT_TRUE(a.valid());
  // A self-move must be a no-op: the old implementation released the pin
  // first and then "transferred" from the already-cleared object, silently
  // dropping the protection.
  PinnedResource& alias = a;
  a = std::move(alias);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.handle(), h);
  // The resource is still pinned: a tight budget cannot evict it.
  Add(rm, 10, Disposition::kTemporary, PoolId::kGeneral);
  rm.SetGlobalBudget(5);
  EXPECT_EQ(rm.total_bytes(), 10u);  // only the pinned survivor remains
  a.Release();
  rm.SetGlobalBudget(5);
  EXPECT_EQ(rm.total_bytes(), 0u);
}

TEST(ResourceManagerStressTest, ConcurrentPinTouchUnregister) {
  // N threads register/pin/touch/unregister against a tight budget while
  // the sweeper evicts: every resource must be removed exactly once
  // (registered = evicted + unregistered), byte accounting must return to
  // zero, and an evicted payload must be gone while a successfully
  // unregistered one stays with its handle. The handles are held until the
  // check, so a payload released before then was released by an eviction.
  // Each resource is touched by its own thread only, while victim passes
  // read its stamp: the tick there never goes backwards and the touch
  // count stays in [1, kTouchCap].
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  struct Mine {
    ResourceHandle handle;
    std::shared_ptr<std::atomic<int>> released;
    bool unregistered = false;
    uint64_t tick = 0;  // of the latest touch seen
  };
  std::atomic<uint64_t> bad_stamps{0};
  std::vector<std::vector<Mine>> mine(kThreads);
  ResourceManager rm;
  rm.SetGlobalBudget(64 * 100);  // roughly half the peak working set
  rm.SetPoolLimits(PoolId::kPagedPool,
                   ResourceManager::Limits{32 * 100, 48 * 100});

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rm, &bad_stamps, &own = mine[t]] {
      // False means the resource was already evicted.
      auto unregister = [&](Mine& m) {
        if (rm.Unregister(m.handle)) m.unregistered = true;
      };
      auto check_stamp = [&](Mine& m) {
        const uint64_t stamp = m.handle->last_touch.load();
        const uint64_t touches = buffer_detail::StampTouches(stamp);
        if (buffer_detail::StampTick(stamp) < m.tick || touches == 0 ||
            touches > buffer_detail::kTouchCap) {
          bad_stamps.fetch_add(1);
        }
        m.tick = buffer_detail::StampTick(stamp);
      };
      for (int i = 0; i < kPerThread; ++i) {
        auto released = std::make_shared<std::atomic<int>>(0);
        PinnedResource pin = rm.Register(
            100, Disposition::kPagedAttribute, PoolId::kPagedPool,
            std::make_shared<Probe>([released] { released->fetch_add(1); }));
        own.push_back({pin.handle(), released});
        check_stamp(own.back());
        pin.Release();  // release the registration pin; now evictable
        rm.Touch(own.back().handle);
        check_stamp(own.back());
        // Re-pin and unpin a few of the survivors to stir the victim order;
        // every fourth one is touched past the count's cap.
        if (i % 3 == 0) PinAndTouch(rm, own.back().handle);
        if (i % 4 == 0) {
          Mine& older = own[own.size() / 3];
          for (uint64_t k = 0; k <= buffer_detail::kTouchCap; ++k) {
            rm.Touch(older.handle);
            check_stamp(older);
          }
        }
        check_stamp(own.back());
        // Voluntarily drop an older resource.
        if (i % 7 == 0) unregister(own[own.size() / 2]);
      }
      // Drop everything that is still registered.
      for (Mine& m : own) unregister(m);
    });
  }
  for (auto& th : threads) th.join();
  rm.SweepNow();  // waits out a sweep the background thread may be running

  uint64_t evicted = 0;
  uint64_t unregistered = 0;
  uint64_t wrong_release = 0;
  for (const auto& own : mine) {
    for (const Mine& m : own) {
      (m.unregistered ? unregistered : evicted)++;
      if (m.released->load() != (m.unregistered ? 0 : 1)) wrong_release++;
    }
  }
  EXPECT_EQ(wrong_release, 0u);
  EXPECT_EQ(bad_stamps.load(), 0u);
  EXPECT_EQ(evicted + unregistered,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(rm.total_bytes(), 0u);
  EXPECT_EQ(rm.pool_bytes(PoolId::kPagedPool), 0u);
  EXPECT_EQ(rm.resource_count(), 0u);
  // The unregistered payloads go with their last handles.
  mine.clear();
}

}  // namespace
}  // namespace payg
