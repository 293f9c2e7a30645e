#ifndef PAYG_TESTS_COUNTER_DELTA_H_
#define PAYG_TESTS_COUNTER_DELTA_H_

#include <cstdint>

#include "obs/metrics.h"

namespace payg {

// A registry counter read relative to the moment this object was made. The
// registry counters are process-wide and each event is counted only there,
// so a test measures its own events as deltas.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(obs::MetricsRegistry::Global().counter(name)),
        base_(counter_->value()) {}

  uint64_t operator()() const { return counter_->value() - base_; }

 private:
  obs::Counter* counter_;
  uint64_t base_;
};

// The page-cache counters ("cache.*").
struct CacheCounters {
  CounterDelta hits{"cache.hits"};
  CounterDelta misses{"cache.misses"};
  CounterDelta prefetch_issued{"cache.prefetch_issued"};
  CounterDelta prefetch_hits{"cache.prefetch_hits"};
  CounterDelta prefetch_wasted{"cache.prefetch_wasted"};
};

// The resource manager's eviction counters ("rm.*").
struct EvictionCounters {
  CounterDelta reactive{"rm.evictions.reactive"};
  CounterDelta proactive{"rm.evictions.proactive"};
  CounterDelta bytes{"rm.evicted.bytes"};
};

}  // namespace payg

#endif  // PAYG_TESTS_COUNTER_DELTA_H_
