#ifndef PAYG_EXEC_EXEC_CONTEXT_H_
#define PAYG_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"
#include "obs/query_counters.h"
#include "obs/query_profile.h"

namespace payg {

// Per-query counter set: one atomic per entry of the PAYG_QUERY_COUNTERS
// list (obs/query_counters.h). One query's partition workers share the
// context, so the counters are atomic; relaxed ordering is enough (they are
// statistics, not synchronization). Atomics hold raw units — ns for the two
// page waits — and snapshot() reports every counter in its listed unit.
//
// Page-wait decomposition, counted by PageCache::GetPage: a cold access
// paid a physical load (page_cold_count tracks pages_read one-for-one, at a
// different code site — profile_test cross-checks them), a hit pinned a
// resident page. Time is the full GetPage call, so cold time includes the
// simulated device latency plus any in-flight-prefetch wait.
struct QueryStats {
#define PAYG_QUERY_ATOMIC(name, scale) std::atomic<uint64_t> name = 0;
  PAYG_QUERY_COUNTERS(PAYG_QUERY_ATOMIC)
#undef PAYG_QUERY_ATOMIC

  // Plain-integer copy for reporting (benchmarks, logs, tests).
  using Snapshot = obs::QueryCounters;

  Snapshot snapshot() const {
    Snapshot s;
#define PAYG_QUERY_LOAD(name, scale) \
  s.name = this->name.load(std::memory_order_relaxed) / (scale);
    PAYG_QUERY_COUNTERS(PAYG_QUERY_LOAD)
#undef PAYG_QUERY_LOAD
    return s;
  }
};

// Process-unique query id, minted at ExecContext construction. Id 0 is
// reserved for "no query" (trace events recorded outside any query scope).
inline uint64_t NextQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Carried through one query end to end: Table → Partition → FragmentReader →
// paged structures → PageFile. Gives every layer a place to report work
// (QueryStats) and a deadline to respect, so a cold-partition page load can
// be attributed to — and cancelled by — the query that caused it.
//
// The context outlives every worker of its query (the executor joins them
// before the driver returns), so layers hold it by raw pointer. A null
// ExecContext* anywhere down the stack means "no accounting requested".
struct ExecContext {
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // Query end: whatever this query (or query stream — benchmarks reuse one
  // context) accounted folds into the registry exactly once.
  ~ExecContext() { stats.snapshot().FoldIntoRegistry(); }

  QueryStats stats;

  // Process-unique id stamped on this context's trace spans and profile.
  // A context reused across a query stream (benchmarks) keeps one id: the
  // id names the context's lifetime, the profile always describes the most
  // recent ForEach.
  const uint64_t query_id = NextQueryId();

  // Stage breakdown of the most recent executor fan-out on this context,
  // rewritten by QueryExecutor::ForEach at completion. Read it after the
  // query call returns; the executor joins its workers first, so no task
  // is still writing.
  obs::QueryProfile profile;

  // Absolute deadline; Clock::time_point::max() (the default) means none.
  Clock::time_point deadline = Clock::time_point::max();

  bool has_deadline() const { return deadline != Clock::time_point::max(); }

  // OK while the deadline (if any) has not passed. Checked at the partition
  // fan-out and before every physical page load, so a query over many cold
  // pages stops within one page read of its deadline.
  Status CheckDeadline() const {
    if (has_deadline() && Clock::now() > deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

// Adds `n` to one per-query counter, e.g.
//   Bump(ctx, &QueryStats::rows_scanned, rows);
// A null context (no accounting requested) is a no-op.
inline void Bump(ExecContext* ctx, std::atomic<uint64_t> QueryStats::*counter,
                 uint64_t n = 1) {
  if (ctx != nullptr) {
    (ctx->stats.*counter).fetch_add(n, std::memory_order_relaxed);
  }
}

// One GetPage call of `nanos`: cold (paid a physical load) or a hit.
inline void CountPageAccess(ExecContext* ctx, bool cold, uint64_t nanos) {
  Bump(ctx, cold ? &QueryStats::page_cold_count : &QueryStats::page_hit_count);
  Bump(ctx, cold ? &QueryStats::page_cold_us : &QueryStats::page_hit_us,
       nanos);
}

}  // namespace payg

#endif  // PAYG_EXEC_EXEC_CONTEXT_H_
