#include "exec/query_executor.h"

#include <atomic>
#include <chrono>
#include <vector>

#include "common/macros.h"
#include "common/thread_annotations.h"
#include "common/stopwatch.h"
#include "obs/slow_query_ring.h"
#include "obs/trace.h"

namespace payg {

QueryExecutor::QueryExecutor(const ExecOptions& options) : options_(options) {
  if (options_.worker_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads,
                                         "exec-worker");
  }
  auto& reg = obs::MetricsRegistry::Global();
  m_queries_ = reg.counter("exec.queries");
  m_deadline_exceeded_ = reg.counter("exec.deadline_exceeded");
  m_query_latency_us_ = reg.histogram("exec.query.latency_us");
  m_queue_wait_us_ = reg.histogram("exec.queue_wait_us");
}

QueryExecutor::~QueryExecutor() = default;

Status QueryExecutor::ForEach(ExecContext* ctx, size_t n,
                              const std::function<Status(size_t)>& task) {
  const uint64_t qid = ctx != nullptr ? ctx->query_id : 0;
  // Install the query id on this thread before the query span opens, so the
  // span itself — and everything beneath it on the serial path — carries it.
  obs::TraceTaskScope query_scope(qid);
  obs::TraceSpan query_span("exec", "query", qid);
  Stopwatch timer;
  m_queries_->Inc();

  // Profile capture: stage counters accumulate locally, the per-query
  // counters come from the ExecContext counter deltas (benchmarks reuse one
  // context across a whole query stream, so absolute values would smear
  // queries together).
  obs::QueryProfile* prof = ctx != nullptr ? &ctx->profile : nullptr;
  QueryStats::Snapshot s0;
  if (ctx != nullptr) s0 = ctx->stats.snapshot();
  if (prof != nullptr) {
    *prof = obs::QueryProfile();
    prof->query_id = qid;
    prof->partitions = n;
    prof->partition_us.assign(n, 0);
  }
  std::atomic<uint64_t> queue_wait_us{0};
  std::atomic<uint64_t> scan_us{0};

  auto run = [&](size_t i) -> Status {
    obs::TraceSpan span("exec", "partition", i);
    Stopwatch part;
    Status s;
    if (ctx != nullptr) s = ctx->CheckDeadline();
    if (s.ok()) s = task(i);
    const auto us = static_cast<uint64_t>(part.ElapsedMicros());
    // Determinism contract: task i writes only slot i.
    if (prof != nullptr) prof->partition_us[i] = us;
    scan_us.fetch_add(us, std::memory_order_relaxed);
    return s;
  };

  // One exit point so latency, the deadline-exceeded count and the profile
  // cover serial and parallel mode alike.
  auto finish = [&](Status s) -> Status {
    const auto wall = static_cast<uint64_t>(timer.ElapsedMicros());
    m_query_latency_us_->Record(wall);
    if (s.IsDeadlineExceeded()) m_deadline_exceeded_->Inc();
    if (prof != nullptr) {
      static_cast<obs::QueryCounters&>(*prof) = ctx->stats.snapshot() - s0;
      prof->wall_us = wall;
      prof->queue_wait_us = queue_wait_us.load(std::memory_order_relaxed);
      prof->scan_us = scan_us.load(std::memory_order_relaxed);
      prof->deadline_exceeded = s.IsDeadlineExceeded();
      obs::SlowQueryRing::Global().Observe(*prof);
    }
    return s;
  };

  // A single partition gains nothing from the pool; running it inline also
  // keeps single-partition tables free of cross-thread handoffs.
  if (pool_ == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      Status s = run(i);
      if (!s.ok()) return finish(std::move(s));
    }
    return finish(Status::OK());
  }

  const uint64_t query_span_id = query_span.span_id();
  std::vector<Status> statuses(n);
  size_t remaining = n;  // guarded by mu
  Mutex mu;
  CondVar cv;
  for (size_t i = 0; i < n; ++i) {
    const auto submitted = std::chrono::steady_clock::now();
    pool_->Submit([&, i, submitted] {
      const auto waited = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - submitted)
              .count());
      m_queue_wait_us_->Record(waited);
      queue_wait_us.fetch_add(waited, std::memory_order_relaxed);
      // Worker-side trace context: partition (and page-read) spans on this
      // thread parent under the query span and carry its query id.
      obs::TraceTaskScope task_scope(qid, query_span_id);
      statuses[i] = run(i);
      // Count down and signal while holding the mutex: `mu` and `cv` live on
      // the waiter's stack, and the waiter returns as soon as it sees zero.
      // Under the lock it cannot see zero until this task has released both
      // for good; a decrement outside it let the last task touch them after
      // ForEach had returned.
      MutexLock lock(mu);
      if (--remaining == 0) cv.NotifyOne();
    });
  }
  {
    MutexLock lock(mu);
    while (remaining != 0) cv.Wait(mu);
  }
  for (Status& s : statuses) {
    if (!s.ok()) return finish(std::move(s));
  }
  return finish(Status::OK());
}

}  // namespace payg
