#ifndef PAYG_OBS_QUERY_COUNTERS_H_
#define PAYG_OBS_QUERY_COUNTERS_H_

#include <cstdint>

// The per-query counters, defined once. Each X(name, scale) entry becomes
//   - an atomic in QueryStats (exec/exec_context.h), bumped on the read path;
//   - a field of QueryCounters below, which QueryProfile embeds;
//   - the registry counter "query.<name>", folded at ExecContext end;
//   - a "<name>" key of QueryProfile::ToJson.
// `scale` is raw units per reported unit. The two page waits accumulate ns
// per GetPage call and are reported in µs, converted once where they are
// read. Every entry needs a `query.<name>` row in the DESIGN.md §6 metric
// inventory; scripts/payg_analyzer.py checks both directions.
#define PAYG_QUERY_COUNTERS(X)                                             \
  X(pages_pinned, 1)       /* page-cache pins handed out */                \
  X(pages_read, 1)         /* physical page loads */                       \
  X(bytes_read, 1)         /* bytes of those loads */                      \
  X(rows_scanned, 1)       /* rows examined by search/filter */            \
  X(index_lookups, 1)      /* FindRows served by an index */               \
  X(vector_scans, 1)       /* FindRows/search via vid scan */              \
  X(partitions_visited, 1) /* partitions the fan-out entered */            \
  X(prefetch_issued, 1)    /* readahead + row-batch loads it asked for */  \
  X(prefetch_hits, 1)      /* pins served by a prefetched page */          \
  X(io_batches, 1)         /* batched read submissions issued */           \
  X(codec_native, 1)       /* kernels run on the compressed form */        \
  X(codec_fallback, 1)     /* kernels via decode-into-scratch */           \
  X(page_cold_count, 1)    /* GetPage calls that paid a physical load */   \
  X(page_cold_us, 1000)    /* their wait, incl. simulated latency */       \
  X(page_hit_count, 1)     /* GetPage calls that pinned a resident page */ \
  X(page_hit_us, 1000)     /* their wait */

namespace payg::obs {

// One query's counters as plain integers in their reported units: what
// QueryStats::snapshot() returns, and the counter part of QueryProfile.
struct QueryCounters {
#define PAYG_QUERY_FIELD(name, scale) uint64_t name = 0;
  PAYG_QUERY_COUNTERS(PAYG_QUERY_FIELD)
#undef PAYG_QUERY_FIELD

  // Field-wise difference: one query's share of a context that a benchmark
  // reuses across a whole query stream.
  QueryCounters operator-(const QueryCounters& before) const {
    QueryCounters d;
#define PAYG_QUERY_DELTA(name, scale) d.name = this->name - before.name;
    PAYG_QUERY_COUNTERS(PAYG_QUERY_DELTA)
#undef PAYG_QUERY_DELTA
    return d;
  }

  // Adds every counter to the process-wide "query.<name>" counter, so
  // per-query accounting also shows up in the one registry dump.
  void FoldIntoRegistry() const;
};

}  // namespace payg::obs

#endif  // PAYG_OBS_QUERY_COUNTERS_H_
