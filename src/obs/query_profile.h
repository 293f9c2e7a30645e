#ifndef PAYG_OBS_QUERY_PROFILE_H_
#define PAYG_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/query_counters.h"

namespace payg::obs {

// Per-query stage breakdown — EXPLAIN ANALYZE for the Table-2 query shapes.
// Filled by QueryExecutor at query completion from the ExecContext counter
// deltas (every per-query counter, inherited from QueryCounters) and the
// executor's own timers; pure data so it can live in obs (below exec in the
// dependency order) and flow through the slow-query ring and the stats
// dumper without dragging executor types along.
//
// Stage accounting identity (asserted by profile_test): for a query that
// runs serially, queue_wait_us + scan_us ≈ wall_us; page_cold_us +
// page_hit_us is contained in scan_us (page waits happen inside partition
// tasks, they are a decomposition, not an addend).
struct QueryProfile : QueryCounters {
  uint64_t query_id = 0;

  // --- timing (microseconds) ---
  uint64_t wall_us = 0;        // ForEach entry to join
  uint64_t queue_wait_us = 0;  // sum over tasks: submit -> worker pickup
  uint64_t scan_us = 0;        // sum over tasks: partition task duration
  std::vector<uint64_t> partition_us;  // slot i = partition i's task time

  uint64_t partitions = 0;  // tasks in the fan-out
  bool deadline_exceeded = false;

  // One line, key=value, for logs:
  //   qid=7 wall_us=1234 queue_us=2 scan_us=1200 cold=5/1100us hit=12/3us ...
  std::string ToText() const;
  // Structured form: the stages, every per-query counter, and the
  // per-partition vector.
  std::string ToJson() const;
};

}  // namespace payg::obs

#endif  // PAYG_OBS_QUERY_PROFILE_H_
