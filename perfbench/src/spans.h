#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Traced-run support. The benchmark records a span around every call it
// makes into the program ("bench" category: client.* for Client round trips,
// table.* for Table calls) through the engine's own obs::Tracer, so the
// engine's server/exec/io/buffer spans recorded beneath them land in the
// same ring. Spans stay in memory until the window ends, then are summarised
// into per-layer self time and written out.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

// Ring size of the measured traced window. A traced window stops early once
// 90% of it is used, so no span is overwritten.
constexpr size_t kTraceCapacity = size_t{1} << 18;
// Ring size of a traced set-up (only its stage spans matter).
constexpr size_t kSetupTraceCapacity = size_t{1} << 16;

// True while tracing is on and the window's span budget is spent.
bool TraceBudgetSpent();

struct TraceSummary {
  uint64_t spans = 0;
  uint64_t dropped = 0;
  uint64_t bench_calls = 0;  // spans the benchmark recorded around calls
  // Layer -> summed self time (span duration minus the part of it covered
  // by child spans, same-thread nesting or cross-thread links).
  std::map<std::string, double> self_us;
};

TraceSummary Summarize(const std::vector<payg::obs::TraceEvent>& events);

// Layers a summary can report, in output order.
const std::vector<std::string>& TraceLayers();

// Writes spans as CSV rows, one per span, tagged with the window they came
// from ("setup" or "measure").
payg::Status WriteSpans(
    const std::string& path,
    const std::vector<std::pair<std::string,
                                std::vector<payg::obs::TraceEvent>>>& windows);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
