#include "obs/query_counters.h"

#include <cstddef>

#include "obs/metrics.h"

namespace payg::obs {

void QueryCounters::FoldIntoRegistry() const {
  // Resolved once per process: the registry never invalidates a pointer,
  // even across ResetAll.
  static Counter* const counters[] = {
#define PAYG_QUERY_RESOLVE(name, scale) \
  MetricsRegistry::Global().counter("query." #name),
      PAYG_QUERY_COUNTERS(PAYG_QUERY_RESOLVE)
#undef PAYG_QUERY_RESOLVE
  };
  size_t i = 0;
#define PAYG_QUERY_FOLD(name, scale) counters[i++]->Add(name);
  PAYG_QUERY_COUNTERS(PAYG_QUERY_FOLD)
#undef PAYG_QUERY_FOLD
}

}  // namespace payg::obs
