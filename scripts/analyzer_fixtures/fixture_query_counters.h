// Self-test fixture for the metric-name rule's list leg: a per-query counter
// list in the shape of src/obs/query_counters.h, checked against
// fixture_inventory.md. Never compiled — parsed only by --self-test.
#ifndef PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_QUERY_COUNTERS_H_
#define PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_QUERY_COUNTERS_H_

#define PAYG_QUERY_COUNTERS(X) \
  X(fixture_rows, 1)           \
  X(fixture_unlisted, 1) /* violation: no query.fixture_unlisted row */

// Clean: the registry fold, the one sanctioned query.* registration.
#define PAYG_QUERY_RESOLVE(name, scale) reg->counter("query." #name),

#endif  // PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_QUERY_COUNTERS_H_
