#include "server/seed.h"

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "columnar/value.h"
#include "table/schema.h"

namespace payg::server {

Status SeedDemoTable(ColumnStore* store, const SeedSpec& spec) {
  const uint64_t key_space =
      spec.key_space > 0 ? spec.key_space
                         : (spec.rows >= 8 ? spec.rows / 8 : 1);

  TableSchema schema;
  schema.name = std::string("T");
  schema.columns.push_back({.name = "k",
                            .type = ValueType::kInt64,
                            .page_loadable = true});
  schema.columns.push_back({.name = "v",
                            .type = ValueType::kInt64,
                            .page_loadable = true});
  schema.columns.push_back({.name = "tag",
                            .type = ValueType::kString,
                            .page_loadable = true});

  PAYG_ASSIGN_OR_RETURN(Table * table, store->CreateTable(schema));

  // Keys are placed uniformly at random (fixed seed): a clustered layout
  // (e.g. i % key_space) would let the per-page min/max summaries prune a
  // point lookup down to one page, which is not the workload the front
  // door's batcher exists for. Random placement is the honest model of
  // point lookups on an unindexed column: every probe scans every page.
  std::mt19937_64 rng(0xC0FFEE);
  char buf[16];
  for (uint64_t i = 0; i < spec.rows; ++i) {
    const auto k = static_cast<int64_t>(rng() % key_space);
    std::snprintf(buf, sizeof buf, "K%06ld", static_cast<long>(k));
    PAYG_RETURN_IF_ERROR(table->Insert({Value(k),
                                        Value(static_cast<int64_t>(i)),
                                        Value(std::string(buf))}));
  }
  return table->MergeAll();
}

}  // namespace payg::server
