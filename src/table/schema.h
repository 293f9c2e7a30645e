#ifndef PAYG_TABLE_SCHEMA_H_
#define PAYG_TABLE_SCHEMA_H_

#include <string>
#include <vector>

#include "columnar/value.h"

namespace payg {

// Per-column DDL: the preferred loading behaviour (fully resident or page
// loadable) is specified at creation time (§1) and the optional inverted
// index per column.
struct ColumnSchema {
  std::string name;
  ValueType type = ValueType::kInt64;
  bool page_loadable = false;
  bool with_index = false;
  bool primary_key = false;
  // §8: build the inverted index lazily, on demand from the workload,
  // instead of during the delta merge. Only applies to page loadable
  // columns with with_index.
  bool defer_index = false;
};

// Table DDL. `temperature_column` names the artificial aging column (§4):
// the application sets it to a date value to mark a business object closed;
// rows whose temperature falls into a cold range move to cold partitions.
struct TableSchema {
  std::string name;
  std::vector<ColumnSchema> columns;
  int temperature_column = -1;

  int ColumnIndex(const std::string& column_name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == column_name) return static_cast<int>(i);
    }
    return -1;
  }
};

}  // namespace payg

#endif  // PAYG_TABLE_SCHEMA_H_
