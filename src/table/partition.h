#ifndef PAYG_TABLE_PARTITION_H_
#define PAYG_TABLE_PARTITION_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "columnar/delta_fragment.h"
#include "columnar/fragment.h"
#include "storage/storage_manager.h"
#include "table/schema.h"

namespace payg {

// One horizontal partition of a table: per column a main fragment (read
// optimized; absent until the first delta merge) and a delta fragment (write
// optimized). Cold partitions build their mains as page loadable columns in
// the cold paged pool (§4.1).
//
// Row space: main rows first (0 .. main_rows-1), then delta rows. A deletion
// bitmap provides row visibility; the delta merge compacts deleted rows
// away.
class Partition {
 public:
  Partition(const TableSchema* schema, uint32_t partition_id, bool cold,
            StorageManager* storage, ResourceManager* rm);

  // Restart path: re-attaches the persisted main fragments of generation
  // `merge_generation` with `main_rows` rows (deltas start empty; the
  // checkpoint that wrote the catalog merged them first).
  static Result<std::unique_ptr<Partition>> OpenExisting(
      const TableSchema* schema, uint32_t partition_id, bool cold,
      StorageManager* storage, ResourceManager* rm, uint64_t merge_generation,
      uint64_t main_rows);

  uint64_t merge_generation() const { return merge_generation_; }

  uint32_t id() const { return id_; }
  bool cold() const { return cold_; }
  uint64_t main_row_count() const { return main_rows_; }
  uint64_t delta_row_count() const;
  uint64_t row_count() const { return main_rows_ + delta_row_count(); }
  uint64_t visible_row_count() const { return row_count() - deleted_count_; }

  // Appends one row (all changes are appends into the delta, §2). Rejects
  // a row of the wrong width or types, or with a NaN double.
  Status Insert(const std::vector<Value>& row);

  // Initial-load fast path: installs a pre-encoded main fragment for one
  // column, bypassing the delta. All columns must be loaded with the same
  // row count and the partition must still be empty. The dictionary must be
  // sorted and unique and of the column's type; vids reference it. It is
  // converted to a typed array once, here.
  Status BulkLoadColumn(int col, const std::vector<Value>& sorted_dict,
                        const std::vector<ValueId>& vids);

  // Marks a row invisible. The data stays until the next delta merge.
  Status MarkDeleted(RowPos rpos);

  bool IsVisible(RowPos rpos) const {
    return rpos < deleted_.size() ? deleted_[rpos] == 0 : true;
  }

  // Materializes the full row at `rpos` (visible or not). `ctx` (optional)
  // attributes the per-column reads to the owning query.
  Result<std::vector<Value>> GetRow(RowPos rpos, ExecContext* ctx = nullptr);

  // Moves all committed delta rows into newly built main fragments,
  // compacting deleted rows, and resets the deltas (§2). Mains are rebuilt
  // per the schema's loading preference, under the next generation's
  // names. All or nothing: on error the partition, its generation and the
  // files on disk stay as they were. A partition with a main for every
  // column, an empty delta and no deleted row has nothing to fold: it keeps
  // its generation and its chains.
  Status Merge();

  // Access to fragments for the query executor.
  MainFragment* main(int col) { return mains_[col].get(); }
  DeltaFragment* delta(int col) { return deltas_[col].get(); }

  // Unloads every main fragment (cold restart simulation in benchmarks).
  void UnloadAll();

  // Bytes currently resident across all main fragments.
  uint64_t ResidentBytes() const;

 private:
  std::string FragmentName(int col, uint64_t generation) const;

  // Builds column `col`'s next main under `name` from the surviving rows:
  // merges the old main's dictionary with the delta's, `delta_dict`, in vid
  // space. T is the column's element type.
  template <typename T>
  Result<std::unique_ptr<MainFragment>> MergeColumn(
      int col, const std::string& name, const std::vector<T>& delta_dict);

  const TableSchema* schema_;
  uint32_t id_;
  bool cold_;
  StorageManager* storage_;
  ResourceManager* rm_;

  uint64_t main_rows_ = 0;
  uint64_t merge_generation_ = 0;
  std::vector<std::unique_ptr<MainFragment>> mains_;
  std::vector<std::unique_ptr<DeltaFragment>> deltas_;
  std::vector<uint8_t> deleted_;  // 1 = deleted; indexed by partition row
  uint64_t deleted_count_ = 0;
};

}  // namespace payg

#endif  // PAYG_TABLE_PARTITION_H_
