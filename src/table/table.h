#ifndef PAYG_TABLE_TABLE_H_
#define PAYG_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "table/partition.h"
#include "table/schema.h"

namespace payg {

// Identifies a row across partitions (the executor's ROWID).
struct RowId {
  uint32_t partition = 0;
  RowPos row = 0;

  bool operator==(const RowId& other) const {
    return partition == other.partition && row == other.row;
  }
};

// Materialized query result.
struct QueryResult {
  std::vector<std::vector<Value>> rows;

  bool operator==(const QueryResult& other) const {
    return rows == other.rows;
  }
};

// One conjunct of a WHERE clause. Conjunctive queries evaluate the first
// predicate through the dictionary/index machinery and then narrow the
// surviving row positions with the data-vector search variety over row
// lists (§3.1.2).
struct Predicate {
  enum class Op { kEq, kBetween, kIn, kPrefix };

  std::string column;
  Op op = Op::kEq;
  Value value;                // kEq
  Value lo, hi;               // kBetween (inclusive)
  std::vector<Value> values;  // kIn
  std::string prefix;         // kPrefix (string columns)

  static Predicate Eq(std::string column, Value v) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kEq;
    p.value = std::move(v);
    return p;
  }
  static Predicate Between(std::string column, Value lo, Value hi) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kBetween;
    p.lo = std::move(lo);
    p.hi = std::move(hi);
    return p;
  }
  static Predicate In(std::string column, std::vector<Value> values) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kIn;
    p.values = std::move(values);
    return p;
  }
  static Predicate Prefix(std::string column, std::string prefix) {
    Predicate p;
    p.column = std::move(column);
    p.op = Op::kPrefix;
    p.prefix = std::move(prefix);
    return p;
  }
};

// A range-partitioned columnar table with one hot partition and any number
// of cold partitions (§4). Every query is evaluated independently on the
// main and delta fragment of each partition and the results are combined
// after applying row visibility (§2).
// Per-partition restart info recorded in the store catalog.
struct PartitionManifest {
  bool cold = false;
  uint64_t merge_generation = 0;
  uint64_t main_rows = 0;
};

class Table {
 public:
  Table(TableSchema schema, StorageManager* storage, ResourceManager* rm,
        const ExecOptions& exec_options = ExecOptions{});

  // Restart path: re-attaches a table whose partitions were persisted by a
  // checkpoint. manifests[0] must be the hot partition.
  static Result<std::unique_ptr<Table>> OpenExisting(
      TableSchema schema, StorageManager* storage, ResourceManager* rm,
      const std::vector<PartitionManifest>& manifests,
      const ExecOptions& exec_options = ExecOptions{});

  // Manifests describing the current partitions (for the catalog). Only
  // meaningful right after MergeAll (deltas are memory-only).
  std::vector<PartitionManifest> Manifests() const;

  const TableSchema& schema() const { return schema_; }

  // Replaces the execution layer (e.g. to switch worker count between
  // benchmark phases). Must not race with running queries.
  void set_exec_options(const ExecOptions& options);
  const ExecOptions& exec_options() const { return executor_->options(); }

  // Appends a row to the hot partition's delta fragments.
  Status Insert(const std::vector<Value>& row);

  // Adds a new cold partition (explicit ADD PARTITION, §4.2). Its columns
  // follow the schema's loading preference; cold pages live in the cold
  // paged pool.
  Status AddColdPartition();

  // Ages rows: every visible hot row whose temperature column value
  // compares <= `threshold` is moved to the newest cold partition as an
  // ordinary delete+insert through the delta (§4.2). Returns the number of
  // rows moved. Run MergeAll() afterwards to persist cold mains.
  Result<uint64_t> AgeRows(const Value& threshold);

  // Runs the delta merge on every partition.
  Status MergeAll();

  uint64_t partition_count() const {
    return static_cast<uint64_t>(partitions_.size());
  }
  Partition* hot() { return partitions_[0].get(); }
  Partition* partition(uint32_t id) { return partitions_[id].get(); }

  uint64_t row_count() const;
  uint64_t visible_row_count() const;

  // --- queries (the §6 workload templates) ---------------------------------
  //
  // Every template is a list of conjuncts plus a result sink. The conjuncts
  // are checked against the schema once (CheckPredicate), then each
  // partition compiles them through its own dictionary, matches its rows,
  // and feeds them to the sink. Partitions run through the shared
  // QueryExecutor and merge in partition-id order, so serial
  // (worker_threads = 0) and parallel runs return identical results. The
  // optional ExecContext collects per-query counters and carries the query
  // deadline; null means "no accounting".

  // Checks one conjunct against the schema: the column exists (NotFound),
  // every operand has the column's type and is not NaN, and a prefix
  // applies only to a string column (InvalidArgument). Returns the column
  // index. Every query runs each conjunct through this before any
  // partition sees it, so untrusted operands are bounded here and nowhere
  // else.
  Result<int> CheckPredicate(const Predicate& pred) const;

  // SELECT <select_columns> FROM T WHERE <filter_column> = <value>
  Result<QueryResult> SelectByValue(const std::string& filter_column,
                                    const Value& value,
                                    const std::vector<std::string>&
                                        select_columns,
                                    ExecContext* ctx = nullptr);

  // SELECT COUNT(*) FROM T WHERE <filter_column> = <value>
  Result<uint64_t> CountByValue(const std::string& filter_column,
                                const Value& value,
                                ExecContext* ctx = nullptr);

  // --- batched point lookups (S25) ----------------------------------------
  //
  // Evaluates many `filter_column = probe` lookups in one pass: an IN
  // conjunct over the probes plus a sink that attributes each matched row
  // to the probes it equals. Per partition this costs one reader (one pin
  // pass over the column's pages) and merged search_in kernel dispatches
  // over the sorted probe-vid set, instead of one full lookup per probe —
  // the engine-side primitive behind the server's same-partition request
  // batching. Element i of the result
  // is identical to SelectByValue(filter_column, probes[i], select_columns)
  // (same rows, same order); probes may repeat and may be absent from the
  // table (their slot is simply empty).

  Result<std::vector<QueryResult>> MultiSelectByValue(
      const std::string& filter_column, const std::vector<Value>& probes,
      const std::vector<std::string>& select_columns,
      ExecContext* ctx = nullptr);

  // COUNT(*) sibling: element i equals CountByValue(filter_column,
  // probes[i]).
  Result<std::vector<uint64_t>> MultiCountByValue(
      const std::string& filter_column, const std::vector<Value>& probes,
      ExecContext* ctx = nullptr);

  // SELECT ROWID() FROM T WHERE <filter_column> = <value>
  Result<std::vector<RowId>> RowIdsByValue(const std::string& filter_column,
                                           const Value& value,
                                           ExecContext* ctx = nullptr);

  // SELECT <select_columns> FROM T WHERE lo <= <filter_column> <= hi
  Result<QueryResult> SelectRange(const std::string& filter_column,
                                  const Value& lo, const Value& hi,
                                  const std::vector<std::string>&
                                      select_columns,
                                  ExecContext* ctx = nullptr);

  // SELECT SUM(<sum_column>) FROM T WHERE lo <= <filter_column> <= hi.
  // Summation is per-partition partials merged in partition order in both
  // serial and parallel mode, keeping the floating-point result identical.
  Result<double> SumRange(const std::string& filter_column, const Value& lo,
                          const Value& hi, const std::string& sum_column,
                          ExecContext* ctx = nullptr);

  // SELECT <select_columns> FROM T WHERE <filter_column> IN (<values>)
  Result<QueryResult> SelectIn(const std::string& filter_column,
                               const std::vector<Value>& values,
                               const std::vector<std::string>&
                                   select_columns,
                               ExecContext* ctx = nullptr);

  // SELECT COUNT(*) FROM T WHERE <filter_column> IN (<values>)
  Result<uint64_t> CountIn(const std::string& filter_column,
                           const std::vector<Value>& values,
                           ExecContext* ctx = nullptr);

  // SELECT <select_columns> FROM T WHERE <filter_column> LIKE '<prefix>%'
  // (string columns only). The prefix predicate is translated to a vid
  // range through the order-preserving dictionary.
  Result<QueryResult> SelectPrefix(const std::string& filter_column,
                                   const std::string& prefix,
                                   const std::vector<std::string>&
                                       select_columns,
                                   ExecContext* ctx = nullptr);

  Result<uint64_t> CountPrefix(const std::string& filter_column,
                               const std::string& prefix,
                               ExecContext* ctx = nullptr);

  // SELECT <select_columns> FROM T WHERE <p1> AND <p2> AND ...
  Result<QueryResult> SelectWhere(const std::vector<Predicate>& conjuncts,
                                  const std::vector<std::string>&
                                      select_columns,
                                  ExecContext* ctx = nullptr);

  // SELECT COUNT(*) FROM T WHERE <p1> AND <p2> AND ...
  Result<uint64_t> CountWhere(const std::vector<Predicate>& conjuncts,
                              ExecContext* ctx = nullptr);

  // SELECT SUM(<sum_column>) FROM T WHERE <p1> AND <p2> AND ...
  Result<double> SumWhere(const std::vector<Predicate>& conjuncts,
                          const std::string& sum_column,
                          ExecContext* ctx = nullptr);

  // SELECT ROWID() FROM T WHERE <p1> AND <p2> AND ...
  Result<std::vector<RowId>> RowIdsWhere(
      const std::vector<Predicate>& conjuncts, ExecContext* ctx = nullptr);

  // --- memory control -------------------------------------------------------
  void UnloadAll();
  uint64_t ResidentBytes() const;

  // --- monitoring (an M_CS_COLUMNS-style view) ------------------------------
  struct ColumnStats {
    std::string table;
    std::string column;
    uint32_t partition = 0;
    bool cold = false;
    bool page_loadable = false;
    bool has_index = false;
    uint64_t main_rows = 0;
    uint64_t delta_rows = 0;
    uint64_t dict_size = 0;
    uint64_t resident_bytes = 0;  // main fragment only
    // Storage codec of the main fragment's data vector (S22): "plain",
    // "for", "rle" for paged columns, "resident" for fully loaded ones,
    // empty before the first delta merge.
    std::string codec;
  };

  // One row per (partition, column): loading behaviour, sizes, and the
  // bytes currently memory resident.
  std::vector<ColumnStats> CollectColumnStats() const;

 private:
  // The result sink a query feeds and what it collects (table.cc).
  struct Sink;
  struct SinkOutput;

  // The one fan-out driver behind every query: checks the conjuncts, then
  // per partition (task i writes slot i) matches the rows and feeds them to
  // `sink`; the slots merge in partition-id order.
  Result<SinkOutput> Run(const std::vector<Predicate>& conjuncts,
                         const Sink& sink, ExecContext* ctx);
  Result<std::vector<int>> ResolveColumns(
      const std::vector<std::string>& names) const;

  TableSchema schema_;
  StorageManager* storage_;
  ResourceManager* rm_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::unique_ptr<QueryExecutor> executor_;
};

}  // namespace payg

#endif  // PAYG_TABLE_TABLE_H_
