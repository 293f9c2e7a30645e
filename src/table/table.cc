#include "table/table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "paged/page_cache.h"

namespace payg {

namespace {

// One conjunct translated into a main fragment's vid space through its
// order-preserving dictionary (§3.1.2). Values absent from the dictionary
// drop out; a conjunct nothing in the fragment can satisfy is kNone.
struct VidPredicate {
  enum class Kind { kNone, kEq, kRange, kSet };
  Kind kind = Kind::kNone;
  ValueId lo = 0, hi = 0;     // kEq (lo == hi) and kRange, inclusive
  std::vector<ValueId> set;   // kSet: ascending, unique
  // kSet: for set[k], the indices of the IN values that map to it.
  std::vector<std::vector<uint32_t>> set_values;
};

// The one dictionary translation: equality → one vid, BETWEEN and LIKE
// 'p%' → a vid range, IN → a sorted vid set.
Result<VidPredicate> CompilePredicate(FragmentReader* reader,
                                      uint64_t dict_size,
                                      const Predicate& pred) {
  VidPredicate vp;
  ValueId lo = 0, hi_excl = 0;
  switch (pred.op) {
    case Predicate::Op::kEq: {
      PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(pred.value));
      if (vid != kInvalidValueId) {
        vp.kind = VidPredicate::Kind::kEq;
        vp.lo = vp.hi = vid;
      }
      return vp;
    }
    case Predicate::Op::kIn: {
      std::vector<std::pair<ValueId, uint32_t>> hits;
      for (uint32_t j = 0; j < pred.values.size(); ++j) {
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->FindValueId(pred.values[j]));
        if (vid != kInvalidValueId) hits.emplace_back(vid, j);
      }
      std::sort(hits.begin(), hits.end());
      for (const auto& [vid, j] : hits) {
        if (vp.set.empty() || vp.set.back() != vid) {
          vp.set.push_back(vid);
          vp.set_values.emplace_back();
        }
        vp.set_values.back().push_back(j);
      }
      if (!vp.set.empty()) vp.kind = VidPredicate::Kind::kSet;
      return vp;
    }
    case Predicate::Op::kBetween: {
      PAYG_ASSIGN_OR_RETURN(lo, reader->LowerBoundVid(pred.lo));
      PAYG_ASSIGN_OR_RETURN(hi_excl, reader->UpperBoundVid(pred.hi));
      break;
    }
    case Predicate::Op::kPrefix: {
      // [LowerBound(prefix), LowerBound(successor)) is exactly the vid range
      // of strings starting with `prefix`. The successor is the prefix with
      // its last byte bumped after dropping trailing 0xFF bytes; a prefix of
      // only 0xFF bytes (or the empty prefix) has none, and everything from
      // LowerBound(prefix) on matches.
      PAYG_ASSIGN_OR_RETURN(lo, reader->LowerBoundVid(Value(pred.prefix)));
      std::string successor = pred.prefix;
      while (!successor.empty() &&
             static_cast<unsigned char>(successor.back()) == 0xFF) {
        successor.pop_back();
      }
      hi_excl = static_cast<ValueId>(dict_size);
      if (!successor.empty()) {
        ++successor.back();
        PAYG_ASSIGN_OR_RETURN(hi_excl, reader->LowerBoundVid(Value(successor)));
      }
      break;
    }
  }
  if (lo < hi_excl) {
    vp.kind = VidPredicate::Kind::kRange;
    vp.lo = lo;
    vp.hi = hi_excl - 1;
  }
  return vp;
}

// Value-space test of one conjunct: the delta side, whose dictionary is
// unordered and so has no vid space to compile into.
bool EvalPredicate(const Predicate& pred, const Value& v) {
  switch (pred.op) {
    case Predicate::Op::kEq:
      return v == pred.value;
    case Predicate::Op::kBetween:
      return v.Compare(pred.lo) >= 0 && v.Compare(pred.hi) <= 0;
    case Predicate::Op::kIn:
      return std::find(pred.values.begin(), pred.values.end(), v) !=
             pred.values.end();
    case Predicate::Op::kPrefix: {
      const std::string& s = v.AsString();
      return s.size() >= pred.prefix.size() &&
             s.compare(0, pred.prefix.size(), pred.prefix) == 0;
    }
  }
  return false;
}

// Main rows [0, row_count) whose vid satisfies `vp`. Equality goes through
// FindRows (the inverted index when present, Alg. 5; else Alg. 1), ranges
// through SearchVidRange. Sets go through SearchVidSet in chunks of the
// size the SIMD tiers evaluate exactly (one cmpeq per probe); beyond that
// the kernels degrade to a band prefilter plus a scalar membership check
// per candidate, which for a wide band costs more than another pass over
// the (now hot) pages.
Status SearchMain(FragmentReader* reader, const VidPredicate& vp,
                  RowPos row_count, std::vector<RowPos>* out) {
  constexpr size_t kProbeChunk = 16;
  switch (vp.kind) {
    case VidPredicate::Kind::kNone:
      return Status::OK();
    case VidPredicate::Kind::kEq:
      return reader->FindRows(vp.lo, out);
    case VidPredicate::Kind::kRange:
      return reader->SearchVidRange(0, row_count, vp.lo, vp.hi, out);
    case VidPredicate::Kind::kSet:
      if (vp.set.size() <= kProbeChunk) {
        return reader->SearchVidSet(0, row_count, vp.set, out);
      }
      for (size_t c = 0; c < vp.set.size(); c += kProbeChunk) {
        const auto first = vp.set.begin() + static_cast<ptrdiff_t>(c);
        const std::vector<ValueId> chunk(
            first, first + static_cast<ptrdiff_t>(
                               std::min(kProbeChunk, vp.set.size() - c)));
        PAYG_RETURN_IF_ERROR(reader->SearchVidSet(0, row_count, chunk, out));
      }
      // Chunks interleave in row space; restore ascending row order.
      std::sort(out->begin(), out->end());
      return Status::OK();
  }
  return Status::Internal("unknown vid predicate");
}

// Keeps the candidate rows (ascending) that also satisfy `pred`: main rows
// through the compiled predicate — the search variety over a row list
// (§3.1.2) or set membership — and delta rows by value.
Status Narrow(Partition* part, const Predicate& pred, int col,
              ExecContext* ctx, std::vector<RowPos>* rows) {
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  std::vector<RowPos> main_rows, kept;
  for (RowPos r : *rows) {
    if (r < base) main_rows.push_back(r);
  }
  if (!main_rows.empty()) {
    PAYG_ASSIGN_OR_RETURN(auto reader, part->main(col)->NewReader(ctx));
    PAYG_ASSIGN_OR_RETURN(
        VidPredicate vp,
        CompilePredicate(reader.get(), part->main(col)->dict_size(), pred));
    switch (vp.kind) {
      case VidPredicate::Kind::kNone:
        break;
      case VidPredicate::Kind::kEq:
      case VidPredicate::Kind::kRange:
        PAYG_RETURN_IF_ERROR(
            reader->FilterRows(main_rows, vp.lo, vp.hi, &kept));
        break;
      case VidPredicate::Kind::kSet:
        for (RowPos r : main_rows) {
          PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(r));
          if (std::binary_search(vp.set.begin(), vp.set.end(), vid)) {
            kept.push_back(r);
          }
        }
        Bump(ctx, &QueryStats::rows_scanned, main_rows.size());
        break;
    }
  }
  DeltaFragment* delta = part->delta(col);
  for (size_t i = main_rows.size(); i < rows->size(); ++i) {
    const RowPos r = (*rows)[i];
    if (EvalPredicate(pred, delta->GetValue(delta->GetVid(r - base)))) {
      kept.push_back(r);
    }
  }
  Bump(ctx, &QueryStats::rows_scanned, rows->size() - main_rows.size());
  *rows = std::move(kept);
  return Status::OK();
}

// The delta rows matching `pred`: equality keeps the hash/postings lookup,
// the other ops test each distinct delta value once.
void SearchDelta(DeltaFragment* delta, const Predicate& pred,
                 ExecContext* ctx, std::vector<RowPos>* out) {
  if (pred.op == Predicate::Op::kEq) {
    delta->FindRows(pred.value, out);
  } else {
    delta->FindRowsMatching(
        [&pred](const Value& v) { return EvalPredicate(pred, v); }, out);
  }
  Bump(ctx, &QueryStats::rows_scanned, delta->row_count());
}

// The visible rows of `part` matching every conjunct (`cols` holds their
// checked column indices), ascending. conjuncts[0] drives: compiled
// through the dictionary and searched on the main fragment, looked up or
// tested on the delta. The rest narrow the visible candidates.
//
// With `row_values`, conjuncts[0] is an IN list and each matched row also
// gets the indices of the IN values it equals: main rows through the
// compiled set's vid→value map and the driver's live reader (the search
// left their pages hot), delta rows by value.
Status MatchPartition(Partition* part, const std::vector<Predicate>& conjuncts,
                      const std::vector<int>& cols, ExecContext* ctx,
                      std::vector<RowPos>* out,
                      std::vector<std::vector<uint32_t>>* row_values) {
  const Predicate& first = conjuncts[0];
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  std::vector<RowPos> rows;
  std::unique_ptr<FragmentReader> reader;
  VidPredicate driver;
  if (part->main(cols[0]) != nullptr && base > 0) {
    PAYG_ASSIGN_OR_RETURN(reader, part->main(cols[0])->NewReader(ctx));
    PAYG_ASSIGN_OR_RETURN(
        driver, CompilePredicate(reader.get(),
                                 part->main(cols[0])->dict_size(), first));
    PAYG_RETURN_IF_ERROR(SearchMain(reader.get(), driver, base, &rows));
  }
  DeltaFragment* delta = part->delta(cols[0]);
  std::vector<RowPos> delta_rows;
  SearchDelta(delta, first, ctx, &delta_rows);
  for (RowPos r : delta_rows) rows.push_back(base + r);
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [part](RowPos r) { return !part->IsVisible(r); }),
             rows.end());
  for (size_t i = 1; i < conjuncts.size() && !rows.empty(); ++i) {
    PAYG_RETURN_IF_ERROR(Narrow(part, conjuncts[i], cols[i], ctx, &rows));
  }

  if (row_values != nullptr) {
    std::unordered_map<ValueId, std::vector<uint32_t>> delta_values;
    for (RowPos r : rows) {
      if (r < base) {
        PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(r));
        const auto it =
            std::lower_bound(driver.set.begin(), driver.set.end(), vid);
        PAYG_ASSERT(it != driver.set.end() && *it == vid);
        row_values->push_back(driver.set_values[it - driver.set.begin()]);
        continue;
      }
      const ValueId dvid = delta->GetVid(r - base);
      auto [it, fresh] = delta_values.try_emplace(dvid);
      if (fresh) {
        const Value& v = delta->GetValue(dvid);
        for (uint32_t j = 0; j < first.values.size(); ++j) {
          if (first.values[j] == v) it->second.push_back(j);
        }
      }
      row_values->push_back(it->second);
    }
  }
  *out = std::move(rows);
  return Status::OK();
}

// COUNT(*) of one equality on a partition with no deleted row, so no
// visibility test is due: the main rows come from the reader's CountRows,
// which reads only the index directory when the column has an index, and
// the delta rows from the same lookup MatchPartition makes.
Result<uint64_t> CountEqual(Partition* part, const Predicate& pred, int col,
                            ExecContext* ctx) {
  uint64_t count = 0;
  MainFragment* main = part->main(col);
  if (main != nullptr && part->main_row_count() > 0) {
    PAYG_ASSIGN_OR_RETURN(auto reader, main->NewReader(ctx));
    PAYG_ASSIGN_OR_RETURN(
        VidPredicate vp,
        CompilePredicate(reader.get(), main->dict_size(), pred));
    if (vp.kind == VidPredicate::Kind::kEq) {
      PAYG_ASSIGN_OR_RETURN(count, reader->CountRows(vp.lo));
    }
  }
  std::vector<RowPos> delta_rows;
  SearchDelta(part->delta(col), pred, ctx, &delta_rows);
  return count + delta_rows.size();
}

// Calls fn(i, as(value)) with column `col`'s value of rows[i], in order.
// Main rows decode each distinct vid through the dictionary and `as` once;
// the memo holds what `as` returns.
template <typename As, typename Fn>
Status VisitColumn(Partition* part, int col, const std::vector<RowPos>& rows,
                   ExecContext* ctx, As as, Fn fn) {
  const RowPos base = static_cast<RowPos>(part->main_row_count());
  DeltaFragment* delta = part->delta(col);
  std::unique_ptr<FragmentReader> reader;
  std::unordered_map<ValueId, decltype(as(Value()))> memo;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= base) {
      fn(i, as(delta->GetValue(delta->GetVid(rows[i] - base))));
      continue;
    }
    if (reader == nullptr) {
      PAYG_ASSIGN_OR_RETURN(reader, part->main(col)->NewReader(ctx));
    }
    PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(rows[i]));
    auto it = memo.find(vid);
    if (it == memo.end()) {
      PAYG_ASSIGN_OR_RETURN(Value v, reader->GetValueForVid(vid));
      it = memo.emplace(vid, as(std::move(v))).first;
    }
    fn(i, it->second);
  }
  return Status::OK();
}

// Late materialization (§1): one column at a time, so each column's
// dictionary pages are touched once per query, not once per row. The
// columns' data-vector pages of these rows do not depend on each other, so
// they load first, in one batch across the columns: a queue-depth-aware
// backend serves it in about one round trip per IoQueueDepth() pages
// instead of one per page.
Status Materialize(Partition* part, const std::vector<RowPos>& rows,
                   const std::vector<int>& cols, ExecContext* ctx,
                   QueryResult* result) {
  std::vector<PageLoad> pages;
  for (int col : cols) {
    if (MainFragment* main = part->main(col)) main->AddRowPages(rows, &pages);
  }
  PAYG_RETURN_IF_ERROR(PageCache::LoadBatch(pages, ctx));
  result->rows.resize(rows.size());
  for (auto& row : result->rows) row.reserve(cols.size());
  for (int col : cols) {
    PAYG_RETURN_IF_ERROR(VisitColumn(
        part, col, rows, ctx, [](Value v) { return v; },
        [result](size_t i, Value v) {
          result->rows[i].push_back(std::move(v));
        }));
  }
  return Status::OK();
}

}  // namespace

// What a query collects from its matched rows. The per-probe kinds
// attribute rows to the values of the query's single IN conjunct.
struct Table::Sink {
  enum class Kind { kRows, kCount, kSum, kRowIds, kProbeRows, kProbeCounts };
  Kind kind;
  std::vector<int> cols;  // kRows/kProbeRows: select list; kSum: summed col
};

// One partition's (and, merged, the query's) sink output; only the fields
// of the sink's kind are filled.
struct Table::SinkOutput {
  QueryResult rows;
  uint64_t count = 0;
  double sum = 0;
  std::vector<RowId> row_ids;
  std::vector<QueryResult> probe_rows;  // one per IN value
  std::vector<uint64_t> probe_counts;   // one per IN value
};

Table::Table(TableSchema schema, StorageManager* storage, ResourceManager* rm,
             const ExecOptions& exec_options)
    : schema_(std::move(schema)),
      storage_(storage),
      rm_(rm),
      executor_(std::make_unique<QueryExecutor>(exec_options)) {
  // Partition 0 is the hot partition; aging-aware tables start as a
  // partitioned table with only the hot partition (§4.2).
  partitions_.push_back(
      std::make_unique<Partition>(&schema_, 0, /*cold=*/false, storage_, rm_));
}

Result<std::unique_ptr<Table>> Table::OpenExisting(
    TableSchema schema, StorageManager* storage, ResourceManager* rm,
    const std::vector<PartitionManifest>& manifests,
    const ExecOptions& exec_options) {
  if (manifests.empty() || manifests[0].cold) {
    return Status::InvalidArgument("manifests must start with the hot "
                                   "partition");
  }
  auto table =
      std::make_unique<Table>(std::move(schema), storage, rm, exec_options);
  table->partitions_.clear();
  for (uint32_t i = 0; i < manifests.size(); ++i) {
    PAYG_ASSIGN_OR_RETURN(
        auto part,
        Partition::OpenExisting(&table->schema_, i, manifests[i].cold,
                                storage, rm, manifests[i].merge_generation,
                                manifests[i].main_rows));
    table->partitions_.push_back(std::move(part));
  }
  return table;
}

void Table::set_exec_options(const ExecOptions& options) {
  executor_ = std::make_unique<QueryExecutor>(options);
}

std::vector<PartitionManifest> Table::Manifests() const {
  std::vector<PartitionManifest> out;
  for (const auto& part : partitions_) {
    out.push_back(PartitionManifest{part->cold(), part->merge_generation(),
                                    part->main_row_count()});
  }
  return out;
}

Status Table::Insert(const std::vector<Value>& row) {
  return partitions_[0]->Insert(row);
}

Status Table::AddColdPartition() {
  partitions_.push_back(std::make_unique<Partition>(
      &schema_, static_cast<uint32_t>(partitions_.size()), /*cold=*/true,
      storage_, rm_));
  return Status::OK();
}

Result<uint64_t> Table::AgeRows(const Value& threshold) {
  if (schema_.temperature_column < 0) {
    return Status::FailedPrecondition("table has no temperature column");
  }
  if (partitions_.size() < 2) {
    return Status::FailedPrecondition(
        "add a cold partition before aging rows");
  }
  Partition* hot_part = partitions_[0].get();
  Partition* cold_part = partitions_.back().get();
  const ColumnSchema& temp = schema_.columns[schema_.temperature_column];

  // Find hot rows whose temperature is <= threshold.
  const std::vector<Predicate> aged = {Predicate::Between(
      temp.name,
      temp.type == ValueType::kInt64
          ? Value(std::numeric_limits<int64_t>::min())
          : (temp.type == ValueType::kDouble
                 ? Value(-std::numeric_limits<double>::infinity())
                 : Value(std::string())),
      threshold)};
  PAYG_ASSIGN_OR_RETURN(int temp_col, CheckPredicate(aged[0]));
  std::vector<RowPos> victims;
  PAYG_RETURN_IF_ERROR(MatchPartition(hot_part, aged, {temp_col},
                                      /*ctx=*/nullptr, &victims, nullptr));

  // The move is ordinary DML (§4.2): insert into the cold delta, delete
  // from hot. No reorganisation of existing data happens here. The victims
  // materialize a column at a time, like a query's result rows.
  PAYG_ASSIGN_OR_RETURN(std::vector<int> all_cols, ResolveColumns({}));
  QueryResult moved;
  PAYG_RETURN_IF_ERROR(
      Materialize(hot_part, victims, all_cols, /*ctx=*/nullptr, &moved));
  for (size_t i = 0; i < victims.size(); ++i) {
    PAYG_RETURN_IF_ERROR(cold_part->Insert(moved.rows[i]));
    PAYG_RETURN_IF_ERROR(hot_part->MarkDeleted(victims[i]));
  }
  return static_cast<uint64_t>(victims.size());
}

Status Table::MergeAll() {
  for (auto& part : partitions_) {
    PAYG_RETURN_IF_ERROR(part->Merge());
  }
  return Status::OK();
}

uint64_t Table::row_count() const {
  uint64_t n = 0;
  for (const auto& part : partitions_) n += part->row_count();
  return n;
}

uint64_t Table::visible_row_count() const {
  uint64_t n = 0;
  for (const auto& part : partitions_) n += part->visible_row_count();
  return n;
}

Result<std::vector<int>> Table::ResolveColumns(
    const std::vector<std::string>& names) const {
  std::vector<int> cols;
  if (names.empty()) {
    // SELECT *.
    for (size_t i = 0; i < schema_.columns.size(); ++i) {
      cols.push_back(static_cast<int>(i));
    }
    return cols;
  }
  for (const std::string& name : names) {
    int idx = schema_.ColumnIndex(name);
    if (idx < 0) return Status::NotFound("no such column: " + name);
    cols.push_back(idx);
  }
  return cols;
}

Result<int> Table::CheckPredicate(const Predicate& pred) const {
  const int col = schema_.ColumnIndex(pred.column);
  if (col < 0) return Status::NotFound("no such column: " + pred.column);
  const ValueType type = schema_.columns[col].type;
  // NaN has no place in the order every dictionary is sorted by.
  auto invalid = [type](const Value& v) {
    return v.type() != type ||
           (type == ValueType::kDouble && std::isnan(v.AsDouble()));
  };
  bool bad = false;
  switch (pred.op) {
    case Predicate::Op::kEq:
      bad = invalid(pred.value);
      break;
    case Predicate::Op::kBetween:
      bad = invalid(pred.lo) || invalid(pred.hi);
      break;
    case Predicate::Op::kIn:
      bad = std::any_of(pred.values.begin(), pred.values.end(), invalid);
      break;
    case Predicate::Op::kPrefix:
      if (type != ValueType::kString) {
        return Status::InvalidArgument(
            "prefix predicate on non-string column " + pred.column);
      }
      break;
  }
  if (bad) {
    return Status::InvalidArgument("operand is NaN or does not match the "
                                   "type of column " + pred.column);
  }
  return col;
}

Result<Table::SinkOutput> Table::Run(const std::vector<Predicate>& conjuncts,
                                     const Sink& sink, ExecContext* ctx) {
  if (conjuncts.empty()) {
    return Status::InvalidArgument("a query needs at least one conjunct");
  }
  std::vector<int> cols;
  for (const Predicate& pred : conjuncts) {
    PAYG_ASSIGN_OR_RETURN(int col, CheckPredicate(pred));
    cols.push_back(col);
  }
  const bool per_probe = sink.kind == Sink::Kind::kProbeRows ||
                         sink.kind == Sink::Kind::kProbeCounts;
  const size_t probes = conjuncts[0].values.size();

  // The executor runs this per partition (inline when worker_threads = 0),
  // possibly concurrently: a task touches only its partition, its own
  // readers, the atomic ctx counters and slot i of `partials`.
  const size_t n = partitions_.size();
  std::vector<SinkOutput> partials(n);
  PAYG_RETURN_IF_ERROR(executor_->ForEach(ctx, n, [&](size_t i) -> Status {
    Partition* part = partitions_[i].get();
    Bump(ctx, &QueryStats::partitions_visited);
    SinkOutput& out = partials[i];
    if (sink.kind == Sink::Kind::kCount && conjuncts.size() == 1 &&
        conjuncts[0].op == Predicate::Op::kEq &&
        part->visible_row_count() == part->row_count()) {
      PAYG_ASSIGN_OR_RETURN(out.count,
                            CountEqual(part, conjuncts[0], cols[0], ctx));
      return Status::OK();
    }
    std::vector<RowPos> rows;
    std::vector<std::vector<uint32_t>> row_values;
    PAYG_RETURN_IF_ERROR(MatchPartition(part, conjuncts, cols, ctx, &rows,
                                        per_probe ? &row_values : nullptr));
    switch (sink.kind) {
      case Sink::Kind::kRows:
        return Materialize(part, rows, sink.cols, ctx, &out.rows);
      case Sink::Kind::kCount:
        out.count = rows.size();
        return Status::OK();
      case Sink::Kind::kRowIds:
        out.row_ids.reserve(rows.size());
        for (RowPos r : rows) out.row_ids.push_back(RowId{part->id(), r});
        return Status::OK();
      case Sink::Kind::kSum: {
        // A per-partition partial, merged below in partition order:
        // floating-point addition is not associative, so serial and
        // parallel runs share this exact grouping and agree bit for bit.
        const bool ints =
            schema_.columns[sink.cols[0]].type == ValueType::kInt64;
        return VisitColumn(
            part, sink.cols[0], rows, ctx,
            [ints](const Value& v) {
              return ints ? static_cast<double>(v.AsInt64()) : v.AsDouble();
            },
            [&out](size_t, double v) { out.sum += v; });
      }
      case Sink::Kind::kProbeCounts:
        out.probe_counts.assign(probes, 0);
        for (const auto& js : row_values) {
          for (uint32_t j : js) ++out.probe_counts[j];
        }
        return Status::OK();
      case Sink::Kind::kProbeRows: {
        // One materialization pass over the union of matched rows: each
        // column's pages and dictionary entries are touched once for the
        // whole batch, then the rows fan back out to their probes.
        QueryResult united;
        PAYG_RETURN_IF_ERROR(Materialize(part, rows, sink.cols, ctx, &united));
        out.probe_rows.resize(probes);
        for (size_t k = 0; k < rows.size(); ++k) {
          for (uint32_t j : row_values[k]) {
            out.probe_rows[j].rows.push_back(united.rows[k]);
          }
        }
        return Status::OK();
      }
    }
    return Status::Internal("unknown sink");
  }));

  SinkOutput out = std::move(partials[0]);
  for (size_t i = 1; i < n; ++i) {
    SinkOutput& p = partials[i];
    for (auto& row : p.rows.rows) out.rows.rows.push_back(std::move(row));
    out.count += p.count;
    out.sum += p.sum;
    out.row_ids.insert(out.row_ids.end(), p.row_ids.begin(), p.row_ids.end());
    for (size_t j = 0; j < p.probe_rows.size(); ++j) {
      for (auto& row : p.probe_rows[j].rows) {
        out.probe_rows[j].rows.push_back(std::move(row));
      }
    }
    for (size_t j = 0; j < p.probe_counts.size(); ++j) {
      out.probe_counts[j] += p.probe_counts[j];
    }
  }
  return out;
}

Result<QueryResult> Table::SelectWhere(
    const std::vector<Predicate>& conjuncts,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(select_columns));
  PAYG_ASSIGN_OR_RETURN(
      SinkOutput out,
      Run(conjuncts, Sink{Sink::Kind::kRows, std::move(cols)}, ctx));
  return std::move(out.rows);
}

Result<uint64_t> Table::CountWhere(const std::vector<Predicate>& conjuncts,
                                   ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(SinkOutput out,
                        Run(conjuncts, Sink{Sink::Kind::kCount, {}}, ctx));
  return out.count;
}

Result<double> Table::SumWhere(const std::vector<Predicate>& conjuncts,
                               const std::string& sum_column,
                               ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns({sum_column}));
  if (schema_.columns[cols[0]].type == ValueType::kString) {
    return Status::InvalidArgument("SUM over a string column");
  }
  PAYG_ASSIGN_OR_RETURN(
      SinkOutput out,
      Run(conjuncts, Sink{Sink::Kind::kSum, std::move(cols)}, ctx));
  return out.sum;
}

Result<std::vector<RowId>> Table::RowIdsWhere(
    const std::vector<Predicate>& conjuncts, ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(SinkOutput out,
                        Run(conjuncts, Sink{Sink::Kind::kRowIds, {}}, ctx));
  return std::move(out.row_ids);
}

Result<std::vector<QueryResult>> Table::MultiSelectByValue(
    const std::string& filter_column, const std::vector<Value>& probes,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(std::vector<int> cols, ResolveColumns(select_columns));
  PAYG_ASSIGN_OR_RETURN(
      SinkOutput out, Run({Predicate::In(filter_column, probes)},
                          Sink{Sink::Kind::kProbeRows, std::move(cols)}, ctx));
  return std::move(out.probe_rows);
}

Result<std::vector<uint64_t>> Table::MultiCountByValue(
    const std::string& filter_column, const std::vector<Value>& probes,
    ExecContext* ctx) {
  PAYG_ASSIGN_OR_RETURN(SinkOutput out,
                        Run({Predicate::In(filter_column, probes)},
                            Sink{Sink::Kind::kProbeCounts, {}}, ctx));
  return std::move(out.probe_counts);
}

Result<QueryResult> Table::SelectByValue(
    const std::string& filter_column, const Value& value,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  return SelectWhere({Predicate::Eq(filter_column, value)}, select_columns,
                     ctx);
}

Result<uint64_t> Table::CountByValue(const std::string& filter_column,
                                     const Value& value, ExecContext* ctx) {
  return CountWhere({Predicate::Eq(filter_column, value)}, ctx);
}

Result<std::vector<RowId>> Table::RowIdsByValue(
    const std::string& filter_column, const Value& value, ExecContext* ctx) {
  return RowIdsWhere({Predicate::Eq(filter_column, value)}, ctx);
}

Result<QueryResult> Table::SelectRange(
    const std::string& filter_column, const Value& lo, const Value& hi,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  return SelectWhere({Predicate::Between(filter_column, lo, hi)},
                     select_columns, ctx);
}

Result<double> Table::SumRange(const std::string& filter_column,
                               const Value& lo, const Value& hi,
                               const std::string& sum_column,
                               ExecContext* ctx) {
  return SumWhere({Predicate::Between(filter_column, lo, hi)}, sum_column,
                  ctx);
}

Result<QueryResult> Table::SelectIn(
    const std::string& filter_column, const std::vector<Value>& values,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  return SelectWhere({Predicate::In(filter_column, values)}, select_columns,
                     ctx);
}

Result<uint64_t> Table::CountIn(const std::string& filter_column,
                                const std::vector<Value>& values,
                                ExecContext* ctx) {
  return CountWhere({Predicate::In(filter_column, values)}, ctx);
}

Result<QueryResult> Table::SelectPrefix(
    const std::string& filter_column, const std::string& prefix,
    const std::vector<std::string>& select_columns, ExecContext* ctx) {
  return SelectWhere({Predicate::Prefix(filter_column, prefix)},
                     select_columns, ctx);
}

Result<uint64_t> Table::CountPrefix(const std::string& filter_column,
                                    const std::string& prefix,
                                    ExecContext* ctx) {
  return CountWhere({Predicate::Prefix(filter_column, prefix)}, ctx);
}

void Table::UnloadAll() {
  for (auto& part : partitions_) part->UnloadAll();
}

uint64_t Table::ResidentBytes() const {
  uint64_t bytes = 0;
  for (const auto& part : partitions_) bytes += part->ResidentBytes();
  return bytes;
}

std::vector<Table::ColumnStats> Table::CollectColumnStats() const {
  std::vector<ColumnStats> out;
  for (const auto& part : partitions_) {
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      const ColumnSchema& cs = schema_.columns[c];
      ColumnStats stats;
      stats.table = schema_.name;
      stats.column = cs.name;
      stats.partition = part->id();
      stats.cold = part->cold();
      stats.page_loadable = cs.page_loadable;
      stats.delta_rows = part->delta(static_cast<int>(c))->row_count();
      MainFragment* main =
          const_cast<Partition*>(part.get())->main(static_cast<int>(c));
      if (main != nullptr) {
        stats.has_index = main->has_index();
        stats.main_rows = main->row_count();
        stats.dict_size = main->dict_size();
        stats.resident_bytes = main->ResidentBytes();
        stats.codec = main->codec_name();
      }
      out.push_back(std::move(stats));
    }
  }
  return out;
}

}  // namespace payg
