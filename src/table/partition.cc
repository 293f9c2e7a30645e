#include "table/partition.h"

#include <algorithm>
#include <cmath>

#include "paged/fragment_factory.h"

namespace payg {

namespace {

// How column `cs` of a hot or cold partition persists its main fragment.
FragmentSpec SpecFor(const ColumnSchema& cs, bool cold) {
  FragmentSpec spec;
  spec.page_loadable = cs.page_loadable;
  spec.with_index = cs.with_index;
  spec.defer_index = cs.defer_index;
  spec.pool = cold ? PoolId::kColdPagedPool : PoolId::kPagedPool;
  return spec;
}

}  // namespace

Partition::Partition(const TableSchema* schema, uint32_t partition_id,
                     bool cold, StorageManager* storage, ResourceManager* rm)
    : schema_(schema),
      id_(partition_id),
      cold_(cold),
      storage_(storage),
      rm_(rm) {
  mains_.resize(schema_->columns.size());
  for (const ColumnSchema& col : schema_->columns) {
    auto delta = std::make_unique<DeltaFragment>(col.type);
    // Columns with an inverted index keep one on the delta fragment too
    // (§2: each fragment may have a memory resident inverted index).
    if (col.with_index) delta->EnableIndex();
    deltas_.push_back(std::move(delta));
  }
}

Result<std::unique_ptr<Partition>> Partition::OpenExisting(
    const TableSchema* schema, uint32_t partition_id, bool cold,
    StorageManager* storage, ResourceManager* rm, uint64_t merge_generation,
    uint64_t main_rows) {
  auto part = std::make_unique<Partition>(schema, partition_id, cold, storage,
                                          rm);
  part->merge_generation_ = merge_generation;
  part->main_rows_ = main_rows;
  part->deleted_.assign(main_rows, 0);
  for (size_t c = 0; c < schema->columns.size(); ++c) {
    const std::string name =
        part->FragmentName(static_cast<int>(c), merge_generation);
    PAYG_ASSIGN_OR_RETURN(
        part->mains_[c],
        OpenMainFragment(storage, rm, name, SpecFor(schema->columns[c], cold)));
    if (part->mains_[c]->row_count() != main_rows) {
      return Status::Corruption("catalog row count mismatch in " + name);
    }
  }
  return part;
}

uint64_t Partition::delta_row_count() const {
  return deltas_.empty() ? 0 : deltas_[0]->row_count();
}

Status Partition::Insert(const std::vector<Value>& row) {
  if (row.size() != schema_->columns.size()) {
    return Status::InvalidArgument("row width does not match schema");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].type() != schema_->columns[c].type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema_->columns[c].name);
    }
    if (row[c].type() == ValueType::kDouble && std::isnan(row[c].AsDouble())) {
      return Status::InvalidArgument("NaN in column " +
                                     schema_->columns[c].name);
    }
  }
  for (size_t c = 0; c < row.size(); ++c) {
    deltas_[c]->Append(row[c]);
  }
  deleted_.push_back(0);
  return Status::OK();
}

Status Partition::BulkLoadColumn(int col, const std::vector<Value>& sorted_dict,
                                 const std::vector<ValueId>& vids) {
  if (col < 0 || static_cast<size_t>(col) >= schema_->columns.size()) {
    return Status::InvalidArgument("column index out of range");
  }
  if (delta_row_count() > 0) {
    return Status::FailedPrecondition("bulk load into a non-empty delta");
  }
  if (main_rows_ != 0 && main_rows_ != vids.size()) {
    return Status::InvalidArgument("bulk-loaded columns differ in row count");
  }
  const ColumnSchema& cs = schema_->columns[col];
  ValueArray dict = MakeValueArray(cs.type);
  const bool typed = std::visit(
      [&](auto& values) {
        values.reserve(sorted_dict.size());
        for (const Value& v : sorted_dict) {
          if (v.type() != cs.type) return false;
          values.push_back(v.As<ElementOf<decltype(values)>>());
        }
        return true;
      },
      dict);
  if (!typed) {
    return Status::InvalidArgument("type mismatch in column " + cs.name);
  }
  PAYG_ASSIGN_OR_RETURN(
      mains_[col],
      BuildMainFragment(storage_, rm_, FragmentName(col, merge_generation_),
                        dict, vids, SpecFor(cs, cold_)));
  if (main_rows_ == 0) {
    main_rows_ = vids.size();
    deleted_.assign(main_rows_, 0);
    deleted_count_ = 0;
  }
  return Status::OK();
}

Status Partition::MarkDeleted(RowPos rpos) {
  if (rpos >= row_count()) return Status::OutOfRange("row position");
  if (deleted_[rpos] == 0) {
    deleted_[rpos] = 1;
    ++deleted_count_;
  }
  return Status::OK();
}

Result<std::vector<Value>> Partition::GetRow(RowPos rpos, ExecContext* ctx) {
  if (rpos >= row_count()) return Status::OutOfRange("row position");
  std::vector<Value> row;
  row.reserve(schema_->columns.size());
  if (rpos < main_rows_) {
    for (size_t c = 0; c < schema_->columns.size(); ++c) {
      PAYG_ASSIGN_OR_RETURN(auto reader, mains_[c]->NewReader(ctx));
      PAYG_ASSIGN_OR_RETURN(ValueId vid, reader->GetVid(rpos));
      PAYG_ASSIGN_OR_RETURN(Value v, reader->GetValueForVid(vid));
      row.push_back(std::move(v));
    }
  } else {
    RowPos drow = rpos - static_cast<RowPos>(main_rows_);
    for (size_t c = 0; c < schema_->columns.size(); ++c) {
      row.push_back(deltas_[c]->GetValue(deltas_[c]->GetVid(drow)));
    }
  }
  return row;
}

std::string Partition::FragmentName(int col, uint64_t generation) const {
  return schema_->name + "_p" + std::to_string(id_) + "_c" +
         std::to_string(col) + "_g" + std::to_string(generation);
}

Status Partition::Merge() {
  // Nothing to fold. A partition never merged still merges, so that its
  // catalog entry names chains.
  const bool has_mains =
      std::all_of(mains_.begin(), mains_.end(),
                  [](const auto& main) { return main != nullptr; });
  if (has_mains && delta_row_count() == 0 && deleted_count_ == 0) {
    return Status::OK();
  }
  const int cols = static_cast<int>(schema_->columns.size());
  const uint64_t new_rows = visible_row_count();
  const uint64_t generation = merge_generation_ + 1;
  std::vector<std::unique_ptr<MainFragment>> new_mains(cols);
  for (int c = 0; c < cols; ++c) {
    auto main = std::visit(
        [&](const auto& delta_dict) {
          return MergeColumn(c, FragmentName(c, generation), delta_dict);
        },
        deltas_[c]->values());
    if (!main.ok()) {
      // All or nothing: close the mains built so far, then drop every
      // chain of the generation that never became current.
      new_mains.clear();
      for (int d = 0; d < cols; ++d) {
        DropFragmentChains(storage_, FragmentName(d, generation));
      }
      return main.status();
    }
    new_mains[c] = std::move(*main);
  }

  // Chain names of the generation being replaced, vacuumed after the swap.
  std::vector<std::string> old_names;
  for (int c = 0; c < cols; ++c) {
    if (mains_[c] != nullptr) {
      old_names.push_back(FragmentName(c, merge_generation_));
    }
  }
  // Atomic swap: new mains in, deltas reset, visibility bitmap compacted.
  mains_ = std::move(new_mains);
  merge_generation_ = generation;
  for (auto& delta : deltas_) delta->Clear();
  main_rows_ = new_rows;
  deleted_.assign(new_rows, 0);
  deleted_count_ = 0;
  // Vacuum the replaced generation's chains (the old fragments were
  // destroyed by the swap above, closing their files).
  for (const std::string& name : old_names) {
    DropFragmentChains(storage_, name);
  }
  return Status::OK();
}

template <typename T>
Result<std::unique_ptr<MainFragment>> Partition::MergeColumn(
    int col, const std::string& name, const std::vector<T>& delta_dict) {
  const DeltaFragment& delta = *deltas_[col];
  // A surviving row marks its value's slot in old_to_new / delta_to_new;
  // the dictionary merge below overwrites each mark with the new vid.
  constexpr ValueId kUsed = 0;

  // The old main, in vid space. Its dictionary is sorted and unique (§2),
  // so the used entries, read in vid order, are already a sorted list.
  std::vector<ValueId> main_vids;
  ValueArray old_values = std::vector<T>();
  std::vector<ValueId> old_to_new;
  if (mains_[col] != nullptr && main_rows_ > 0) {
    const uint64_t dict_size = mains_[col]->dict_size();
    PAYG_ASSIGN_OR_RETURN(auto reader, mains_[col]->NewReader());
    PAYG_RETURN_IF_ERROR(
        reader->MGetVids(0, static_cast<RowPos>(main_rows_), &main_vids));
    old_to_new.assign(dict_size, kInvalidValueId);
    for (uint64_t r = 0; r < main_rows_; ++r) {
      if (main_vids[r] >= dict_size) {
        return Status::Corruption("value id past the dictionary in " +
                                  FragmentName(col, merge_generation_));
      }
      if (deleted_[r] == 0) old_to_new[main_vids[r]] = kUsed;
    }
    PAYG_RETURN_IF_ERROR(
        reader->MGetValues(0, static_cast<ValueId>(dict_size), &old_values));
  }
  std::vector<T>& old_dict = std::get<std::vector<T>>(old_values);

  // The delta: only the distinct values surviving rows use get sorted.
  std::vector<ValueId> delta_to_new(delta_dict.size(), kInvalidValueId);
  std::vector<ValueId> delta_sorted;
  for (uint64_t d = 0; d < delta.row_count(); ++d) {
    if (deleted_[main_rows_ + d] != 0) continue;
    const ValueId v = delta.GetVid(static_cast<RowPos>(d));
    if (delta_to_new[v] == kInvalidValueId) {
      delta_to_new[v] = kUsed;
      delta_sorted.push_back(v);
    }
  }
  std::sort(delta_sorted.begin(), delta_sorted.end(),
            [&delta_dict](ValueId a, ValueId b) {
              return delta_dict[a] < delta_dict[b];
            });
  // The delta dictionary is keyed so that equal values share one entry.
  for (size_t i = 1; i < delta_sorted.size(); ++i) {
    PAYG_ASSERT(delta_dict[delta_sorted[i - 1]] < delta_dict[delta_sorted[i]]);
  }

  // One linear merge of the two sorted lists; equal values share a vid.
  std::vector<T> dict;
  dict.reserve(old_dict.size() + delta_sorted.size());
  ValueId o = 0;
  auto skip_unused = [&] {
    while (o < old_dict.size() && old_to_new[o] == kInvalidValueId) ++o;
  };
  skip_unused();
  size_t d = 0;
  while (o < old_dict.size() || d < delta_sorted.size()) {
    const ValueId next = static_cast<ValueId>(dict.size());
    const int cmp = o == old_dict.size()                         ? 1
                    : d == delta_sorted.size()                   ? -1
                    : old_dict[o] < delta_dict[delta_sorted[d]] ? -1
                    : delta_dict[delta_sorted[d]] < old_dict[o] ? 1
                                                                 : 0;
    if (cmp <= 0) {
      old_to_new[o] = next;
      dict.push_back(std::move(old_dict[o++]));
      skip_unused();
    }
    if (cmp >= 0) {
      const ValueId v = delta_sorted[d++];
      delta_to_new[v] = next;
      if (cmp > 0) dict.push_back(delta_dict[v]);
    }
  }

  // The new data vector, one table lookup per surviving row: main rows
  // first, then delta rows.
  std::vector<ValueId> vids;
  vids.reserve(visible_row_count());
  for (uint64_t r = 0; r < main_vids.size(); ++r) {
    if (deleted_[r] == 0) vids.push_back(old_to_new[main_vids[r]]);
  }
  for (uint64_t r = 0; r < delta.row_count(); ++r) {
    if (deleted_[main_rows_ + r] == 0) {
      vids.push_back(delta_to_new[delta.GetVid(static_cast<RowPos>(r))]);
    }
  }
  return BuildMainFragment(storage_, rm_, name, ValueArray(std::move(dict)),
                           vids, SpecFor(schema_->columns[col], cold_));
}

void Partition::UnloadAll() {
  for (auto& main : mains_) {
    if (main != nullptr) main->Unload();
  }
}

uint64_t Partition::ResidentBytes() const {
  uint64_t bytes = 0;
  for (const auto& main : mains_) {
    if (main != nullptr) bytes += main->ResidentBytes();
  }
  for (const auto& delta : deltas_) bytes += delta->MemoryBytes();
  return bytes;
}

}  // namespace payg
