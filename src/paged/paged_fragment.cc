#include "paged/paged_fragment.h"

#include "columnar/dictionary.h"
#include "exec/exec_context.h"
#include "storage/byte_stream.h"
#include "storage/io_backend.h"

namespace payg {

namespace {

std::string MetaChainName(const std::string& name) { return name + ".pmeta"; }

// The meta chain opens with this format byte. A stream written before the
// numeric dictionary was paged opens with its ValueType byte (0-2)
// instead, and embeds a numeric column's dictionary values.
constexpr uint8_t kMetaVersion = 0x81;

}  // namespace

// Per-query reader over a paged fragment. Owns one iterator per paged
// structure; all pins (current data-vector page, dictionary handle caches,
// index cursor pages) release when the reader dies.
class PagedReader : public FragmentReader {
 public:
  PagedReader(PagedFragment* frag, ExecContext* ctx)
      : frag_(frag), ctx_(ctx), dv_it_(frag->data_.get(), ctx) {
    if (frag_->dict_ != nullptr) {
      dict_it_ = std::make_unique<PagedDictionaryIterator>(frag_->dict_.get(),
                                                           ctx);
    } else {
      num_it_ = std::make_unique<PagedNumericDictionaryIterator>(
          frag_->num_dict_.get(), ctx);
    }
  }

  Result<ValueId> GetVid(RowPos rpos) override { return dv_it_.Get(rpos); }

  Status MGetVids(RowPos from, RowPos to, std::vector<ValueId>* out) override {
    return dv_it_.MGet(from, to, out);
  }

  Status SearchVidRange(RowPos from, RowPos to, ValueId lo, ValueId hi,
                        std::vector<RowPos>* out) override {
    return dv_it_.SearchRange(from, to, lo, hi, out);
  }

  Status SearchVidSet(RowPos from, RowPos to,
                      const std::vector<ValueId>& sorted_vids,
                      std::vector<RowPos>* out) override {
    return dv_it_.SearchIn(from, to, sorted_vids, out);
  }

  Status FilterRows(const std::vector<RowPos>& rows, ValueId lo, ValueId hi,
                    std::vector<RowPos>* out) override {
    return dv_it_.SearchRowsRange(rows, lo, hi, out);
  }

  Status FindRows(ValueId vid, std::vector<RowPos>* out) override {
    PAYG_ASSIGN_OR_RETURN(PagedIndexIterator* index, PointLookup(vid));
    // Alg. 5: use the paged inverted index when it exists.
    if (index != nullptr) return index->Lookup(vid, out);
    // Alg. 1: sequential scan of the paged data vector.
    return dv_it_.FindByValueId(vid, out);
  }

  Result<uint64_t> CountRows(ValueId vid) override {
    PAYG_ASSIGN_OR_RETURN(PagedIndexIterator* index, PointLookup(vid));
    if (index != nullptr) return index->CountPostings(vid);
    std::vector<RowPos> rows;
    PAYG_RETURN_IF_ERROR(dv_it_.FindByValueId(vid, &rows));
    return static_cast<uint64_t>(rows.size());
  }

  Result<Value> GetValueForVid(ValueId vid) override {
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    if (dict_it_ != nullptr) {
      auto s = dict_it_->FindByValueId(vid);
      if (!s.ok()) return s.status();
      return Value(std::move(*s));
    }
    return num_it_->GetValue(vid);
  }

  Status MGetValues(ValueId from, ValueId to, ValueArray* out) override {
    if (from > to || to > frag_->dict_size_) {
      return Status::OutOfRange("value id range");
    }
    if (num_it_ != nullptr) return num_it_->MGetValues(from, to, out);
    return dict_it_->MGetValues(from, to,
                                &std::get<std::vector<std::string>>(*out));
  }

  Result<ValueId> FindValueId(const Value& value) override {
    if (dict_it_ != nullptr) {
      return dict_it_->FindByValue(value.AsString());
    }
    return num_it_->FindValueId(value);
  }

  Result<ValueId> LowerBoundVid(const Value& value) override {
    if (dict_it_ != nullptr) return dict_it_->LowerBound(value.AsString());
    return num_it_->LowerBound(value);
  }

  Result<ValueId> UpperBoundVid(const Value& value) override {
    if (dict_it_ != nullptr) return dict_it_->UpperBound(value.AsString());
    return num_it_->UpperBound(value);
  }

 private:
  // One point lookup of `vid` (FindRows or CountRows): counts toward the
  // deferred rebuild (§8), which may build the index now, and returns the
  // index cursor, or null when the lookup scans the data vector.
  Result<PagedIndexIterator*> PointLookup(ValueId vid) {
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    PAYG_RETURN_IF_ERROR(frag_->MaybeRebuildIndex());
    if (idx_it_ == nullptr) {
      PagedInvertedIndex* index = frag_->index();
      if (index != nullptr) {
        idx_it_ = std::make_unique<PagedIndexIterator>(index, ctx_);
      }
    }
    Bump(ctx_, idx_it_ != nullptr ? &QueryStats::index_lookups
                                  : &QueryStats::vector_scans);
    return idx_it_.get();
  }

  PagedFragment* frag_;
  ExecContext* ctx_;
  PagedDataVectorIterator dv_it_;
  std::unique_ptr<PagedDictionaryIterator> dict_it_;
  std::unique_ptr<PagedNumericDictionaryIterator> num_it_;
  std::unique_ptr<PagedIndexIterator> idx_it_;
};

Result<std::unique_ptr<PagedFragment>> PagedFragment::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, const ValueArray& sorted_dict,
    const std::vector<ValueId>& vids, IndexMode index_mode,
    uint32_t index_build_threshold, CodecForce codec) {
  const ValueType type = ValueArrayType(sorted_dict);
  auto frag = std::unique_ptr<PagedFragment>(new PagedFragment());
  frag->name_ = name;
  frag->storage_ = storage;
  frag->rm_ = rm;
  frag->pool_ = pool;
  frag->type_ = type;
  frag->row_count_ = vids.size();
  frag->dict_size_ = ValueArraySize(sorted_dict);
  frag->index_mode_ = index_mode;
  frag->index_build_threshold_ = index_build_threshold;

  if (type != ValueType::kString) {
    PAYG_ASSIGN_OR_RETURN(
        frag->num_dict_,
        PagedNumericDictionary::Build(storage, rm, pool, name, sorted_dict));
  }

  // Meta chain: format version, fragment header and, for numeric columns,
  // the dictionary's geometry and fence.
  {
    PAYG_ASSIGN_OR_RETURN(
        auto mfile, storage->CreateChain(MetaChainName(name),
                                         storage->options().page_size));
    ChainByteWriter w(mfile.get());
    w.PutU8(kMetaVersion);
    w.PutU8(static_cast<uint8_t>(type));
    w.PutU8(static_cast<uint8_t>(index_mode));
    w.PutU64(vids.size());
    w.PutU64(frag->dict_size_);
    if (frag->num_dict_ != nullptr) frag->num_dict_->WriteGeometry(&w);
    PAYG_RETURN_IF_ERROR(w.Finish());
  }

  // The delta-merge codec selection pass (S22): fragment-level force, then
  // PAYG_FORCE_CODEC, then the per-column cost model over these vids.
  PAYG_ASSIGN_OR_RETURN(
      frag->data_, PagedDataVector::Build(storage, rm, pool, name, vids,
                                          ResolveCodec(codec, vids)));

  if (const auto* strings =
          std::get_if<std::vector<std::string>>(&sorted_dict)) {
    PAYG_ASSIGN_OR_RETURN(
        frag->dict_, PagedDictionary::Build(storage, rm, pool, name, *strings));
  }

  if (index_mode == IndexMode::kEager) {
    PAYG_ASSIGN_OR_RETURN(
        frag->index_, PagedInvertedIndex::Build(storage, rm, pool, name, vids,
                                                frag->dict_size_));
  }
  // Under kDeferred nothing is built now: the index is non-critical data,
  // recoverable from the data vector, rebuilt when the workload asks (§8).
  return frag;
}

Result<std::unique_ptr<PagedFragment>> PagedFragment::Open(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name) {
  auto frag = std::unique_ptr<PagedFragment>(new PagedFragment());
  frag->name_ = name;
  frag->storage_ = storage;
  frag->rm_ = rm;
  frag->pool_ = pool;

  {
    PAYG_ASSIGN_OR_RETURN(
        auto mfile, storage->OpenChain(MetaChainName(name),
                                       storage->options().page_size));
    ChainByteReader r(mfile.get());
    PAYG_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    const bool legacy = type <= static_cast<uint8_t>(ValueType::kString);
    if (!legacy && type != kMetaVersion) {
      return Status::Corruption("fragment meta " + name +
                                ": unknown format version " +
                                std::to_string(type));
    }
    if (!legacy) {
      PAYG_ASSIGN_OR_RETURN(type, r.GetU8());
    }
    PAYG_ASSIGN_OR_RETURN(uint8_t index_mode, r.GetU8());
    PAYG_ASSIGN_OR_RETURN(frag->row_count_, r.GetU64());
    PAYG_ASSIGN_OR_RETURN(frag->dict_size_, r.GetU64());
    if (type > static_cast<uint8_t>(ValueType::kString) ||
        index_mode > static_cast<uint8_t>(IndexMode::kDeferred) ||
        frag->dict_size_ > kInvalidValueId) {
      return Status::Corruption("fragment meta " + name +
                                ": type, index mode or dictionary size out "
                                "of range");
    }
    frag->type_ = static_cast<ValueType>(type);
    frag->index_mode_ = static_cast<IndexMode>(index_mode);
    if (frag->type_ != ValueType::kString && !legacy) {
      PAYG_ASSIGN_OR_RETURN(
          frag->num_dict_,
          PagedNumericDictionary::Open(storage, rm, pool, name, frag->type_,
                                       frag->dict_size_, &r));
    }
    if (frag->type_ != ValueType::kString && legacy) {
      // A legacy stream embeds the values. The paged chain is rebuilt from
      // them at every open and never trusted across opens.
      PAYG_ASSIGN_OR_RETURN(
          Dictionary dict, Dictionary::Read(&r, frag->type_, frag->dict_size_));
      PAYG_ASSIGN_OR_RETURN(
          frag->num_dict_,
          PagedNumericDictionary::Build(storage, rm, pool, name,
                                        dict.values()));
    }
  }

  PAYG_ASSIGN_OR_RETURN(frag->data_,
                        PagedDataVector::Open(storage, rm, pool, name));
  if (frag->type_ == ValueType::kString) {
    PAYG_ASSIGN_OR_RETURN(frag->dict_,
                          PagedDictionary::Open(storage, rm, pool, name));
  }
  if (frag->index_mode_ == IndexMode::kEager) {
    PAYG_ASSIGN_OR_RETURN(frag->index_,
                          PagedInvertedIndex::Open(storage, rm, pool, name));
  } else if (frag->index_mode_ == IndexMode::kDeferred) {
    // A previous deferred rebuild may already have persisted the index.
    auto idx = PagedInvertedIndex::Open(storage, rm, pool, name);
    if (idx.ok()) frag->index_ = std::move(*idx);
  }
  return frag;
}

Status PagedFragment::MaybeRebuildIndex() {
  if (index_mode_ != IndexMode::kDeferred) return Status::OK();
  {
    MutexLock lock(index_mu_);
    if (index_ != nullptr) return Status::OK();
  }
  if (point_lookups_.fetch_add(1) + 1 < index_build_threshold_) {
    return Status::OK();
  }
  return RebuildIndexNow();
}

Status PagedFragment::RebuildIndexNow() {
  MutexLock lock(index_mu_);
  if (index_ != nullptr) return Status::OK();
  // The index is rebuilt from critical data only: one full pass over the
  // paged data vector (§8 — non-critical structures "can be recovered and
  // rebuilt from critical data").
  std::vector<ValueId> vids;
  vids.reserve(row_count_);
  PagedDataVectorIterator it(data_.get());
  PAYG_RETURN_IF_ERROR(
      it.MGet(0, static_cast<RowPos>(row_count_), &vids));
  PAYG_ASSIGN_OR_RETURN(index_,
                        PagedInvertedIndex::Build(storage_, rm_, pool_, name_,
                                                  vids, dict_size_));
  return Status::OK();
}

void PagedFragment::AddRowPages(const std::vector<RowPos>& rows,
                                std::vector<PageLoad>* out) {
  const uint32_t cap = IoQueueDepth();
  uint32_t added = 0;
  LogicalPageNo last = kInvalidPageNo;
  for (RowPos r : rows) {
    if (r >= row_count_) break;  // ascending: the rest are delta rows
    const LogicalPageNo lpn = data_->PageOfRow(r);
    if (lpn == last) continue;
    if (added == cap) break;
    out->push_back(PageLoad{data_->cache(), lpn});
    last = lpn;
    ++added;
  }
}

Result<std::unique_ptr<FragmentReader>> PagedFragment::NewReader(
    ExecContext* ctx) {
  return std::unique_ptr<FragmentReader>(new PagedReader(this, ctx));
}

void PagedFragment::Unload() {
  if (data_ != nullptr) data_->Unload();
  if (dict_ != nullptr) dict_->Unload();
  if (num_dict_ != nullptr) num_dict_->Unload();
  {
    MutexLock lock(index_mu_);
    if (index_ != nullptr) index_->Unload();
  }
}

uint64_t PagedFragment::ResidentBytes() const {
  uint64_t bytes = 0;
  if (data_ != nullptr) {
    bytes += data_->cache()->loaded_page_count() *
             storage_->options().page_size;
  }
  if (dict_ != nullptr) {
    bytes += dict_->cache()->loaded_page_count() *
             storage_->options().dict_page_size;
  }
  if (num_dict_ != nullptr) bytes += num_dict_->ResidentBytes();
  {
    MutexLock lock(index_mu_);
    if (index_ != nullptr) {
      bytes += index_->cache()->loaded_page_count() *
               storage_->options().page_size;
    }
  }
  return bytes;
}

}  // namespace payg
