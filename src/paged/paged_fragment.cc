#include "paged/paged_fragment.h"

#include "exec/exec_context.h"
#include "storage/byte_stream.h"

namespace payg {

namespace {

std::string MetaChainName(const std::string& name) { return name + ".pmeta"; }

}  // namespace

// Per-query reader over a paged fragment. Owns one iterator per paged
// structure; all pins (current data-vector page, dictionary handle cache,
// index cursor pages, numeric dictionary) release when the reader dies.
class PagedReader : public FragmentReader {
 public:
  PagedReader(PagedFragment* frag, ExecContext* ctx,
              std::shared_ptr<Dictionary> num_dict,
              PinnedResource num_dict_pin)
      : frag_(frag),
        ctx_(ctx),
        dv_it_(frag->data_.get(), ctx),
        num_dict_(std::move(num_dict)),
        num_dict_pin_(std::move(num_dict_pin)) {
    if (frag_->dict_ != nullptr) {
      dict_it_ = std::make_unique<PagedDictionaryIterator>(frag_->dict_.get(),
                                                           ctx);
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
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    // §8: under the deferred regime this may rebuild the index now.
    PAYG_RETURN_IF_ERROR(frag_->MaybeRebuildIndex());
    if (idx_it_ == nullptr) {
      PagedInvertedIndex* index = frag_->index();
      if (index != nullptr) {
        idx_it_ = std::make_unique<PagedIndexIterator>(index, ctx_);
      }
    }
    if (idx_it_ != nullptr) {
      // Alg. 5: use the paged inverted index when it exists.
      Bump(ctx_, &QueryStats::index_lookups);
      return idx_it_->Lookup(vid, out);
    }
    // Alg. 1: sequential scan of the paged data vector.
    Bump(ctx_, &QueryStats::vector_scans);
    return dv_it_.FindByValueId(vid, out);
  }

  Result<Value> GetValueForVid(ValueId vid) override {
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    if (dict_it_ != nullptr) {
      auto s = dict_it_->FindByValueId(vid);
      if (!s.ok()) return s.status();
      return Value(std::move(*s));
    }
    return num_dict_->GetValue(vid);
  }

  Status MGetValues(ValueId from, ValueId to,
                    std::vector<Value>* out) override {
    if (from > to || to > frag_->dict_size_) {
      return Status::OutOfRange("value id range");
    }
    if (dict_it_ == nullptr) {
      num_dict_->AppendValues(from, to, out);
      return Status::OK();
    }
    std::vector<std::string> strings;
    PAYG_RETURN_IF_ERROR(dict_it_->MGetValues(from, to, &strings));
    out->reserve(out->size() + strings.size());
    for (std::string& s : strings) out->emplace_back(std::move(s));
    return Status::OK();
  }

  Result<ValueId> FindValueId(const Value& value) override {
    if (dict_it_ != nullptr) {
      return dict_it_->FindByValue(value.AsString());
    }
    auto v = num_dict_->FindValueId(value);
    return v.has_value() ? *v : kInvalidValueId;
  }

  Result<ValueId> LowerBoundVid(const Value& value) override {
    if (dict_it_ != nullptr) return dict_it_->LowerBound(value.AsString());
    return num_dict_->LowerBound(value);
  }

  Result<ValueId> UpperBoundVid(const Value& value) override {
    if (dict_it_ != nullptr) return dict_it_->UpperBound(value.AsString());
    return num_dict_->UpperBound(value);
  }

 private:
  PagedFragment* frag_;
  ExecContext* ctx_;
  PagedDataVectorIterator dv_it_;
  std::unique_ptr<PagedDictionaryIterator> dict_it_;
  std::unique_ptr<PagedIndexIterator> idx_it_;
  std::shared_ptr<Dictionary> num_dict_;
  PinnedResource num_dict_pin_;
};

Result<std::unique_ptr<PagedFragment>> PagedFragment::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, ValueType type,
    const std::vector<Value>& sorted_dict_values,
    const std::vector<ValueId>& vids, IndexMode index_mode,
    uint32_t index_build_threshold, CodecForce codec) {
  auto frag = std::unique_ptr<PagedFragment>(new PagedFragment());
  frag->name_ = name;
  frag->storage_ = storage;
  frag->rm_ = rm;
  frag->pool_ = pool;
  frag->num_dict_ = std::make_unique<LazyResource<Dictionary>>(
      rm, name + ".numdict", Disposition::kPagedAttribute, pool);
  frag->type_ = type;
  frag->row_count_ = vids.size();
  frag->dict_size_ = sorted_dict_values.size();
  frag->index_mode_ = index_mode;
  frag->index_build_threshold_ = index_build_threshold;

  // Meta chain: fragment header plus, for numeric columns, the dictionary
  // values themselves.
  {
    PAYG_ASSIGN_OR_RETURN(
        auto mfile, storage->CreateChain(MetaChainName(name),
                                         storage->options().page_size));
    ChainByteWriter w(mfile.get());
    w.PutU8(static_cast<uint8_t>(type));
    w.PutU8(static_cast<uint8_t>(index_mode));
    w.PutU64(vids.size());
    w.PutU64(sorted_dict_values.size());
    if (type != ValueType::kString) {
      Dictionary::Write(&w, type, sorted_dict_values);
    }
    PAYG_RETURN_IF_ERROR(w.Finish());
  }

  // The delta-merge codec selection pass (S22): fragment-level force, then
  // PAYG_FORCE_CODEC, then the per-column cost model over these vids.
  PAYG_ASSIGN_OR_RETURN(
      frag->data_, PagedDataVector::Build(storage, rm, pool, name, vids,
                                          ResolveCodec(codec, vids)));

  if (type == ValueType::kString) {
    std::vector<std::string> strings;
    strings.reserve(sorted_dict_values.size());
    for (const Value& v : sorted_dict_values) strings.push_back(v.AsString());
    PAYG_ASSIGN_OR_RETURN(
        frag->dict_, PagedDictionary::Build(storage, rm, pool, name, strings));
  }

  if (index_mode == IndexMode::kEager) {
    PAYG_ASSIGN_OR_RETURN(
        frag->index_, PagedInvertedIndex::Build(storage, rm, pool, name, vids,
                                                sorted_dict_values.size()));
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
  frag->num_dict_ = std::make_unique<LazyResource<Dictionary>>(
      rm, name + ".numdict", Disposition::kPagedAttribute, pool);

  {
    PAYG_ASSIGN_OR_RETURN(
        auto mfile, storage->OpenChain(MetaChainName(name),
                                       storage->options().page_size));
    ChainByteReader r(mfile.get());
    PAYG_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    PAYG_ASSIGN_OR_RETURN(uint8_t index_mode, r.GetU8());
    PAYG_ASSIGN_OR_RETURN(frag->row_count_, r.GetU64());
    PAYG_ASSIGN_OR_RETURN(frag->dict_size_, r.GetU64());
    frag->type_ = static_cast<ValueType>(type);
    frag->index_mode_ = static_cast<IndexMode>(index_mode);
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

Result<std::shared_ptr<Dictionary>> PagedFragment::PinNumericDict(
    PinnedResource* pin) {
  PAYG_ASSERT(type_ != ValueType::kString);
  return num_dict_->Pin(pin, [this] { return LoadNumericDict(); });
}

Result<std::shared_ptr<Dictionary>> PagedFragment::LoadNumericDict() const {
  PAYG_ASSIGN_OR_RETURN(
      auto mfile, storage_->OpenChain(MetaChainName(name_),
                                      storage_->options().page_size));
  ChainByteReader r(mfile.get());
  PAYG_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  (void)type;
  PAYG_ASSIGN_OR_RETURN(uint8_t has_index, r.GetU8());
  (void)has_index;
  uint64_t rows, dict_size;
  PAYG_ASSIGN_OR_RETURN(rows, r.GetU64());
  (void)rows;
  PAYG_ASSIGN_OR_RETURN(dict_size, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(Dictionary dict,
                        Dictionary::Read(&r, type_, dict_size));
  return std::make_shared<Dictionary>(std::move(dict));
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

Result<std::unique_ptr<FragmentReader>> PagedFragment::NewReader(
    ExecContext* ctx) {
  std::shared_ptr<Dictionary> num_dict;
  PinnedResource num_pin;
  if (type_ != ValueType::kString) {
    PAYG_ASSIGN_OR_RETURN(num_dict, PinNumericDict(&num_pin));
  }
  return std::unique_ptr<FragmentReader>(
      new PagedReader(this, ctx, std::move(num_dict), std::move(num_pin)));
}

void PagedFragment::Unload() {
  if (data_ != nullptr) data_->Unload();
  if (dict_ != nullptr) dict_->Unload();
  {
    MutexLock lock(index_mu_);
    if (index_ != nullptr) index_->Unload();
  }
  if (num_dict_ != nullptr) num_dict_->Unload();
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
  {
    MutexLock lock(index_mu_);
    if (index_ != nullptr) {
      bytes += index_->cache()->loaded_page_count() *
               storage_->options().page_size;
    }
  }
  if (auto num_dict = num_dict_->resident()) bytes += num_dict->MemoryBytes();
  return bytes;
}

}  // namespace payg
