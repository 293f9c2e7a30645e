#include "columnar/resident_fragment.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "exec/exec_context.h"
#include "storage/byte_stream.h"

namespace payg {

namespace {

// Serialization layout of the ".full" chain:
//   meta:  u8 type, u8 has_index, u8 codec, u32 bits, u64 row_count,
//          u64 dict_size
//   dict:  dict_size values (Dictionary::Write)
//   data:  u64 word_count, words
//   index: u8 unique, u64 postings, postings × u32,
//          [if !unique] u64 dirsize, dirsize × u64
std::string ChainName(const std::string& name) { return name + ".full"; }

}  // namespace

// Reader over a loaded fragment; holds the payload and a pin on its
// registration, so the column cannot be evicted while a query is running.
class ResidentReader : public FragmentReader {
 public:
  using Payload = FullyResidentFragment::Payload;

  ResidentReader(const FullyResidentFragment* frag, ExecContext* ctx,
                 const Payload* payload, PinnedResource pin)
      : frag_(frag),
        ctx_(ctx),
        payload_(payload),
        pin_(std::move(pin)) {}

  Result<ValueId> GetVid(RowPos rpos) override {
    if (rpos >= frag_->row_count_) return Status::OutOfRange("row position");
    if (sparse()) return payload_->sparse.Get(rpos);
    return static_cast<ValueId>(payload_->data.Get(rpos));
  }

  Status MGetVids(RowPos from, RowPos to, std::vector<ValueId>* out) override {
    if (from > to || to > frag_->row_count_) {
      return Status::OutOfRange("row range");
    }
    size_t old = out->size();
    out->resize(old + (to - from));
    if (sparse()) {
      payload_->sparse.MGet(from, to, out->data() + old);
    } else {
      payload_->data.MGet(from, to, out->data() + old);
    }
    return Status::OK();
  }

  Status SearchVidRange(RowPos from, RowPos to, ValueId lo, ValueId hi,
                        std::vector<RowPos>* out) override {
    if (from > to || to > frag_->row_count_) {
      return Status::OutOfRange("row range");
    }
    if (sparse()) {
      payload_->sparse.SearchRange(from, to, lo, hi, from, out);
    } else {
      PackedSearchRange(payload_->data.words(), payload_->data.bits(), from, to,
                        lo, hi, from, out);
    }
    Bump(ctx_, &QueryStats::rows_scanned, to - from);
    return Status::OK();
  }

  Status SearchVidSet(RowPos from, RowPos to,
                      const std::vector<ValueId>& sorted_vids,
                      std::vector<RowPos>* out) override {
    if (from > to || to > frag_->row_count_) {
      return Status::OutOfRange("row range");
    }
    if (sparse()) {
      payload_->sparse.SearchIn(from, to, sorted_vids, from, out);
    } else {
      PackedSearchIn(payload_->data.words(), payload_->data.bits(), from, to,
                     sorted_vids, from, out);
    }
    Bump(ctx_, &QueryStats::rows_scanned, to - from);
    return Status::OK();
  }

  Status FilterRows(const std::vector<RowPos>& rows, ValueId lo, ValueId hi,
                    std::vector<RowPos>* out) override {
    for (RowPos r : rows) {
      if (r >= frag_->row_count_) return Status::OutOfRange("row position");
      uint64_t v = sparse() ? payload_->sparse.Get(r) : payload_->data.Get(r);
      if (v - lo <= static_cast<uint64_t>(hi) - lo) out->push_back(r);
      Bump(ctx_, &QueryStats::rows_scanned);
    }
    return Status::OK();
  }

  Status FindRows(ValueId vid, std::vector<RowPos>* out) override {
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    if (frag_->has_index_) {
      Bump(ctx_, &QueryStats::index_lookups);
      auto span = payload_->index.Lookup(vid);
      out->insert(out->end(), span.begin(), span.end());
      return Status::OK();
    }
    Bump(ctx_, &QueryStats::vector_scans);
    if (sparse()) {
      payload_->sparse.SearchEq(0, frag_->row_count_, vid, 0, out);
    } else {
      PackedSearchEq(payload_->data.words(), payload_->data.bits(), 0,
                     frag_->row_count_, vid, 0, out);
    }
    Bump(ctx_, &QueryStats::rows_scanned, frag_->row_count_);
    return Status::OK();
  }

  Result<uint64_t> CountRows(ValueId vid) override {
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    if (frag_->has_index_) {
      Bump(ctx_, &QueryStats::index_lookups);
      return static_cast<uint64_t>(payload_->index.Lookup(vid).size());
    }
    std::vector<RowPos> rows;
    PAYG_RETURN_IF_ERROR(FindRows(vid, &rows));
    return static_cast<uint64_t>(rows.size());
  }

  Result<Value> GetValueForVid(ValueId vid) override {
    if (vid >= frag_->dict_size_) return Status::OutOfRange("value id");
    return payload_->dict.GetValue(vid);
  }

  Status MGetValues(ValueId from, ValueId to, ValueArray* out) override {
    if (from > to || to > frag_->dict_size_) {
      return Status::OutOfRange("value id range");
    }
    payload_->dict.AppendValues(from, to, out);
    return Status::OK();
  }

  Result<ValueId> FindValueId(const Value& value) override {
    auto v = payload_->dict.FindValueId(value);
    return v.has_value() ? *v : kInvalidValueId;
  }

  Result<ValueId> LowerBoundVid(const Value& value) override {
    return payload_->dict.LowerBound(value);
  }

  Result<ValueId> UpperBoundVid(const Value& value) override {
    return payload_->dict.UpperBound(value);
  }

 private:
  bool sparse() const {
    return frag_->codec_ == FullyResidentFragment::Codec::kSparse;
  }

  const FullyResidentFragment* frag_;
  ExecContext* ctx_;
  const Payload* payload_;  // valid while pin_ is held
  PinnedResource pin_;
};

Result<std::unique_ptr<FullyResidentFragment>> FullyResidentFragment::Build(
    StorageManager* storage, ResourceManager* rm, const std::string& name,
    const ValueArray& sorted_dict, const std::vector<ValueId>& vids,
    bool with_index) {
  PAYG_ASSIGN_OR_RETURN(
      auto file, storage->CreateChain(ChainName(name),
                                      storage->options().page_size));

  const ValueType type = ValueArrayType(sorted_dict);
  const uint64_t dict_size = ValueArraySize(sorted_dict);
  uint32_t bits = BitsNeeded(dict_size == 0 ? 0 : dict_size - 1);
  // Pick the data-vector codec: sparse encoding when one vid dominates.
  const Codec codec = SparseVector::ShouldUse(vids, /*threshold=*/0.6)
                          ? Codec::kSparse
                          : Codec::kPacked;
  ChainByteWriter w(file.get());
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(with_index ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(codec));
  w.PutU32(bits);
  w.PutU64(vids.size());
  w.PutU64(dict_size);
  Dictionary::Write(&w, sorted_dict);
  if (codec == Codec::kSparse) {
    SparseVector sv = SparseVector::Encode(vids);
    w.PutU32(sv.dominant());
    w.PutU32(sv.bits());
    w.PutU64(sv.exception_bitmap().size());
    w.PutBytes(sv.exception_bitmap().data(),
               sv.exception_bitmap().size() * sizeof(uint64_t));
    w.PutU64(sv.exception_count());
    uint64_t ewords = CeilDiv(sv.exception_count() * sv.bits(), 64) + 2;
    PAYG_ASSERT(ewords <= sv.exceptions().word_count());
    w.PutU64(ewords);
    w.PutBytes(sv.exceptions().words(), ewords * sizeof(uint64_t));
  } else {
    PackedVector packed(bits);
    for (ValueId v : vids) packed.Append(v);
    // Write exactly the needed words (the in-memory buffer over-allocates
    // for growth); +2 covers the kernels' overread padding.
    uint64_t nwords = CeilDiv(vids.size() * bits, 64) + 2;
    PAYG_ASSERT(nwords <= packed.word_count());
    w.PutU64(nwords);
    w.PutBytes(packed.words(), nwords * sizeof(uint64_t));
  }
  if (with_index) {
    InvertedIndex idx = InvertedIndex::Build(vids, dict_size);
    w.PutU8(idx.unique() ? 1 : 0);
    w.PutU64(idx.postinglist().size());
    w.PutBytes(idx.postinglist().data(),
               idx.postinglist().size() * sizeof(RowPos));
    if (!idx.unique()) {
      w.PutU64(idx.directory().size());
      w.PutBytes(idx.directory().data(),
                 idx.directory().size() * sizeof(uint64_t));
    }
  }
  PAYG_RETURN_IF_ERROR(w.Finish());

  auto frag = std::unique_ptr<FullyResidentFragment>(
      new FullyResidentFragment(storage, rm, name));
  frag->type_ = type;
  frag->has_index_ = with_index;
  frag->codec_ = codec;
  frag->bits_ = bits;
  frag->row_count_ = vids.size();
  frag->dict_size_ = dict_size;
  return frag;
}

Result<std::unique_ptr<FullyResidentFragment>> FullyResidentFragment::Open(
    StorageManager* storage, ResourceManager* rm, const std::string& name) {
  PAYG_ASSIGN_OR_RETURN(
      auto file,
      storage->OpenChain(ChainName(name), storage->options().page_size));
  ChainByteReader r(file.get());
  auto frag = std::unique_ptr<FullyResidentFragment>(
      new FullyResidentFragment(storage, rm, name));
  PAYG_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(uint8_t has_index, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(uint8_t codec, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(frag->bits_, r.GetU32());
  PAYG_ASSIGN_OR_RETURN(frag->row_count_, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(frag->dict_size_, r.GetU64());
  frag->type_ = static_cast<ValueType>(type);
  frag->has_index_ = has_index != 0;
  frag->codec_ = static_cast<Codec>(codec);
  return frag;
}

Result<std::shared_ptr<FullyResidentFragment::Payload>>
FullyResidentFragment::LoadPayload() {
  Stopwatch timer;
  PAYG_ASSIGN_OR_RETURN(
      auto file,
      storage_->OpenChain(ChainName(name_), storage_->options().page_size));
  ChainByteReader r(file.get());
  PAYG_ASSIGN_OR_RETURN(uint8_t type_u8, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(uint8_t has_index, r.GetU8());
  PAYG_ASSIGN_OR_RETURN(uint8_t codec_u8, r.GetU8());
  uint32_t bits;
  PAYG_ASSIGN_OR_RETURN(bits, r.GetU32());
  uint64_t rows, dict_size;
  PAYG_ASSIGN_OR_RETURN(rows, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(dict_size, r.GetU64());
  ValueType type = static_cast<ValueType>(type_u8);
  PAYG_ASSERT(type == type_ && rows == row_count_ && dict_size == dict_size_ &&
              bits == bits_ && (has_index != 0) == has_index_ &&
              static_cast<Codec>(codec_u8) == codec_);

  auto payload = std::make_shared<Payload>();
  PAYG_ASSIGN_OR_RETURN(payload->dict, Dictionary::Read(&r, type, dict_size));

  if (codec_ == Codec::kSparse) {
    PAYG_ASSIGN_OR_RETURN(uint32_t dominant, r.GetU32());
    PAYG_ASSIGN_OR_RETURN(uint32_t ebits, r.GetU32());
    uint64_t bitmap_words;
    PAYG_ASSIGN_OR_RETURN(bitmap_words, r.GetU64());
    std::vector<uint64_t> bitmap(bitmap_words);
    PAYG_RETURN_IF_ERROR(
        r.GetBytes(bitmap.data(), bitmap_words * sizeof(uint64_t)));
    uint64_t exception_count, ewords;
    PAYG_ASSIGN_OR_RETURN(exception_count, r.GetU64());
    PAYG_ASSIGN_OR_RETURN(ewords, r.GetU64());
    std::vector<uint64_t> ex_words(ewords);
    PAYG_RETURN_IF_ERROR(
        r.GetBytes(ex_words.data(), ewords * sizeof(uint64_t)));
    payload->sparse = SparseVector::FromParts(
        row_count_, dominant, ebits, std::move(bitmap),
        PackedVector::FromWords(ebits, exception_count,
                                std::move(ex_words)));
  } else {
    uint64_t word_count;
    PAYG_ASSIGN_OR_RETURN(word_count, r.GetU64());
    std::vector<uint64_t> words(word_count);
    PAYG_RETURN_IF_ERROR(
        r.GetBytes(words.data(), word_count * sizeof(uint64_t)));
    payload->data =
        PackedVector::FromWords(bits_, row_count_, std::move(words));
  }

  if (has_index_) {
    PAYG_ASSIGN_OR_RETURN(uint8_t unique, r.GetU8());
    uint64_t postings;
    PAYG_ASSIGN_OR_RETURN(postings, r.GetU64());
    std::vector<RowPos> postinglist(postings);
    PAYG_RETURN_IF_ERROR(
        r.GetBytes(postinglist.data(), postings * sizeof(RowPos)));
    std::vector<uint64_t> directory;
    if (unique == 0) {
      uint64_t dirsize;
      PAYG_ASSIGN_OR_RETURN(dirsize, r.GetU64());
      directory.resize(dirsize);
      PAYG_RETURN_IF_ERROR(
          r.GetBytes(directory.data(), dirsize * sizeof(uint64_t)));
    }
    payload->index = InvertedIndex::FromParts(dict_size_, unique != 0,
                                              std::move(postinglist),
                                              std::move(directory));
  }

  payload->bytes = payload->dict.MemoryBytes() +
                   (codec_ == Codec::kSparse ? payload->sparse.MemoryBytes()
                                             : payload->data.MemoryBytes()) +
                   (has_index_ ? payload->index.MemoryBytes() : 0);
  last_load_nanos_.store(timer.ElapsedNanos(), std::memory_order_relaxed);
  return payload;
}

void FullyResidentFragment::Unload() { payload_.Unload(); }

uint64_t FullyResidentFragment::ResidentBytes() const {
  return payload_.resident_bytes();
}

Result<std::unique_ptr<FragmentReader>> FullyResidentFragment::NewReader(
    ExecContext* ctx) {
  if (ctx != nullptr) {
    PAYG_RETURN_IF_ERROR(ctx->CheckDeadline());
  }
  PinnedResource pin;
  PAYG_ASSIGN_OR_RETURN(const Payload* payload,
                        payload_.Pin(&pin, [this] { return LoadPayload(); }));
  Bump(ctx, &QueryStats::pages_pinned);
  return std::unique_ptr<FragmentReader>(
      new ResidentReader(this, ctx, payload, std::move(pin)));
}

}  // namespace payg
