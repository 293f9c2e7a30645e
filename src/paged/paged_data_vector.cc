#include "paged/paged_data_vector.h"

#include <algorithm>
#include <cstring>

#include "exec/exec_context.h"
#include "obs/metrics.h"
#include "storage/byte_stream.h"

namespace payg {

namespace {

std::string ChainName(const std::string& name) { return name + ".dv"; }
std::string SummaryChainName(const std::string& name) {
  return name + ".dvsum";
}

// Meta page formats. Version 0 (the pre-codec layout, 24-byte payload) had
// no version field: bits u32 @0, row_count u64 @8, values_per_page u64 @16.
// Version 1 (36-byte payload) is distinguished by payload size and carries
// an explicit version word plus the codec identity:
//   u32 version (== 1)   @0
//   u32 bits             @4
//   u64 row_count        @8
//   u64 values_per_page  @16
//   u8  codec_id         @24  (+3 pad bytes)
//   u32 for_base         @28
//   u32 reserved         @32
constexpr uint32_t kMetaV0PayloadSize = 24;
constexpr uint32_t kMetaV1PayloadSize = 36;
constexpr uint32_t kMetaVersion = 1;

Status ValidateGeometry(uint32_t bits, uint64_t values_per_page) {
  if (bits < 1 || bits > 32) {
    return Status::Corruption("data vector meta: bits out of range [1, 32]");
  }
  if (values_per_page == 0 || values_per_page % kChunkValues != 0) {
    return Status::Corruption(
        "data vector meta: values_per_page not a positive multiple of 64");
  }
  return Status::OK();
}

// Build-side codec accounting: selection counts, encoded payload bytes, and
// the forced-knob gauge (0 = auto, 1 + codec id when PAYG_FORCE_CODEC pins
// one). Registry pointers are process-lifetime (find-or-create, stable).
void RecordCodecBuild(CodecId id, uint64_t payload_bytes) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter* selected[kCodecCount] = {
      reg.counter("codec.selected.plain"),
      reg.counter("codec.selected.for"),
      reg.counter("codec.selected.rle"),
  };
  static obs::Counter* bytes[kCodecCount] = {
      reg.counter("codec.bytes.plain"),
      reg.counter("codec.bytes.for"),
      reg.counter("codec.bytes.rle"),
  };
  static obs::Gauge* forced = reg.gauge("codec.forced");
  const auto idx = static_cast<size_t>(id);
  selected[idx]->Add(1);
  bytes[idx]->Add(payload_bytes);
  forced->Set(ForcedCodec() == CodecForce::kAuto
                  ? 0
                  : 1 + static_cast<int64_t>(ForcedCodec()));
}

}  // namespace

Status ParseDataVectorMeta(const uint8_t* payload, uint32_t payload_size,
                           DataVectorMeta* out) {
  const uint8_t* p = payload;
  if (payload_size == kMetaV0PayloadSize) {
    // Pre-codec chain: uniform n-bit packing, no version word.
    std::memcpy(&out->codec.params.bits, p, sizeof(out->codec.params.bits));
    std::memcpy(&out->row_count, p + 8, sizeof(out->row_count));
    std::memcpy(&out->values_per_page, p + 16, sizeof(out->values_per_page));
    out->codec.id = CodecId::kPlain;
    out->codec.params.for_base = 0;
  } else if (payload_size == kMetaV1PayloadSize) {
    uint32_t version = 0;
    std::memcpy(&version, p, sizeof(version));
    if (version != kMetaVersion) {
      return Status::Corruption(
          "data vector meta: unsupported meta format version " +
          std::to_string(version) + " (this build reads versions 0 and 1)");
    }
    std::memcpy(&out->codec.params.bits, p + 4,
                sizeof(out->codec.params.bits));
    std::memcpy(&out->row_count, p + 8, sizeof(out->row_count));
    std::memcpy(&out->values_per_page, p + 16, sizeof(out->values_per_page));
    if (p[24] >= kCodecCount) {
      return Status::Corruption("data vector meta: unknown codec id " +
                                std::to_string(p[24]));
    }
    out->codec.id = static_cast<CodecId>(p[24]);
    std::memcpy(&out->codec.params.for_base, p + 28,
                sizeof(out->codec.params.for_base));
  } else {
    return Status::Corruption("data vector meta: unrecognized payload size " +
                              std::to_string(payload_size));
  }
  PAYG_RETURN_IF_ERROR(
      ValidateGeometry(out->codec.params.bits, out->values_per_page));
  if (out->codec.id == CodecId::kFor) {
    // A legitimate FOR frame never wraps: base is the column minimum and
    // base + largest residual is the column maximum, a u32. A base that
    // can wrap makes decode (residual + base, mod 2^32) disagree with the
    // searches' residual-space predicate translation, so reject it here —
    // the one place the base enters the system.
    const uint64_t mask = out->codec.params.bits >= 32
                              ? 0xFFFFFFFFull
                              : ((1ull << out->codec.params.bits) - 1);
    if (out->codec.params.for_base > 0xFFFFFFFFull - mask) {
      return Status::Corruption(
          "data vector meta: FOR base plus packed range overflows the "
          "32-bit vid space");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<PagedDataVector>> PagedDataVector::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, const std::vector<ValueId>& vids) {
  return Build(storage, rm, pool, name, vids,
               ResolveCodec(CodecForce::kAuto, vids));
}

Result<std::unique_ptr<PagedDataVector>> PagedDataVector::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, const std::vector<ValueId>& vids,
    const CodecChoice& choice) {
  const uint32_t page_size = storage->options().page_size;
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->CreateChain(ChainName(name), page_size));

  Page probe(page_size);
  const uint64_t values_per_page =
      CodecValuesPerPage(probe.capacity(), choice);
  PAYG_ASSERT_MSG(values_per_page > 0, "page too small for one chunk");

  // Meta page (page 0, version 1 layout above).
  {
    Page meta(page_size);
    meta.set_type(PageType::kMeta);
    uint8_t* p = meta.payload();
    const uint32_t version = kMetaVersion;
    const uint64_t row_count = vids.size();
    const uint8_t codec_id = static_cast<uint8_t>(choice.id);
    std::memcpy(p, &version, sizeof(version));
    std::memcpy(p + 4, &choice.params.bits, sizeof(choice.params.bits));
    std::memcpy(p + 8, &row_count, sizeof(row_count));
    std::memcpy(p + 16, &values_per_page, sizeof(values_per_page));
    p[24] = codec_id;
    std::memcpy(p + 28, &choice.params.for_base,
                sizeof(choice.params.for_base));
    meta.set_payload_size(kMetaV1PayloadSize);
    auto r = file->AppendPage(&meta);
    if (!r.ok()) return r.status();
  }

  // Data pages: encode values_per_page identifiers per page through the
  // chosen codec, collecting the per-page min/max summary as we go (§3.3;
  // the summary always stores raw vids, whatever the codec).
  uint64_t data_pages = 0;
  uint64_t payload_bytes = 0;
  std::vector<ValueId> page_min, page_max;
  Page page(page_size);
  page.set_type(PageType::kDataVector);
  for (uint64_t first = 0; first < vids.size() || vids.empty();
       first += values_per_page) {
    uint64_t n =
        std::min<uint64_t>(values_per_page, vids.size() - first);
    ValueId mn = kInvalidValueId, mx = 0;
    for (uint64_t i = 0; i < n; ++i) {
      mn = std::min(mn, vids[first + i]);
      mx = std::max(mx, vids[first + i]);
    }
    page_min.push_back(n == 0 ? 0 : mn);
    page_max.push_back(n == 0 ? 0 : mx);
    uint32_t aux2 = 0;
    const uint32_t psize =
        CodecEncodePage(choice, vids.data() + first, n, page.payload(),
                        page.capacity(), &aux2);
    page.set_payload_size(psize);
    page.header()->aux = static_cast<uint32_t>(n);  // values on this page
    page.header()->aux2 = aux2;  // codec word (RLE run count / escape)
    auto r = file->AppendPage(&page);
    if (!r.ok()) return r.status();
    ++data_pages;
    payload_bytes += psize;
    if (vids.empty()) break;
  }
  RecordCodecBuild(choice.id, payload_bytes);

  // Persist the min/max summary in its own (small) chain.
  {
    PAYG_ASSIGN_OR_RETURN(
        auto sfile, storage->CreateNonCriticalChain(SummaryChainName(name), page_size));
    ChainByteWriter w(sfile.get());
    w.PutU64(data_pages);
    for (uint64_t p = 0; p < data_pages; ++p) {
      w.PutU32(page_min[p]);
      w.PutU32(page_max[p]);
    }
    PAYG_RETURN_IF_ERROR(w.Finish());
  }

  auto dv = std::unique_ptr<PagedDataVector>(new PagedDataVector());
  dv->name_ = name;
  dv->storage_ = storage;
  dv->row_count_ = vids.size();
  dv->codec_ = choice;
  dv->values_per_page_ = values_per_page;
  dv->data_pages_ = data_pages;
  dv->file_ = std::move(file);
  dv->cache_ = std::make_unique<PageCache>(dv->file_.get(), rm, pool);
  dv->summary_ = std::make_unique<LazyResource<PageSummary>>(
      rm, Disposition::kPagedAttribute, pool);
  return dv;
}

Result<std::unique_ptr<PagedDataVector>> PagedDataVector::Open(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name) {
  const uint32_t page_size = storage->options().page_size;
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->OpenChain(ChainName(name), page_size));
  Page meta(page_size);
  PAYG_RETURN_IF_ERROR(file->ReadPage(0, &meta));
  if (meta.type() != PageType::kMeta) {
    return Status::Corruption("data vector chain missing meta page");
  }
  auto dv = std::unique_ptr<PagedDataVector>(new PagedDataVector());
  dv->name_ = name;
  dv->storage_ = storage;
  DataVectorMeta parsed;
  PAYG_RETURN_IF_ERROR(
      ParseDataVectorMeta(meta.payload(), meta.payload_size(), &parsed));
  dv->codec_ = parsed.codec;
  dv->row_count_ = parsed.row_count;
  dv->values_per_page_ = parsed.values_per_page;
  dv->data_pages_ = file->page_count() - 1;
  dv->file_ = std::move(file);
  dv->cache_ = std::make_unique<PageCache>(dv->file_.get(), rm, pool);
  dv->summary_ = std::make_unique<LazyResource<PageSummary>>(
      rm, Disposition::kPagedAttribute, pool);
  return dv;
}

Result<const PageSummary*> PagedDataVector::PinSummary(
    PinnedResource* pin) {
  return summary_->Pin(pin, [this] { return LoadSummary(); });
}

Result<std::shared_ptr<PageSummary>> PagedDataVector::LoadSummary() const {
  PAYG_ASSIGN_OR_RETURN(
      auto sfile, storage_->OpenNonCriticalChain(SummaryChainName(name_),
                                      file_->page_size()));
  ChainByteReader r(sfile.get());
  auto s = std::make_shared<PageSummary>();
  uint64_t pages;
  PAYG_ASSIGN_OR_RETURN(pages, r.GetU64());
  // The count came off disk; bound it by what the chain can physically hold
  // (8 bytes per entry after the header) before reserving, or a corrupt
  // summary could demand terabytes in one reserve call.
  const uint64_t max_pages =
      sfile->page_count() * (sfile->page_size() / 8);
  if (pages > max_pages) {
    return Status::Corruption(
        "page summary claims " + std::to_string(pages) +
        " pages but its chain can hold at most " + std::to_string(max_pages));
  }
  s->min_vid.reserve(pages);
  s->max_vid.reserve(pages);
  for (uint64_t p = 0; p < pages; ++p) {
    PAYG_ASSIGN_OR_RETURN(uint32_t mn, r.GetU32());
    PAYG_ASSIGN_OR_RETURN(uint32_t mx, r.GetU32());
    s->min_vid.push_back(mn);
    s->max_vid.push_back(mx);
  }
  return s;
}

void PagedDataVector::Unload() {
  if (summary_ != nullptr) summary_->Unload();
  if (cache_ != nullptr) cache_->DropAll();
}

PagedDataVector::~PagedDataVector() { Unload(); }

PagedDataVectorIterator::~PagedDataVectorIterator() {
  const uint64_t native = codec_stats_.native;
  const uint64_t fallback = codec_stats_.fallback;
  if (native + fallback != 0) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* m_native = reg.counter("codec.kernel_native");
    static obs::Counter* m_fallback = reg.counter("codec.kernel_fallback");
    m_native->Add(native);
    m_fallback->Add(fallback);
    Bump(ctx_, &QueryStats::codec_native, native);
    Bump(ctx_, &QueryStats::codec_fallback, fallback);
  }
}

bool PagedDataVectorIterator::MayContain(RowPos rpos, ValueId lo,
                                         ValueId hi) {
  if (!use_summary_) return true;
  if (!summary_checked_) {
    summary_checked_ = true;
    auto s = dv_->PinSummary(&summary_pin_);
    if (s.ok()) summary_ = *s;
  }
  if (summary_ == nullptr) return true;  // no summary: no pruning
  uint64_t page_idx = rpos / dv_->values_per_page_;
  if (page_idx >= summary_->page_count()) return true;
  return summary_->MayContain(page_idx, lo, hi);
}

bool PagedDataVectorIterator::MayContainAny(
    RowPos rpos, const std::vector<ValueId>& sorted_vids) {
  if (!use_summary_) return true;
  if (!summary_checked_) {
    summary_checked_ = true;
    auto s = dv_->PinSummary(&summary_pin_);
    if (s.ok()) summary_ = *s;
  }
  if (summary_ == nullptr) return true;  // no summary: no pruning
  uint64_t page_idx = rpos / dv_->values_per_page_;
  if (page_idx >= summary_->page_count()) return true;
  auto it = std::lower_bound(sorted_vids.begin(), sorted_vids.end(),
                             summary_->min_vid[page_idx]);
  return it != sorted_vids.end() && *it <= summary_->max_vid[page_idx];
}

Status PagedDataVectorIterator::Reposition(RowPos rpos, bool sequential) {
  LogicalPageNo lpn = dv_->PageOfRow(rpos);
  if (lpn == current_lpn_ && current_.valid()) return Status::OK();
  // On a forward scan, keep the readahead window topped up before pinning
  // this page: the background loads then overlap with both this page's
  // (possible) synchronous load and its decode. Data pages are
  // 1..data_pages_.
  if (sequential) {
    readahead_.Advance(dv_->cache_.get(), lpn, current_lpn_, dv_->data_pages_,
                       ctx_);
  }
  // Pin the new page after releasing the handle to the previous page
  // (§3.1.2 "page reposition").
  current_.Release();
  current_lpn_ = kInvalidPageNo;
  auto ref = dv_->cache_->GetPage(lpn, ctx_);
  if (!ref.ok()) return ref.status();
  current_ = std::move(*ref);
  current_lpn_ = lpn;
  page_first_row_ = static_cast<RowPos>((lpn - 1) * dv_->values_per_page_);
  page_rows_ = current_.page().header()->aux;
  // The header's row count and codec word size every kernel access below;
  // both came off disk, so bound them before anything trusts them. A page
  // claiming more rows than the geometry allows would otherwise let the
  // packed kernels walk past its image (the RLE catalog checks live in
  // CodecValidatePage).
  if (page_rows_ > dv_->values_per_page_) {
    return Status::Corruption(
        "data page " + std::to_string(lpn) + " claims " +
        std::to_string(page_rows_) + " rows but the vector stores at most " +
        std::to_string(dv_->values_per_page_) + " per page");
  }
  // Codec view of the pinned page: the per-codec accessor every decode and
  // search below goes through (S22).
  view_.words = reinterpret_cast<const uint64_t*>(current_.page().payload());
  view_.n = page_rows_;
  view_.aux2 = current_.page().header()->aux2;
  view_.params = dv_->codec_.params;
  view_.kernels = nullptr;  // process-wide active SIMD tier
  PAYG_RETURN_IF_ERROR(CodecValidatePage(dv_->codec_.id, view_,
                                         current_.page().payload_size()));
  ++pages_touched_;
  return Status::OK();
}

Result<ValueId> PagedDataVectorIterator::Get(RowPos rpos) {
  if (rpos >= dv_->row_count_) return Status::OutOfRange("row position");
  PAYG_RETURN_IF_ERROR(Reposition(rpos));
  return CodecGetValue(dv_->codec_.id, view_, rpos - page_first_row_);
}

Status PagedDataVectorIterator::MGet(RowPos from, RowPos to,
                                     std::vector<ValueId>* out) {
  if (from > to || to > dv_->row_count_) return Status::OutOfRange("range");
  RowPos r = from;
  while (r < to) {
    PAYG_RETURN_IF_ERROR(Reposition(r, /*sequential=*/true));
    RowPos page_end = page_first_row_ + static_cast<RowPos>(page_rows_);
    RowPos stop = std::min(to, page_end);
    size_t old = out->size();
    out->resize(old + (stop - r));
    CodecMGet(dv_->codec_.id, view_, r - page_first_row_,
              stop - page_first_row_, out->data() + old, &codec_stats_);
    Bump(ctx_, &QueryStats::rows_scanned, stop - r);
    r = stop;
  }
  return Status::OK();
}

Status PagedDataVectorIterator::SearchRange(RowPos from, RowPos to, ValueId lo,
                                            ValueId hi,
                                            std::vector<RowPos>* out) {
  if (from > to || to > dv_->row_count_) return Status::OutOfRange("range");
  RowPos r = from;
  while (r < to) {
    // Skip pages whose [min,max] cannot overlap the predicate without
    // loading them (§3.3's summary pruning; summaries store raw vids, so
    // this early rejection works for every codec).
    if (!MayContain(r, lo, hi)) {
      RowPos page_end = static_cast<RowPos>(
          (r / dv_->values_per_page_ + 1) * dv_->values_per_page_);
      r = std::min(to, page_end);
      ++pages_pruned_;
      continue;
    }
    PAYG_RETURN_IF_ERROR(Reposition(r, /*sequential=*/true));
    RowPos page_end = page_first_row_ + static_cast<RowPos>(page_rows_);
    RowPos stop = std::min(to, page_end);
    CodecSearchRange(dv_->codec_.id, view_, r - page_first_row_,
                     stop - page_first_row_, lo, hi, r, out, &codec_stats_);
    Bump(ctx_, &QueryStats::rows_scanned, stop - r);
    r = stop;
  }
  return Status::OK();
}

Status PagedDataVectorIterator::SearchEq(RowPos from, RowPos to, ValueId vid,
                                         std::vector<RowPos>* out) {
  if (from > to || to > dv_->row_count_) return Status::OutOfRange("range");
  RowPos r = from;
  while (r < to) {
    if (!MayContain(r, vid, vid)) {
      RowPos page_end = static_cast<RowPos>(
          (r / dv_->values_per_page_ + 1) * dv_->values_per_page_);
      r = std::min(to, page_end);
      ++pages_pruned_;
      continue;
    }
    PAYG_RETURN_IF_ERROR(Reposition(r, /*sequential=*/true));
    RowPos page_end = page_first_row_ + static_cast<RowPos>(page_rows_);
    RowPos stop = std::min(to, page_end);
    CodecSearchEq(dv_->codec_.id, view_, r - page_first_row_,
                  stop - page_first_row_, vid, r, out, &codec_stats_);
    Bump(ctx_, &QueryStats::rows_scanned, stop - r);
    r = stop;
  }
  return Status::OK();
}

Status PagedDataVectorIterator::SearchIn(
    RowPos from, RowPos to, const std::vector<ValueId>& sorted_vids,
    std::vector<RowPos>* out) {
  if (from > to || to > dv_->row_count_) return Status::OutOfRange("range");
  if (sorted_vids.empty()) return Status::OK();
  RowPos r = from;
  while (r < to) {
    if (!MayContainAny(r, sorted_vids)) {
      RowPos page_end = static_cast<RowPos>(
          (r / dv_->values_per_page_ + 1) * dv_->values_per_page_);
      r = std::min(to, page_end);
      ++pages_pruned_;
      continue;
    }
    PAYG_RETURN_IF_ERROR(Reposition(r, /*sequential=*/true));
    RowPos page_end = page_first_row_ + static_cast<RowPos>(page_rows_);
    RowPos stop = std::min(to, page_end);
    CodecSearchIn(dv_->codec_.id, view_, r - page_first_row_,
                  stop - page_first_row_, sorted_vids, r, out,
                  &codec_stats_);
    Bump(ctx_, &QueryStats::rows_scanned, stop - r);
    r = stop;
  }
  return Status::OK();
}

Status PagedDataVectorIterator::SearchRowsRange(const std::vector<RowPos>& rows,
                                                ValueId lo, ValueId hi,
                                                std::vector<RowPos>* out) {
  for (RowPos r : rows) {
    auto vid = Get(r);
    if (!vid.ok()) return vid.status();
    uint64_t v = *vid;
    if (v - lo <= static_cast<uint64_t>(hi) - lo) out->push_back(r);
    Bump(ctx_, &QueryStats::rows_scanned);
  }
  return Status::OK();
}

}  // namespace payg
