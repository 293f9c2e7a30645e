#include "paged/paged_dictionary.h"

#include <algorithm>
#include <cstring>

#include "storage/byte_stream.h"

namespace payg {

namespace {

std::string DictChainName(const std::string& name) { return name + ".dict"; }
std::string HelperChainName(const std::string& name) {
  return name + ".dicthlp";
}

// Parses a dictionary page's transient block directory: (offset, length)
// of each value block.
std::vector<std::pair<uint32_t, uint32_t>> BlockDirectory(const Page& page) {
  PAYG_ASSERT(page.type() == PageType::kDictionary);
  const uint8_t* p = page.payload();
  uint32_t n_blocks;
  std::memcpy(&n_blocks, p, 4);
  std::vector<std::pair<uint32_t, uint32_t>> blocks;
  blocks.reserve(n_blocks);
  for (uint32_t b = 0; b < n_blocks; ++b) {
    uint32_t off, len;
    std::memcpy(&off, p + 4 + 8 * b, 4);
    std::memcpy(&len, p + 8 + 8 * b, 4);
    blocks.emplace_back(off, len);
  }
  return blocks;
}

// Accumulates finished value blocks into dictionary pages.
class DictPageComposer {
 public:
  DictPageComposer(PageFile* file, uint32_t page_size)
      : file_(file), page_(page_size) {}

  // Bytes a page with the current blocks plus one more of `len` would need.
  bool Fits(size_t len) const {
    size_t header = 4 + 8 * (blocks_.size() + 1);
    return header + blob_.size() + len <= page_.capacity();
  }

  bool empty() const { return blocks_.empty(); }

  void AddBlock(const std::vector<uint8_t>& block, ValueId first_vid,
                ValueId last_vid, const std::string& last_value) {
    if (blocks_.empty()) first_vid_ = first_vid;
    blocks_.emplace_back(static_cast<uint32_t>(blob_.size()),
                         static_cast<uint32_t>(block.size()));
    blob_.insert(blob_.end(), block.begin(), block.end());
    last_vid_ = last_vid;
    last_value_ = last_value;
  }

  // Writes the page; appends its (last_vid, last_value, lpn) to the helper
  // arrays.
  Status Flush(std::vector<ValueId>* helper_vids,
               std::vector<std::string>* helper_values,
               std::vector<LogicalPageNo>* helper_lpns) {
    PAYG_ASSERT(!blocks_.empty());
    uint8_t* p = page_.payload();
    uint32_t n = static_cast<uint32_t>(blocks_.size());
    std::memcpy(p, &n, 4);
    size_t pos = 4;
    const uint32_t blob_base = static_cast<uint32_t>(4 + 8 * blocks_.size());
    for (auto [off, len] : blocks_) {
      uint32_t abs_off = blob_base + off;
      std::memcpy(p + pos, &abs_off, 4);
      std::memcpy(p + pos + 4, &len, 4);
      pos += 8;
    }
    std::memcpy(p + pos, blob_.data(), blob_.size());
    page_.set_type(PageType::kDictionary);
    page_.set_payload_size(static_cast<uint32_t>(pos + blob_.size()));
    page_.header()->aux = n;
    page_.header()->aux2 = first_vid_;
    auto r = file_->AppendPage(&page_);
    if (!r.ok()) return r.status();
    helper_vids->push_back(last_vid_);
    helper_values->push_back(last_value_);
    helper_lpns->push_back(*r);
    blocks_.clear();
    blob_.clear();
    return Status::OK();
  }

 private:
  PageFile* file_;
  Page page_;
  std::vector<std::pair<uint32_t, uint32_t>> blocks_;
  std::vector<uint8_t> blob_;
  ValueId first_vid_ = 0;
  ValueId last_vid_ = 0;
  std::string last_value_;
};

}  // namespace

uint64_t PagedDictionary::Helpers::MemoryBytes() const {
  uint64_t bytes = last_vid.capacity() * sizeof(ValueId) +
                   lpn.capacity() * sizeof(LogicalPageNo) +
                   last_value.capacity() * sizeof(std::string);
  for (const std::string& s : last_value) bytes += s.capacity();
  return bytes;
}

Result<std::unique_ptr<PagedDictionary>> PagedDictionary::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, const std::vector<std::string>& sorted_values,
    const Options& options) {
  const uint32_t page_size = storage->options().dict_page_size;
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->CreateChain(DictChainName(name), page_size));

  // Overflow pieces use (almost) a full dictionary page each.
  const uint32_t piece_bytes =
      page_size - static_cast<uint32_t>(sizeof(PageHeader));
  // Cap the on-page suffix so a full 16-string block (plus entry overhead)
  // always fits a dictionary page.
  const uint32_t max_onpage = std::min(
      options.max_onpage_bytes, piece_bytes / (kStringsPerBlock + 2));

  Page overflow(page_size);
  OffpageWriter write_offpage =
      [&](std::string_view piece) -> Result<OffpageRef> {
    PAYG_ASSERT(piece.size() <= overflow.capacity());
    std::memcpy(overflow.payload(), piece.data(), piece.size());
    overflow.set_type(PageType::kDictOverflow);
    overflow.set_payload_size(static_cast<uint32_t>(piece.size()));
    auto r = file->AppendPage(&overflow);
    if (!r.ok()) return r.status();
    return static_cast<OffpageRef>(*r);
  };

  std::vector<ValueId> helper_vids;
  std::vector<std::string> helper_values;
  std::vector<LogicalPageNo> helper_lpns;
  DictPageComposer composer(file.get(), page_size);
  StringBlockBuilder block_builder(max_onpage, piece_bytes);

  ValueId block_first_vid = 0;
  std::string block_last_value;
  for (uint64_t i = 0; i < sorted_values.size(); ++i) {
    PAYG_RETURN_IF_ERROR(block_builder.Add(sorted_values[i], write_offpage));
    block_last_value = sorted_values[i];
    const bool last_value = i + 1 == sorted_values.size();
    if (block_builder.full() || last_value) {
      std::vector<uint8_t> block = block_builder.Finish();
      if (!composer.Fits(block.size())) {
        PAYG_RETURN_IF_ERROR(
            composer.Flush(&helper_vids, &helper_values, &helper_lpns));
        PAYG_ASSERT_MSG(composer.Fits(block.size()),
                        "value block exceeds dictionary page capacity");
      }
      composer.AddBlock(block, block_first_vid, static_cast<ValueId>(i),
                        block_last_value);
      block_first_vid = static_cast<ValueId>(i + 1);
    }
  }
  if (!composer.empty()) {
    PAYG_RETURN_IF_ERROR(
        composer.Flush(&helper_vids, &helper_values, &helper_lpns));
  }

  // Persist the helper dictionaries.
  {
    PAYG_ASSIGN_OR_RETURN(
        auto hfile,
        storage->CreateNonCriticalChain(HelperChainName(name), page_size));
    ChainByteWriter w(hfile.get(), PageType::kDictHelperValueId);
    w.PutU64(sorted_values.size());
    w.PutU64(helper_vids.size());
    for (uint64_t i = 0; i < helper_vids.size(); ++i) {
      w.PutU32(helper_vids[i]);
      w.PutU64(helper_lpns[i]);
      w.PutString(helper_values[i]);
    }
    PAYG_RETURN_IF_ERROR(w.Finish());
  }

  auto dict = std::unique_ptr<PagedDictionary>(new PagedDictionary());
  dict->name_ = name;
  dict->storage_ = storage;
  dict->dict_size_ = sorted_values.size();
  dict->dict_page_count_ = helper_lpns.size();
  dict->file_ = std::move(file);
  dict->cache_ = std::make_unique<PageCache>(dict->file_.get(), rm, pool);
  dict->helpers_ = std::make_unique<LazyResource<Helpers>>(
      rm, Disposition::kPagedAttribute, pool);
  return dict;
}

Result<std::unique_ptr<PagedDictionary>> PagedDictionary::Open(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name) {
  const uint32_t page_size = storage->options().dict_page_size;
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->OpenChain(DictChainName(name), page_size));
  // The dictionary size and page count come from the helper chain header.
  PAYG_ASSIGN_OR_RETURN(auto hfile,
                        storage->OpenNonCriticalChain(HelperChainName(name), page_size));
  ChainByteReader r(hfile.get());
  auto dict = std::unique_ptr<PagedDictionary>(new PagedDictionary());
  PAYG_ASSIGN_OR_RETURN(dict->dict_size_, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(dict->dict_page_count_, r.GetU64());
  dict->name_ = name;
  dict->storage_ = storage;
  dict->file_ = std::move(file);
  dict->cache_ = std::make_unique<PageCache>(dict->file_.get(), rm, pool);
  dict->helpers_ = std::make_unique<LazyResource<Helpers>>(
      rm, Disposition::kPagedAttribute, pool);
  return dict;
}

PagedDictionary::~PagedDictionary() { Unload(); }

Result<const PagedDictionary::Helpers*> PagedDictionary::PinHelpers(
    PinnedResource* pin) {
  return helpers_->Pin(pin, [this] { return LoadHelpers(); });
}

Result<std::shared_ptr<PagedDictionary::Helpers>>
PagedDictionary::LoadHelpers() const {
  // Pre-load the full helper chains (§3.2.3).
  PAYG_ASSIGN_OR_RETURN(
      auto hfile, storage_->OpenNonCriticalChain(HelperChainName(name_),
                                      storage_->options().dict_page_size));
  ChainByteReader r(hfile.get());
  auto h = std::make_shared<Helpers>();
  uint64_t dict_size, n_pages;
  PAYG_ASSIGN_OR_RETURN(dict_size, r.GetU64());
  PAYG_ASSIGN_OR_RETURN(n_pages, r.GetU64());
  (void)dict_size;
  h->last_vid.reserve(n_pages);
  h->lpn.reserve(n_pages);
  h->last_value.reserve(n_pages);
  for (uint64_t i = 0; i < n_pages; ++i) {
    PAYG_ASSIGN_OR_RETURN(uint32_t vid, r.GetU32());
    PAYG_ASSIGN_OR_RETURN(uint64_t lpn, r.GetU64());
    PAYG_ASSIGN_OR_RETURN(std::string value, r.GetString());
    h->last_vid.push_back(vid);
    h->lpn.push_back(lpn);
    h->last_value.push_back(std::move(value));
  }
  return h;
}

void PagedDictionary::Unload() {
  if (helpers_ != nullptr) helpers_->Unload();
  if (cache_ != nullptr) cache_->DropAll();
}

bool PagedDictionary::helpers_loaded() const {
  return helpers_->resident_bytes() != 0;
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

Result<const PagedDictionary::Helpers*> PagedDictionaryIterator::helpers() {
  if (helpers_cache_ == nullptr) {
    auto h = dict_->PinHelpers(&helpers_pin_);
    if (!h.ok()) return h.status();
    helpers_cache_ = *h;
  }
  return helpers_cache_;
}

Result<const PagedDictionaryIterator::PageView*>
PagedDictionaryIterator::GetDictPage(uint64_t ord) {
  auto it = handle_cache_.find(ord);
  if (it != handle_cache_.end()) return &it->second;

  PAYG_ASSIGN_OR_RETURN(auto h, helpers());
  PAYG_ASSERT(ord < h->lpn.size());
  auto ref = dict_->cache_->GetPage(h->lpn[ord], ctx_);
  if (!ref.ok()) return ref.status();
  ++pages_touched_;

  PageView view;
  view.ref = std::move(*ref);
  view.first_vid = ord == 0 ? 0 : h->last_vid[ord - 1] + 1;
  view.blocks = BlockDirectory(view.ref.page());
  auto [ins, ok] = handle_cache_.emplace(ord, std::move(view));
  PAYG_ASSERT(ok);
  return &ins->second;
}

Result<std::string> PagedDictionaryIterator::LoadOffpage(OffpageRef ref) {
  LogicalPageNo lpn = static_cast<LogicalPageNo>(ref);
  auto it = offpage_cache_.find(lpn);
  if (it == offpage_cache_.end()) {
    auto page = dict_->cache_->GetPage(lpn, ctx_);
    if (!page.ok()) return page.status();
    ++pages_touched_;
    it = offpage_cache_.emplace(lpn, std::move(*page)).first;
  }
  const Page& page = it->second.page();
  PAYG_ASSERT(page.type() == PageType::kDictOverflow);
  return std::string(reinterpret_cast<const char*>(page.payload()),
                     page.payload_size());
}

Status PagedDictionaryIterator::SearchValue(const std::string& value,
                                            ValueId* pos, bool* exact) {
  *exact = false;
  PAYG_ASSIGN_OR_RETURN(auto h, helpers());
  if (h->lpn.empty()) {
    *pos = 0;
    return Status::OK();
  }
  // Binary search ipDict_Value: first page whose last value >= probe.
  auto page_it = std::lower_bound(h->last_value.begin(), h->last_value.end(),
                                  value);
  if (page_it == h->last_value.end()) {
    *pos = static_cast<ValueId>(dict_->size());
    return Status::OK();
  }
  uint64_t ord = static_cast<uint64_t>(page_it - h->last_value.begin());

  PAYG_ASSIGN_OR_RETURN(const PageView* view, GetDictPage(ord));
  const Page& page = view->ref.page();
  OffpageLoader loader = [this](OffpageRef r) { return LoadOffpage(r); };

  // Binary search the transient block directory by each block's first
  // string (stored un-prefixed), then probe within the block.
  uint32_t lo = 0, hi = static_cast<uint32_t>(view->blocks.size());
  while (hi - lo > 1) {
    uint32_t mid = (lo + hi) / 2;
    StringBlockReader blk(page.payload() + view->blocks[mid].first,
                          view->blocks[mid].second);
    auto first = blk.GetString(0, loader);
    if (!first.ok()) return first.status();
    if (*first <= value) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  StringBlockReader blk(page.payload() + view->blocks[lo].first,
                        view->blocks[lo].second);
  uint32_t in_block;
  PAYG_RETURN_IF_ERROR(blk.Find(value, loader, &in_block, exact));
  *pos = view->first_vid + lo * kStringsPerBlock + in_block;
  return Status::OK();
}

Result<ValueId> PagedDictionaryIterator::FindByValue(
    const std::string& value) {
  ValueId pos;
  bool exact;
  PAYG_RETURN_IF_ERROR(SearchValue(value, &pos, &exact));
  return exact ? pos : kInvalidValueId;
}

Result<ValueId> PagedDictionaryIterator::LowerBound(const std::string& value) {
  ValueId pos;
  bool exact;
  PAYG_RETURN_IF_ERROR(SearchValue(value, &pos, &exact));
  return pos;
}

Result<ValueId> PagedDictionaryIterator::UpperBound(const std::string& value) {
  ValueId pos;
  bool exact;
  PAYG_RETURN_IF_ERROR(SearchValue(value, &pos, &exact));
  return exact ? pos + 1 : pos;
}

Result<std::string> PagedDictionaryIterator::FindByValueId(ValueId vid) {
  if (vid >= dict_->size()) return Status::OutOfRange("value id");
  PAYG_ASSIGN_OR_RETURN(auto h, helpers());
  // Binary search ipDict_ValueId: first page whose last vid >= probe.
  auto it = std::lower_bound(h->last_vid.begin(), h->last_vid.end(), vid);
  PAYG_ASSERT(it != h->last_vid.end());
  uint64_t ord = static_cast<uint64_t>(it - h->last_vid.begin());

  PAYG_ASSIGN_OR_RETURN(const PageView* view, GetDictPage(ord));
  uint32_t rel = vid - view->first_vid;
  uint32_t block = rel / kStringsPerBlock;
  uint32_t slot = rel % kStringsPerBlock;
  PAYG_ASSERT(block < view->blocks.size());
  StringBlockReader blk(view->ref.page().payload() + view->blocks[block].first,
                        view->blocks[block].second);
  OffpageLoader loader = [this](OffpageRef r) { return LoadOffpage(r); };
  return blk.GetString(slot, loader);
}

Status PagedDictionaryIterator::MGetValues(ValueId from, ValueId to,
                                           std::vector<std::string>* out) {
  if (from > to || to > dict_->size()) {
    return Status::OutOfRange("value id range");
  }
  if (from == to) return Status::OK();
  PAYG_ASSIGN_OR_RETURN(auto h, helpers());
  OffpageLoader loader = [this](OffpageRef r) { return LoadOffpage(r); };
  out->reserve(out->size() + (to - from));
  // ipDict_ValueId: the first page whose last vid >= from.
  for (auto it = std::lower_bound(h->last_vid.begin(), h->last_vid.end(), from);
       it != h->last_vid.end(); ++it) {
    const uint64_t ord = static_cast<uint64_t>(it - h->last_vid.begin());
    const ValueId page_first = ord == 0 ? 0 : h->last_vid[ord - 1] + 1;
    if (page_first >= to) break;
    auto ref = dict_->cache_->GetPage(h->lpn[ord], ctx_);
    if (!ref.ok()) return ref.status();
    ++pages_touched_;
    const Page& page = ref->page();
    const auto blocks = BlockDirectory(page);
    // Every block but the dictionary's last holds 16 strings, so the first
    // wanted block is arithmetic.
    for (size_t b = (std::max(from, page_first) - page_first) /
                    kStringsPerBlock;
         b < blocks.size(); ++b) {
      const ValueId block_first =
          page_first + static_cast<ValueId>(b) * kStringsPerBlock;
      if (block_first >= to) break;
      StringBlockReader blk(page.payload() + blocks[b].first,
                            blocks[b].second);
      const ValueId lo = std::max(from, block_first);
      const ValueId hi = std::min<ValueId>(to, block_first + blk.count());
      PAYG_RETURN_IF_ERROR(
          blk.GetStrings(lo - block_first, hi - block_first, loader, out));
    }
  }
  return Status::OK();
}

}  // namespace payg
