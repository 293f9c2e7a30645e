#include "paged/paged_inverted_index.h"

#include <algorithm>
#include <cstring>

#include "columnar/inverted_index.h"

namespace payg {

namespace {

std::string ChainName(const std::string& name) { return name + ".idx"; }

// Pure postinglist/directory page layout: u32 count, u32 pad, packed words
// at payload offset 8, with 8 spare bytes for the kernels' window overread.
constexpr uint32_t kPureHeaderBytes = 8;
constexpr uint32_t kSpareBytes = 8;
// Mixed page: u32 pl_count, u32 dir_count, u32 dir_off, u32 pad; the
// postinglist block at offset 16, the directory block at dir_off.
constexpr uint32_t kMixedHeaderBytes = 16;

uint64_t ValuesPerPurePage(uint32_t payload_capacity, uint32_t bits) {
  return kChunkValues *
         ((payload_capacity - kPureHeaderBytes - kSpareBytes) /
          ChunkBytes(bits));
}

// Serializes `values[from, from+n)` as n-bit chunks at `dst`.
template <typename T>
void PackBlock(const T* values, uint64_t n, uint32_t bits, uint8_t* dst) {
  uint64_t* words = reinterpret_cast<uint64_t*>(dst);
  uint64_t chunk_words = CeilDiv(n, kChunkValues) * ChunkWords(bits);
  std::memset(dst, 0, chunk_words * sizeof(uint64_t));
  for (uint64_t i = 0; i < n; ++i) {
    PackedSet(words, bits, i, static_cast<uint64_t>(values[i]));
  }
}

}  // namespace

Result<std::unique_ptr<PagedInvertedIndex>> PagedInvertedIndex::Build(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name, const std::vector<ValueId>& vids,
    uint64_t dict_size) {
  const uint32_t page_size = storage->options().page_size;
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->CreateNonCriticalChain(ChainName(name), page_size));

  InvertedIndex mem = InvertedIndex::Build(vids, dict_size);
  const auto& postinglist = mem.postinglist();
  const uint64_t total = postinglist.size();

  auto idx = std::unique_ptr<PagedInvertedIndex>(new PagedInvertedIndex());
  idx->unique_ = mem.unique();
  idx->posting_count_ = total;
  idx->dict_size_ = dict_size;
  idx->bits_pos_ = BitsNeeded(total == 0 ? 0 : total - 1);
  idx->bits_off_ = BitsNeeded(total);

  Page page(page_size);
  const uint32_t cap = page.capacity();
  idx->pl_per_page_ = ValuesPerPurePage(cap, idx->bits_pos_);
  PAYG_ASSERT_MSG(idx->pl_per_page_ > 0, "page too small for one chunk");
  const uint64_t dir_needed = idx->unique_ ? 0 : dict_size + 1;
  const uint64_t dir_per_page = ValuesPerPurePage(cap, idx->bits_off_);

  // Reserve meta page 0; filled in at the end.
  {
    Page meta(page_size);
    meta.set_type(PageType::kMeta);
    meta.set_payload_size(0);
    auto r = file->AppendPage(&meta);
    if (!r.ok()) return r.status();
  }

  const uint64_t full_pl_pages = total / idx->pl_per_page_;
  const uint64_t rem = total % idx->pl_per_page_;

  // Pure postinglist pages.
  auto write_pure = [&](PageType type, const auto* values, uint64_t n,
                        uint32_t bits) -> Status {
    std::memset(page.payload(), 0, cap);
    uint32_t count = static_cast<uint32_t>(n);
    std::memcpy(page.payload(), &count, 4);
    PackBlock(values, n, bits, page.payload() + kPureHeaderBytes);
    page.set_type(type);
    page.set_payload_size(static_cast<uint32_t>(
        kPureHeaderBytes + CeilDiv(n, kChunkValues) * ChunkBytes(bits) +
        kSpareBytes));
    auto r = file->AppendPage(&page);
    return r.ok() ? Status::OK() : r.status();
  };

  for (uint64_t p = 0; p < full_pl_pages; ++p) {
    PAYG_RETURN_IF_ERROR(write_pure(PageType::kIndexPostinglist,
                                    postinglist.data() + p * idx->pl_per_page_,
                                    idx->pl_per_page_, idx->bits_pos_));
  }
  idx->pl_pages_ = full_pl_pages;

  uint64_t dir_written = 0;
  if (idx->unique_) {
    // Unique column: no directory (§3.3.1). A trailing partial pure page
    // absorbs the remainder.
    if (rem > 0) {
      PAYG_RETURN_IF_ERROR(
          write_pure(PageType::kIndexPostinglist,
                     postinglist.data() + full_pl_pages * idx->pl_per_page_,
                     rem, idx->bits_pos_));
      ++idx->pl_pages_;
    }
  } else {
    const auto& directory = mem.directory();
    if (rem > 0) {
      // Mixed page: trailing postinglist block followed by the first
      // directory block.
      std::memset(page.payload(), 0, cap);
      const uint64_t pl_block_bytes =
          CeilDiv(rem, kChunkValues) * ChunkBytes(idx->bits_pos_);
      const uint32_t dir_off = static_cast<uint32_t>(
          kMixedHeaderBytes + pl_block_bytes + kSpareBytes);
      uint64_t dir_space =
          cap > dir_off + kSpareBytes ? cap - dir_off - kSpareBytes : 0;
      const uint64_t v_first = std::min<uint64_t>(
          dir_needed,
          kChunkValues * (dir_space / ChunkBytes(idx->bits_off_)));
      uint32_t pl_count = static_cast<uint32_t>(rem);
      uint32_t dir_count = static_cast<uint32_t>(v_first);
      std::memcpy(page.payload(), &pl_count, 4);
      std::memcpy(page.payload() + 4, &dir_count, 4);
      std::memcpy(page.payload() + 8, &dir_off, 4);
      PackBlock(postinglist.data() + full_pl_pages * idx->pl_per_page_, rem,
                idx->bits_pos_, page.payload() + kMixedHeaderBytes);
      if (v_first > 0) {
        PackBlock(directory.data(), v_first, idx->bits_off_,
                  page.payload() + dir_off);
      }
      page.set_type(PageType::kIndexMixed);
      page.set_payload_size(static_cast<uint32_t>(std::min<uint64_t>(
          cap,
          dir_off + CeilDiv(v_first, kChunkValues) *
                        ChunkBytes(idx->bits_off_) +
              kSpareBytes)));
      auto r = file->AppendPage(&page);
      if (!r.ok()) return r.status();
      idx->mixed_lpn_ = *r;
      idx->v_first_ = v_first;
      dir_written = v_first;
    }
    idx->v_page_ = dir_per_page;
    // Remaining directory entries on pure directory pages.
    bool first_dir_page = idx->mixed_lpn_ == kInvalidPageNo;
    while (dir_written < dir_needed) {
      uint64_t n =
          std::min<uint64_t>(dir_per_page, dir_needed - dir_written);
      PAYG_RETURN_IF_ERROR(write_pure(PageType::kIndexDirectory,
                                      directory.data() + dir_written, n,
                                      idx->bits_off_));
      if (first_dir_page) {
        idx->dir_first_lpn_ = file->page_count() - 1;
        idx->v_first_ = n;
        first_dir_page = false;
      }
      dir_written += n;
    }
  }

  // Write the meta page (page 0) now that the layout is known.
  {
    Page meta(page_size);
    meta.set_type(PageType::kMeta);
    uint8_t* p = meta.payload();
    uint64_t fields[10] = {
        idx->unique_ ? 1u : 0u, idx->bits_pos_,   idx->bits_off_,
        idx->posting_count_,    idx->dict_size_,  idx->pl_per_page_,
        idx->pl_pages_,         idx->mixed_lpn_,  idx->v_first_,
        idx->v_page_};
    std::memcpy(p, fields, sizeof(fields));
    std::memcpy(p + sizeof(fields), &idx->dir_first_lpn_,
                sizeof(idx->dir_first_lpn_));
    meta.set_payload_size(sizeof(fields) + sizeof(idx->dir_first_lpn_));
    PAYG_RETURN_IF_ERROR(file->WritePage(0, &meta));
  }

  idx->file_ = std::move(file);
  idx->cache_ = std::make_unique<PageCache>(idx->file_.get(), rm, pool);
  return idx;
}

Result<std::unique_ptr<PagedInvertedIndex>> PagedInvertedIndex::Open(
    StorageManager* storage, ResourceManager* rm, PoolId pool,
    const std::string& name) {
  const uint32_t page_size = storage->options().page_size;
  PAYG_ASSIGN_OR_RETURN(auto file,
                        storage->OpenNonCriticalChain(ChainName(name), page_size));
  Page meta(page_size);
  PAYG_RETURN_IF_ERROR(file->ReadPage(0, &meta));
  if (meta.type() != PageType::kMeta) {
    return Status::Corruption("inverted index chain missing meta page");
  }
  auto idx = std::unique_ptr<PagedInvertedIndex>(new PagedInvertedIndex());
  uint64_t fields[10];
  const uint8_t* p = meta.payload();
  std::memcpy(fields, p, sizeof(fields));
  std::memcpy(&idx->dir_first_lpn_, p + sizeof(fields),
              sizeof(idx->dir_first_lpn_));
  idx->unique_ = fields[0] != 0;
  idx->bits_pos_ = static_cast<uint32_t>(fields[1]);
  idx->bits_off_ = static_cast<uint32_t>(fields[2]);
  idx->posting_count_ = fields[3];
  idx->dict_size_ = fields[4];
  idx->pl_per_page_ = fields[5];
  idx->pl_pages_ = fields[6];
  idx->mixed_lpn_ = fields[7];
  idx->v_first_ = fields[8];
  idx->v_page_ = fields[9];
  idx->file_ = std::move(file);
  idx->cache_ = std::make_unique<PageCache>(idx->file_.get(), rm, pool);
  return idx;
}

Result<uint64_t> PagedIndexIterator::ReadDirEntry(uint64_t k) {
  PAYG_ASSERT(!index_->unique_);
  PAYG_ASSERT(k <= index_->dict_size_);
  // Eq. (1): b is the mixed page when it exists, else the first directory
  // page.
  const bool has_mixed = index_->mixed_lpn_ != kInvalidPageNo;
  const LogicalPageNo b =
      has_mixed ? index_->mixed_lpn_ : index_->dir_first_lpn_;
  LogicalPageNo lpn;
  uint64_t slot;
  if (k < index_->v_first_) {
    lpn = b;
    slot = k;
  } else {
    lpn = b + 1 + (k - index_->v_first_) / index_->v_page_;  // Eq. (1)
    slot = (k - index_->v_first_) % index_->v_page_;          // Eq. (2)
  }
  if (lpn != dir_lpn_ || !dir_page_.valid()) {
    dir_page_.Release();
    dir_lpn_ = kInvalidPageNo;
    auto ref = index_->cache_->GetPage(lpn, ctx_);
    if (!ref.ok()) return ref.status();
    dir_page_ = std::move(*ref);
    dir_lpn_ = lpn;
    ++pages_touched_;
  }
  const Page& page = dir_page_.page();
  const uint8_t* block;
  if (page.type() == PageType::kIndexMixed) {
    uint32_t dir_off;
    std::memcpy(&dir_off, page.payload() + 8, 4);
    block = page.payload() + dir_off;
  } else {
    PAYG_ASSERT(page.type() == PageType::kIndexDirectory);
    block = page.payload() + 8;
  }
  return PackedGet(reinterpret_cast<const uint64_t*>(block),
                   index_->bits_off_, slot);
}

Result<RowPos> PagedIndexIterator::ReadPosting(uint64_t j) {
  PAYG_ASSERT(j < index_->posting_count_);
  const uint64_t pure_capacity = index_->pl_pages_ * index_->pl_per_page_;
  LogicalPageNo lpn;
  uint64_t slot;
  uint32_t data_off;
  if (j < pure_capacity) {
    lpn = 1 + j / index_->pl_per_page_;
    slot = j % index_->pl_per_page_;
    data_off = 8;
  } else {
    PAYG_ASSERT(index_->mixed_lpn_ != kInvalidPageNo);
    lpn = index_->mixed_lpn_;
    slot = j - pure_capacity;
    data_off = 16;
  }
  if (lpn != pl_lpn_ || !pl_page_.valid()) {
    // The walk over the current vid's postings is strictly forward; keep a
    // window over the pages it will still need topped up before the
    // synchronous pin below. Those are the postinglist pages up to the one
    // holding the vid's last posting — the mixed page directly follows the
    // full postinglist pages — and never the directory.
    const uint64_t last = end_ - 1;
    readahead_.Advance(index_->cache_.get(), lpn, pl_lpn_,
                       last < pure_capacity ? 1 + last / index_->pl_per_page_
                                            : index_->mixed_lpn_,
                       ctx_);
    pl_page_.Release();
    pl_lpn_ = kInvalidPageNo;
    auto ref = index_->cache_->GetPage(lpn, ctx_);
    if (!ref.ok()) return ref.status();
    pl_page_ = std::move(*ref);
    pl_lpn_ = lpn;
    ++pages_touched_;
  }
  const uint8_t* block = pl_page_.page().payload() + data_off;
  return static_cast<RowPos>(PackedGet(
      reinterpret_cast<const uint64_t*>(block), index_->bits_pos_, slot));
}

Result<RowPos> PagedIndexIterator::GetFirstRowPos(ValueId vid) {
  if (vid >= index_->dict_size_) return Status::OutOfRange("value id");
  if (index_->unique_) {
    cursor_ = vid;
    end_ = vid + 1;
  } else {
    PAYG_ASSIGN_OR_RETURN(cursor_, ReadDirEntry(vid));
    PAYG_ASSIGN_OR_RETURN(end_, ReadDirEntry(vid + 1));
    if (cursor_ == end_) return Status::NotFound("vid has no postings");
  }
  return GetNextRowPos();
}

Result<uint64_t> PagedIndexIterator::CountPostings(ValueId vid) {
  if (vid >= index_->dict_size_) return Status::OutOfRange("value id");
  if (index_->unique_) return uint64_t{1};
  PAYG_ASSIGN_OR_RETURN(const uint64_t first, ReadDirEntry(vid));
  PAYG_ASSIGN_OR_RETURN(const uint64_t end, ReadDirEntry(vid + 1));
  return end - first;
}

Result<RowPos> PagedIndexIterator::GetNextRowPos() {
  PAYG_ASSERT_MSG(HasNext(), "getNextRowPos past the end");
  return ReadPosting(cursor_++);
}

Status PagedIndexIterator::Lookup(ValueId vid, std::vector<RowPos>* out) {
  auto first = GetFirstRowPos(vid);
  if (!first.ok()) {
    return first.status().IsNotFound() ? Status::OK() : first.status();
  }
  out->push_back(*first);
  while (HasNext()) {
    auto next = GetNextRowPos();
    if (!next.ok()) return next.status();
    out->push_back(*next);
  }
  return Status::OK();
}

}  // namespace payg
