#ifndef PAYG_PAGED_PAGED_FRAGMENT_H_
#define PAYG_PAGED_PAGED_FRAGMENT_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

#include "buffer/resource_manager.h"
#include "columnar/fragment.h"
#include "paged/paged_data_vector.h"
#include "paged/paged_dictionary.h"
#include "paged/paged_inverted_index.h"
#include "paged/paged_numeric_dictionary.h"

namespace payg {

// Main fragment of a *page loadable* column: its data vector, dictionary and
// optional inverted index are all loaded and evicted one page at a time.
//
// String columns use the paged dictionary of §3.2. Int64 and double columns
// use the paged numeric dictionary: strided frame-of-reference pages of
// order-preserving keys, whose fence sits in the fragment's meta chain.
class PagedFragment : public MainFragment {
 public:
  // How the optional inverted index is materialized.
  enum class IndexMode : uint8_t {
    kNone = 0,      // never build one
    kEager = 1,     // built during Build/delta merge (classic behaviour)
    kDeferred = 2,  // §8: rebuilt lazily from the data vector, driven by
                    // the query workload
  };

  static Result<std::unique_ptr<PagedFragment>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const ValueArray& sorted_dict,
      const std::vector<ValueId>& vids, bool with_index) {
    return Build(storage, rm, pool, name, sorted_dict, vids,
                 with_index ? IndexMode::kEager : IndexMode::kNone,
                 /*index_build_threshold=*/1);
  }

  // `codec` pins the data vector's storage codec; kAuto defers to
  // PAYG_FORCE_CODEC and then the cost model (S22 selection pass).
  static Result<std::unique_ptr<PagedFragment>> Build(
      StorageManager* storage, ResourceManager* rm, PoolId pool,
      const std::string& name, const ValueArray& sorted_dict,
      const std::vector<ValueId>& vids, IndexMode index_mode,
      uint32_t index_build_threshold,
      CodecForce codec = CodecForce::kAuto);

  static Result<std::unique_ptr<PagedFragment>> Open(StorageManager* storage,
                                                     ResourceManager* rm,
                                                     PoolId pool,
                                                     const std::string& name);

  ~PagedFragment() override { Unload(); }

  uint64_t row_count() const override { return row_count_; }
  uint64_t dict_size() const override { return dict_size_; }
  ValueType type() const override { return type_; }
  bool has_index() const override {
    MutexLock lock(index_mu_);
    return index_ != nullptr;
  }
  bool is_paged() const override { return true; }
  const char* codec_name() const override {
    return CodecName(data_->codec_id());
  }

  IndexMode index_mode() const { return index_mode_; }
  // FindRows calls served so far (drives the deferred rebuild decision).
  uint64_t point_lookup_count() const { return point_lookups_.load(); }

  // §8: rebuilds the inverted index from the paged data vector and persists
  // it, exactly as the delta merge would have. Idempotent; called
  // automatically by readers once the lookup threshold is reached.
  Status RebuildIndexNow();

  Result<std::unique_ptr<FragmentReader>> NewReader(
      ExecContext* ctx) override;
  using MainFragment::NewReader;
  void AddRowPages(const std::vector<RowPos>& rows,
                   std::vector<PageLoad>* out) override;
  void Unload() override;
  uint64_t ResidentBytes() const override;

  PagedNumericDictionary* numeric_dictionary() { return num_dict_.get(); }

 private:
  friend class PagedReader;

  PagedFragment() = default;

  std::string name_;
  StorageManager* storage_ = nullptr;
  ResourceManager* rm_ = nullptr;
  PoolId pool_ = PoolId::kPagedPool;
  ValueType type_ = ValueType::kInt64;
  uint64_t row_count_ = 0;
  uint64_t dict_size_ = 0;

  // Called by readers on every FindRows; triggers the deferred rebuild.
  Status MaybeRebuildIndex();
  // Index access for readers under the deferred regime (may be null).
  PagedInvertedIndex* index() const {
    MutexLock lock(index_mu_);
    return index_.get();
  }

  std::unique_ptr<PagedDataVector> data_;
  std::unique_ptr<PagedDictionary> dict_;    // string columns
  std::unique_ptr<PagedNumericDictionary> num_dict_;  // int64/double columns
  // index_mu_ guards the deferred-rebuild publication of the index; the
  // PagedInvertedIndex object itself is internally thread-safe once built.
  mutable Mutex index_mu_;
  std::unique_ptr<PagedInvertedIndex> index_ GUARDED_BY(index_mu_);
  IndexMode index_mode_ = IndexMode::kNone;
  uint32_t index_build_threshold_ = 1;
  std::atomic<uint64_t> point_lookups_{0};
};

}  // namespace payg

#endif  // PAYG_PAGED_PAGED_FRAGMENT_H_
