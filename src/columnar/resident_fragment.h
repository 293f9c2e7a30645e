#ifndef PAYG_COLUMNAR_RESIDENT_FRAGMENT_H_
#define PAYG_COLUMNAR_RESIDENT_FRAGMENT_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lazy_resource.h"
#include "buffer/resource_manager.h"
#include "columnar/dictionary.h"
#include "columnar/fragment.h"
#include "columnar/inverted_index.h"
#include "encoding/bit_packing.h"
#include "encoding/sparse_vector.h"
#include "storage/storage_manager.h"

namespace payg {

// Main fragment of a *default* (fully loadable) column: persisted as one
// page chain and always loaded entirely into memory on first access (§4.1
// "Default columns"). The whole fragment registers as a single resource with
// the resource manager; under memory pressure the weighted LRU may unload
// the entire column at once.
class FullyResidentFragment : public MainFragment {
 public:
  // Data-vector codec: uniform n-bit packing, or sparse encoding ([15],
  // §3.1) when one vid dominates the column. Chosen automatically at build
  // time and persisted.
  enum class Codec : uint8_t {
    kPacked = 0,
    kSparse = 1,
  };

  struct BuildStats {
    uint64_t persisted_bytes = 0;
  };

  // Persists a new fragment to chain `<name>.full` and returns it in the
  // *unloaded* state (first access pays the full-column load, as after a
  // cold start).
  static Result<std::unique_ptr<FullyResidentFragment>> Build(
      StorageManager* storage, ResourceManager* rm, const std::string& name,
      const ValueArray& sorted_dict, const std::vector<ValueId>& vids,
      bool with_index);

  // Re-opens a previously built fragment (reads only the meta header).
  static Result<std::unique_ptr<FullyResidentFragment>> Open(
      StorageManager* storage, ResourceManager* rm, const std::string& name);

  uint64_t row_count() const override { return row_count_; }
  uint64_t dict_size() const override { return dict_size_; }
  ValueType type() const override { return type_; }
  bool has_index() const override { return has_index_; }
  bool is_paged() const override { return false; }

  Result<std::unique_ptr<FragmentReader>> NewReader(
      ExecContext* ctx) override;
  using MainFragment::NewReader;
  void Unload() override;
  uint64_t ResidentBytes() const override;

  // Nanoseconds spent in the most recent full load (0 if never loaded).
  // Benchmarks report this against per-page load cost of paged columns.
  uint64_t last_load_nanos() const {
    return last_load_nanos_.load(std::memory_order_relaxed);
  }
  uint64_t load_count() const { return payload_.load_count(); }
  Codec codec() const { return codec_; }

 private:
  friend class ResidentReader;

  // The loaded column, registered as one resource. The data vector the
  // codec does not use stays empty, as does the index of a column without
  // one.
  struct Payload {
    Dictionary dict;
    PackedVector data;    // codec_ == kPacked
    SparseVector sparse;  // codec_ == kSparse
    InvertedIndex index;
    uint64_t bytes = 0;
    uint64_t MemoryBytes() const { return bytes; }
  };

  FullyResidentFragment(StorageManager* storage, ResourceManager* rm,
                        std::string name)
      : storage_(storage),
        name_(std::move(name)),
        payload_(rm, Disposition::kMidTerm, PoolId::kGeneral) {}

  // Reads the whole chain into a fresh payload.
  Result<std::shared_ptr<Payload>> LoadPayload();

  StorageManager* storage_;
  std::string name_;

  ValueType type_ = ValueType::kInt64;
  uint64_t row_count_ = 0;
  uint64_t dict_size_ = 0;
  uint32_t bits_ = 1;
  bool has_index_ = false;

  Codec codec_ = Codec::kPacked;

  std::atomic<uint64_t> last_load_nanos_{0};
  LazyResource<Payload> payload_;
};

}  // namespace payg

#endif  // PAYG_COLUMNAR_RESIDENT_FRAGMENT_H_
