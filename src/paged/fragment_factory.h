#ifndef PAYG_PAGED_FRAGMENT_FACTORY_H_
#define PAYG_PAGED_FRAGMENT_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "columnar/fragment.h"
#include "storage/storage_manager.h"

namespace payg {

// How a main fragment should be materialized. The loading behaviour of a
// column is chosen at creation time (§1): fully resident ("default") or
// page loadable.
struct FragmentSpec {
  bool page_loadable = false;
  bool with_index = false;
  // §8 (adaptive rebuild): when true, the inverted index — non-critical
  // data that can always be recovered from the data vector — is NOT built
  // during the delta merge. The fragment rebuilds and persists it lazily,
  // driven by the workload, on its first point lookup. Only meaningful for
  // page loadable fragments with with_index.
  bool defer_index = false;
  // Pool for the pages of a page loadable fragment; cold partitions use
  // kColdPagedPool (§4.1).
  PoolId pool = PoolId::kPagedPool;
};

// Builds and persists a main fragment from its sorted dictionary and the
// per-row vids, dispatching on spec.page_loadable. The data vector's codec
// comes from the selection pass (PAYG_FORCE_CODEC, then the per-column cost
// model, S22).
Result<std::unique_ptr<MainFragment>> BuildMainFragment(
    StorageManager* storage, ResourceManager* rm, const std::string& name,
    const ValueArray& sorted_dict, const std::vector<ValueId>& vids,
    const FragmentSpec& spec);

// Re-opens a previously persisted main fragment (catalog restart path).
// spec.page_loadable and spec.pool must match how it was built; the index
// mode is read from the fragment's own metadata.
Result<std::unique_ptr<MainFragment>> OpenMainFragment(
    StorageManager* storage, ResourceManager* rm, const std::string& name,
    const FragmentSpec& spec);

// Removes every page chain a fragment named `name` may have persisted
// (vacuum after a delta merge replaced it). Best effort: missing chains are
// ignored. The fragment object must already be destroyed.
void DropFragmentChains(StorageManager* storage, const std::string& name);

}  // namespace payg

#endif  // PAYG_PAGED_FRAGMENT_FACTORY_H_
