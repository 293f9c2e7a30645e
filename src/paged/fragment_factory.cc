#include "paged/fragment_factory.h"

#include "columnar/resident_fragment.h"
#include "paged/paged_fragment.h"

namespace payg {

Result<std::unique_ptr<MainFragment>> BuildMainFragment(
    StorageManager* storage, ResourceManager* rm, const std::string& name,
    const ValueArray& sorted_dict, const std::vector<ValueId>& vids,
    const FragmentSpec& spec) {
  if (spec.page_loadable) {
    PagedFragment::IndexMode mode =
        !spec.with_index ? PagedFragment::IndexMode::kNone
        : spec.defer_index ? PagedFragment::IndexMode::kDeferred
                           : PagedFragment::IndexMode::kEager;
    auto frag = PagedFragment::Build(storage, rm, spec.pool, name, sorted_dict,
                                     vids, mode, /*index_build_threshold=*/1);
    if (!frag.ok()) return frag.status();
    return std::unique_ptr<MainFragment>(std::move(*frag));
  }
  auto frag = FullyResidentFragment::Build(storage, rm, name, sorted_dict,
                                           vids, spec.with_index);
  if (!frag.ok()) return frag.status();
  return std::unique_ptr<MainFragment>(std::move(*frag));
}

Result<std::unique_ptr<MainFragment>> OpenMainFragment(
    StorageManager* storage, ResourceManager* rm, const std::string& name,
    const FragmentSpec& spec) {
  if (spec.page_loadable) {
    auto frag = PagedFragment::Open(storage, rm, spec.pool, name);
    if (!frag.ok()) return frag.status();
    return std::unique_ptr<MainFragment>(std::move(*frag));
  }
  auto frag = FullyResidentFragment::Open(storage, rm, name);
  if (!frag.ok()) return frag.status();
  return std::unique_ptr<MainFragment>(std::move(*frag));
}

void DropFragmentChains(StorageManager* storage, const std::string& name) {
  static const char* kSuffixes[] = {".full",    ".pmeta", ".dv",
                                    ".dvsum",   ".dict",  ".dicthlp",
                                    ".ndict",   ".idx"};
  for (const char* suffix : kSuffixes) {
    // Best-effort cleanup: a fragment never creates every chain kind, so
    // NotFound is the common case and nothing actionable hides in the rest.
    (void)storage->DropChain(name + suffix);  // analyzer:allow(status-swallow)
  }
}

}  // namespace payg
