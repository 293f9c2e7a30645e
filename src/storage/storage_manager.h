#ifndef PAYG_STORAGE_STORAGE_MANAGER_H_
#define PAYG_STORAGE_STORAGE_MANAGER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "storage/page_file.h"
#include "storage/storage_options.h"

namespace payg {

// Owns the on-disk home of a column store: a directory under which every
// persisted structure (data vector, dictionary, helper index, inverted
// index) gets its own page chain file. Page traffic is counted process-wide
// in the metrics registry ("storage.read.*" / "storage.write.*").
class StorageManager {
 public:
  // Creates the directory if needed.
  static Result<std::unique_ptr<StorageManager>> Open(
      const std::string& directory, const StorageOptions& opts);

  // Creates a fresh page chain named `name` (e.g. "col_42.datavector").
  // Replaces any existing chain of that name.
  Result<std::unique_ptr<PageFile>> CreateChain(const std::string& name,
                                                uint32_t page_size);

  // Re-opens an existing chain.
  Result<std::unique_ptr<PageFile>> OpenChain(const std::string& name,
                                              uint32_t page_size);

  // Creates/opens a chain holding non-critical (rebuildable) data. With
  // scm_for_noncritical set, reads from it pay the SCM latency instead of
  // the disk latency (§8).
  Result<std::unique_ptr<PageFile>> CreateNonCriticalChain(
      const std::string& name, uint32_t page_size);
  Result<std::unique_ptr<PageFile>> OpenNonCriticalChain(
      const std::string& name, uint32_t page_size);

  // Removes a chain's backing file (e.g. after a delta merge replaced it).
  Status DropChain(const std::string& name);

  const StorageOptions& options() const { return opts_; }
  const std::string& directory() const { return directory_; }

  // Adjust the simulated read latency for chains created/opened after this
  // call (benchmarks flip this between cold and hot phases).
  void set_simulated_read_latency_us(uint32_t us) {
    opts_.simulated_read_latency_us = us;
  }

 private:
  StorageManager(std::string directory, const StorageOptions& opts)
      : directory_(std::move(directory)), opts_(opts) {}

  std::string PathFor(const std::string& name) const;

  std::string directory_;
  StorageOptions opts_;
};

}  // namespace payg

#endif  // PAYG_STORAGE_STORAGE_MANAGER_H_
