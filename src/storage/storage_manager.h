#ifndef PAYG_STORAGE_STORAGE_MANAGER_H_
#define PAYG_STORAGE_STORAGE_MANAGER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/page_file.h"
#include "storage/storage_options.h"

namespace payg {

// Owns the on-disk home of a column store: a directory under which every
// persisted structure (data vector, dictionary, helper index, inverted
// index) gets its own page chain file. Page traffic is counted process-wide
// in the metrics registry ("storage.read.*" / "storage.write.*").
//
// Writing a chain never fsyncs it. The manager remembers every chain
// created since the last SyncChains(), and a checkpoint makes them durable
// in one pass before it publishes a catalog that names them.
class StorageManager {
 public:
  // Creates the directory if needed.
  static Result<std::unique_ptr<StorageManager>> Open(
      const std::string& directory, const StorageOptions& opts);

  // Creates a fresh page chain named `name` (e.g. "col_42.datavector").
  // Replaces any existing chain of that name. The chain stays unsynced
  // until the next SyncChains() or PublishChain().
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

  // Removes a chain's backing file (e.g. after a delta merge replaced it)
  // and forgets it as unsynced.
  Status DropChain(const std::string& name);

  // Makes every chain created since the last call durable: fsyncs each
  // one that still exists, then the directory.
  Status SyncChains() EXCLUDES(mu_);

  // Durably replaces chain `to` with chain `from`: fsyncs `from`, renames
  // it over `to`, then fsyncs the directory. A crash leaves either the old
  // `to` or the new one, never a torn one.
  Status PublishChain(const std::string& from, const std::string& to)
      EXCLUDES(mu_);

  // Chains created and not yet synced, sorted by name.
  std::vector<std::string> UnsyncedChains() const EXCLUDES(mu_);

  const StorageOptions& options() const { return opts_; }
  const std::string& directory() const { return directory_; }

  // Adjust the simulated read latency for chains created/opened after this
  // call (benchmarks flip this between cold and hot phases).
  void set_simulated_read_latency_us(uint32_t us) {
    opts_.simulated_read_latency_us = us;
  }

 private:
  StorageManager(std::string directory, const StorageOptions& opts)
      : directory_(std::move(directory)),
        opts_(opts),
        m_sync_files_(
            obs::MetricsRegistry::Global().counter("storage.sync.files")) {}

  std::string PathFor(const std::string& name) const;
  void NoteCreated(const std::string& name) EXCLUDES(mu_);
  // fsyncs the file or directory at `path`; NotFound if it is gone.
  Status SyncPath(const std::string& path);

  std::string directory_;
  StorageOptions opts_;
  obs::Counter* m_sync_files_;

  // A deferred index rebuild creates a chain from a query thread.
  mutable Mutex mu_;
  std::set<std::string> unsynced_ GUARDED_BY(mu_);
};

}  // namespace payg

#endif  // PAYG_STORAGE_STORAGE_MANAGER_H_
