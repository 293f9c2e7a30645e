#ifndef PAYG_CORE_COLUMN_STORE_H_
#define PAYG_CORE_COLUMN_STORE_H_

#include <map>
#include <memory>
#include <string>

#include "buffer/resource_manager.h"
#include "storage/storage_manager.h"
#include "table/table.h"

namespace payg {

// Configuration of a column store instance.
struct ColumnStoreOptions {
  // On-disk home for all page chains.
  std::string directory;
  StorageOptions storage;
  // Global memory budget in bytes (0 = unlimited). Exceeding it triggers
  // reactive eviction (§5).
  uint64_t memory_budget = 0;
  // Lower/upper limits of the paged pools (§5). upper == 0 disables the
  // proactive sweep.
  ResourceManager::Limits paged_pool_limits;
  ResourceManager::Limits cold_paged_pool_limits;
};

// The public entry point: a minimal in-memory column store with page
// loadable columns, modeled after the paper's description of SAP HANA's
// column store. Owns the storage manager (page persistence), the resource
// manager (memory accounting and eviction) and the table catalog.
//
// Typical use:
//   auto store = ColumnStore::Open(options);
//   Table* t = *(*store)->CreateTable(schema);
//   t->Insert(...); t->MergeAll();
//   auto result = t->SelectByValue("pk", Value("DOC000000000042"), {});
class ColumnStore {
 public:
  static Result<std::unique_ptr<ColumnStore>> Open(
      const ColumnStoreOptions& options);

  // Creates an empty table; fails if the name exists.
  Result<Table*> CreateTable(TableSchema schema);

  Result<Table*> GetTable(const std::string& name);

  // Removes a table from the catalog and releases its memory. (Backing
  // files are left on disk; a vacuum pass may remove them.)
  Status DropTable(const std::string& name);

  // Persists the catalog so the store can be re-opened later: runs the
  // delta merge on every table (delta fragments are memory-only), fsyncs
  // every chain written since the last checkpoint, and publishes schemas +
  // partition manifests as a new catalog (tmp file, fsync, rename,
  // directory fsync). The only durability point: a crash restores the last
  // checkpoint. Open() restores checkpointed tables automatically.
  Status Checkpoint();

  StorageManager& storage() { return *storage_; }
  ResourceManager& resource_manager() { return *rm_; }

  // Total bytes tracked by the resource manager — the "system memory
  // footprint" metric of §6.
  uint64_t MemoryFootprint() const { return rm_->total_bytes(); }

 private:
  // Restores checkpointed tables on Open (no-op for a fresh directory).
  Status LoadCatalog();

  explicit ColumnStore(std::unique_ptr<StorageManager> storage)
      : storage_(std::move(storage)),
        rm_(std::make_unique<ResourceManager>()) {}

  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace payg

#endif  // PAYG_CORE_COLUMN_STORE_H_
