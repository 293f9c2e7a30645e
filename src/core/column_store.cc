#include "core/column_store.h"

#include <filesystem>

#include "obs/stats_dumper.h"
#include "storage/byte_stream.h"

namespace payg {

namespace {

constexpr char kCatalogChain[] = "__catalog__";
// The next catalog, written whole and synced before it is renamed over the
// current one.
constexpr char kCatalogTmpChain[] = "__catalog__.tmp";

void WriteSchema(ChainByteWriter* w, const TableSchema& schema) {
  w->PutString(schema.name);
  w->PutI64(schema.temperature_column);
  w->PutU32(static_cast<uint32_t>(schema.columns.size()));
  for (const ColumnSchema& c : schema.columns) {
    w->PutString(c.name);
    w->PutU8(static_cast<uint8_t>(c.type));
    w->PutU8(c.page_loadable ? 1 : 0);
    w->PutU8(c.with_index ? 1 : 0);
    w->PutU8(c.primary_key ? 1 : 0);
    w->PutU8(c.defer_index ? 1 : 0);
  }
}

Result<TableSchema> ReadSchema(ChainByteReader* r) {
  TableSchema schema;
  PAYG_ASSIGN_OR_RETURN(schema.name, r->GetString());
  PAYG_ASSIGN_OR_RETURN(int64_t temp, r->GetI64());
  schema.temperature_column = static_cast<int>(temp);
  uint32_t ncols;
  PAYG_ASSIGN_OR_RETURN(ncols, r->GetU32());
  for (uint32_t i = 0; i < ncols; ++i) {
    ColumnSchema c;
    PAYG_ASSIGN_OR_RETURN(c.name, r->GetString());
    PAYG_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    c.type = static_cast<ValueType>(type);
    PAYG_ASSIGN_OR_RETURN(uint8_t paged, r->GetU8());
    c.page_loadable = paged != 0;
    PAYG_ASSIGN_OR_RETURN(uint8_t index, r->GetU8());
    c.with_index = index != 0;
    PAYG_ASSIGN_OR_RETURN(uint8_t pk, r->GetU8());
    c.primary_key = pk != 0;
    PAYG_ASSIGN_OR_RETURN(uint8_t defer, r->GetU8());
    c.defer_index = defer != 0;
    schema.columns.push_back(std::move(c));
  }
  return schema;
}

}  // namespace

Result<std::unique_ptr<ColumnStore>> ColumnStore::Open(
    const ColumnStoreOptions& options) {
  // Arm the background metrics/slow-query exporter when the env asks for it
  // (PAYG_STATS_DUMP_SECS > 0; off by default). Idempotent across multiple
  // stores in one process.
  obs::StatsDumper::Global().StartFromEnv();
  PAYG_ASSIGN_OR_RETURN(auto storage,
                        StorageManager::Open(options.directory,
                                             options.storage));
  auto store =
      std::unique_ptr<ColumnStore>(new ColumnStore(std::move(storage)));
  store->rm_->SetGlobalBudget(options.memory_budget);
  store->rm_->SetPoolLimits(PoolId::kPagedPool, options.paged_pool_limits);
  store->rm_->SetPoolLimits(PoolId::kColdPagedPool,
                            options.cold_paged_pool_limits);
  PAYG_RETURN_IF_ERROR(store->LoadCatalog());
  return store;
}

Status ColumnStore::Checkpoint() {
  // Delta fragments are memory-only: merge everything first so the
  // persisted main fragments carry all committed rows.
  for (auto& [name, table] : tables_) {
    PAYG_RETURN_IF_ERROR(table->MergeAll());
  }
  // Merges never fsync: every chain the new catalog names becomes durable
  // here, before the catalog does.
  PAYG_RETURN_IF_ERROR(storage_->SyncChains());
  PAYG_ASSIGN_OR_RETURN(
      auto file, storage_->CreateChain(kCatalogTmpChain,
                                       storage_->options().page_size));
  ChainByteWriter w(file.get());
  w.PutU32(static_cast<uint32_t>(tables_.size()));
  for (auto& [name, table] : tables_) {
    WriteSchema(&w, table->schema());
    auto manifests = table->Manifests();
    w.PutU32(static_cast<uint32_t>(manifests.size()));
    for (const PartitionManifest& m : manifests) {
      w.PutU8(m.cold ? 1 : 0);
      w.PutU64(m.merge_generation);
      w.PutU64(m.main_rows);
    }
  }
  PAYG_RETURN_IF_ERROR(w.Finish());
  file.reset();
  // A crash leaves the previous catalog or this one, never a torn one.
  return storage_->PublishChain(kCatalogTmpChain, kCatalogChain);
}

Status ColumnStore::LoadCatalog() {
  // A leftover of a checkpoint that crashed before its rename.
  PAYG_RETURN_IF_ERROR(storage_->DropChain(kCatalogTmpChain));
  if (!std::filesystem::exists(storage_->directory() + "/" + kCatalogChain)) {
    return Status::OK();  // fresh store
  }
  PAYG_ASSIGN_OR_RETURN(
      auto file,
      storage_->OpenChain(kCatalogChain, storage_->options().page_size));
  ChainByteReader r(file.get());
  uint32_t n_tables;
  PAYG_ASSIGN_OR_RETURN(n_tables, r.GetU32());
  for (uint32_t t = 0; t < n_tables; ++t) {
    PAYG_ASSIGN_OR_RETURN(TableSchema schema, ReadSchema(&r));
    uint32_t n_parts;
    PAYG_ASSIGN_OR_RETURN(n_parts, r.GetU32());
    std::vector<PartitionManifest> manifests;
    for (uint32_t p = 0; p < n_parts; ++p) {
      PartitionManifest m;
      PAYG_ASSIGN_OR_RETURN(uint8_t cold, r.GetU8());
      m.cold = cold != 0;
      PAYG_ASSIGN_OR_RETURN(m.merge_generation, r.GetU64());
      PAYG_ASSIGN_OR_RETURN(m.main_rows, r.GetU64());
      manifests.push_back(m);
    }
    std::string name = schema.name;
    PAYG_ASSIGN_OR_RETURN(
        auto table, Table::OpenExisting(std::move(schema), storage_.get(),
                                        rm_.get(), manifests));
    tables_.emplace(name, std::move(table));
  }
  return Status::OK();
}

Result<Table*> ColumnStore::CreateTable(TableSchema schema) {
  if (schema.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  if (tables_.count(schema.name) > 0) {
    return Status::AlreadyExists("table " + schema.name);
  }
  std::string name = schema.name;
  auto table = std::make_unique<Table>(std::move(schema), storage_.get(),
                                       rm_.get());
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Result<Table*> ColumnStore::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

Status ColumnStore::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  tables_.erase(it);
  return Status::OK();
}

}  // namespace payg
