#include "storage/storage_manager.h"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/env.h"

namespace payg {

namespace {

// PAYG_VERIFY_CHECKSUMS: tri-state override of StorageOptions::
// verify_checksums (which defaults to on). "0" disables read-path checksum
// verification, "1" forces it on, unset/other leaves the caller's options
// untouched.
void ApplyChecksumEnvOverride(StorageOptions* opts) {
  const char* raw = EnvRaw("PAYG_VERIFY_CHECKSUMS");
  if (raw == nullptr || raw[0] == '\0') return;
  if (raw[0] == '0') opts->verify_checksums = false;
  if (raw[0] == '1') opts->verify_checksums = true;
}

}  // namespace

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const std::string& directory, const StorageOptions& opts) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("create_directories " + directory + ": " +
                           ec.message());
  }
  StorageOptions effective = opts;
  ApplyChecksumEnvOverride(&effective);
  return std::unique_ptr<StorageManager>(
      new StorageManager(directory, effective));
}

std::string StorageManager::PathFor(const std::string& name) const {
  return directory_ + "/" + name;
}

Result<std::unique_ptr<PageFile>> StorageManager::CreateChain(
    const std::string& name, uint32_t page_size) {
  return PageFile::Create(PathFor(name), page_size, opts_);
}

Result<std::unique_ptr<PageFile>> StorageManager::OpenChain(
    const std::string& name, uint32_t page_size) {
  return PageFile::Open(PathFor(name), page_size, opts_);
}

Result<std::unique_ptr<PageFile>> StorageManager::CreateNonCriticalChain(
    const std::string& name, uint32_t page_size) {
  StorageOptions opts = opts_;
  if (opts.scm_for_noncritical) {
    opts.simulated_read_latency_us = opts.scm_read_latency_us;
  }
  return PageFile::Create(PathFor(name), page_size, opts);
}

Result<std::unique_ptr<PageFile>> StorageManager::OpenNonCriticalChain(
    const std::string& name, uint32_t page_size) {
  StorageOptions opts = opts_;
  if (opts.scm_for_noncritical) {
    opts.simulated_read_latency_us = opts.scm_read_latency_us;
  }
  return PageFile::Open(PathFor(name), page_size, opts);
}

Status StorageManager::DropChain(const std::string& name) {
  std::error_code ec;
  std::filesystem::remove(PathFor(name), ec);
  if (ec) {
    return Status::IOError("remove " + PathFor(name) + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace payg
