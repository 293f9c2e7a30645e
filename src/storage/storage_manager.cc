#include "storage/storage_manager.h"

#include <fcntl.h>
#include <unistd.h>

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

void StorageManager::NoteCreated(const std::string& name) {
  MutexLock lock(mu_);
  unsynced_.insert(name);
}

Result<std::unique_ptr<PageFile>> StorageManager::CreateChain(
    const std::string& name, uint32_t page_size) {
  auto file = PageFile::Create(PathFor(name), page_size, opts_);
  if (file.ok()) NoteCreated(name);
  return file;
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
  auto file = PageFile::Create(PathFor(name), page_size, opts);
  if (file.ok()) NoteCreated(name);
  return file;
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
  {
    MutexLock lock(mu_);
    unsynced_.erase(name);
  }
  std::error_code ec;
  std::filesystem::remove(PathFor(name), ec);
  if (ec) {
    return Status::IOError("remove " + PathFor(name) + ": " + ec.message());
  }
  return Status::OK();
}

Status StorageManager::SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int open_errno = errno;
    const std::string what = "open " + path + ": " + std::strerror(open_errno);
    return open_errno == ENOENT ? Status::NotFound(what)
                                : Status::IOError(what);
  }
  const int rc = ::fsync(fd);
  const int fsync_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " +
                           std::strerror(fsync_errno));
  }
  m_sync_files_->Inc();
  return Status::OK();
}

Status StorageManager::SyncChains() {
  // Taken whole, so a chain created meanwhile waits for the next call.
  std::set<std::string> names;
  {
    MutexLock lock(mu_);
    names.swap(unsynced_);
  }
  for (auto it = names.begin(); it != names.end(); it = names.erase(it)) {
    Status s = SyncPath(PathFor(*it));
    if (s.IsNotFound()) continue;  // dropped meanwhile: nothing to make durable
    if (!s.ok()) {
      MutexLock lock(mu_);
      unsynced_.insert(names.begin(), names.end());
      return s;
    }
  }
  return SyncPath(directory_);
}

Status StorageManager::PublishChain(const std::string& from,
                                    const std::string& to) {
  PAYG_RETURN_IF_ERROR(SyncPath(PathFor(from)));
  if (::rename(PathFor(from).c_str(), PathFor(to).c_str()) != 0) {
    return Status::IOError("rename " + PathFor(from) + " to " + PathFor(to) +
                           ": " + std::strerror(errno));
  }
  {
    MutexLock lock(mu_);
    unsynced_.erase(from);
    unsynced_.erase(to);
  }
  return SyncPath(directory_);
}

std::vector<std::string> StorageManager::UnsyncedChains() const {
  MutexLock lock(mu_);
  return std::vector<std::string>(unsynced_.begin(), unsynced_.end());
}

}  // namespace payg
