#include "obs/stats_dumper.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/env.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/slow_query_ring.h"

namespace payg::obs {

namespace {

// tmp-then-rename so a concurrent reader never observes a torn file.
Status WriteFileAtomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("stats dump: cannot open " + tmp);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != body.size() || !closed) {
    std::remove(tmp.c_str());
    return Status::IOError("stats dump: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("stats dump: rename to " + path + " failed");
  }
  return Status::OK();
}

}  // namespace

StatsDumper& StatsDumper::Global() {
  static auto* dumper = new StatsDumper();
  return *dumper;
}

void StatsDumper::StartFromEnv() {
  const uint64_t secs = static_cast<uint64_t>(
      EnvLong("PAYG_STATS_DUMP_SECS", 0, 86400, /*fallback=*/0));
  if (secs == 0) return;  // off by default
  const char* dir = EnvRaw("PAYG_STATS_DIR");
  Start(secs, dir != nullptr ? dir : "payg_stats");
}

void StatsDumper::Start(uint64_t period_secs, std::string dir) {
  if (period_secs == 0) return;
  {
    MutexLock lock(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
    dir_ = dir;
  }
  thread_ = std::thread(
      [this, period_secs, d = std::move(dir)] { Loop(period_secs, d); });
  // Flush-at-exit: a process that opens a store, runs for less than one
  // period and exits cleanly would otherwise never write anything. The
  // global is never destroyed, so this is the only shutdown path.
  static const bool registered = [] {
    std::atexit([] { StatsDumper::Global().Stop(); });
    return true;
  }();
  (void)registered;
}

void StatsDumper::Stop() {
  std::string dir;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_ = true;
    dir = dir_;
  }
  cv_.NotifyAll();
  thread_.join();
  {
    MutexLock lock(mu_);
    running_ = false;
  }
  // Final export after the join: the files always end up reflecting the
  // last state of the process, even when no periodic dump ever fired.
  // Best effort at shutdown: analyzer:allow(status-swallow)
  (void)DumpOnce(dir);
}

bool StatsDumper::running() const {
  MutexLock lock(mu_);
  return running_;
}

void StatsDumper::Loop(uint64_t period_secs, std::string dir) {
  auto& reg = MetricsRegistry::Global();
  static Counter* dumps = reg.counter("profile.stats_dumps");
  static Counter* failures = reg.counter("profile.stats_dump_failures");
  for (;;) {
    {
      MutexLock lock(mu_);
      // Explicit loop (not a predicate lambda) so the analysis sees the
      // guarded read; a spurious wake just dumps slightly early.
      if (!stop_) cv_.WaitFor(mu_, std::chrono::seconds(period_secs));
      if (stop_) return;
    }
    if (DumpOnce(dir).ok()) {
      dumps->Inc();
    } else {
      failures->Inc();  // transient (disk full, dir removed); keep running
    }
  }
}

Status StatsDumper::DumpOnce(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("stats dump: cannot create " + dir);
  }
  auto& reg = MetricsRegistry::Global();
  PAYG_RETURN_IF_ERROR(
      WriteFileAtomic(dir + "/metrics.json", reg.JsonDump()));
  PAYG_RETURN_IF_ERROR(
      WriteFileAtomic(dir + "/metrics.prom", reg.PrometheusDump()));
  PAYG_RETURN_IF_ERROR(WriteFileAtomic(dir + "/slow_queries.json",
                                       SlowQueryRing::Global().DumpJson()));
  return Status::OK();
}

}  // namespace payg::obs
