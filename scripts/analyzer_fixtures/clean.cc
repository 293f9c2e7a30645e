// Clean fixture: realistic shapes near every rule's trigger that must NOT
// be flagged. Never compiled — parsed only by --self-test.

#include "fixture_common.h"

namespace payg {

class CleanServer {
 public:
  // Locks in strictly sequential scopes; condvar wait under the lock.
  void Drain() {
    {
      MutexLock lk(queue_mu_);
      while (busy_) cv_.Wait(queue_mu_);
    }
    MutexLock lk(sessions_mu_);
    count_ = 0;
  }

  // Status captured and inspected; macro-wrapped propagation.
  Status Step() {
    Status s = DoWork();
    if (!s.ok()) return s;
    PAYG_RETURN_IF_ERROR(Flush(3));
    return Status::OK();
  }

  // Registry name that follows the §6 scheme and has an inventory row.
  void RegisterMetrics(Registry* reg) {
    touches_ = reg->counter("cache.fixture_touches");
  }

  // Pin used strictly inside its scope; a non-pin pointer is returned.
  const char* Name(PageCache* cache) {
    PageRef ref = cache->GetPage(9).value();
    uint64_t rows = ref.page().header()->aux;
    last_rows_ = rows;  // scalar derived value, not a pointer into the page
    return name_;
  }

 private:
  Mutex queue_mu_;
  mutable Mutex sessions_mu_;
  CondVar cv_;
  bool busy_ GUARDED_BY(queue_mu_) = false;
  int count_ GUARDED_BY(sessions_mu_) = 0;
  Counter* touches_ = nullptr;
  uint64_t last_rows_ = 0;
  const char* name_ = "clean";
};

}  // namespace payg
