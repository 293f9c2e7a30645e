// Self-test fixture for the lock-order rule: every function below violates
// one documented invariant from the manifest. Never compiled — parsed only
// by scripts/payg_analyzer.py --self-test.

#include "fixture_common.h"

namespace payg {

struct Stripe {
  Mutex mu;
  int pending GUARDED_BY(mu) = 0;
};

class BadManager {
 public:
  // Violation: stripe held while acquiring mu_ (documented order is
  // mu_ -> stripe -> nothing).
  void WrongDirection(Stripe& stripe) {
    MutexLock lock(stripe.mu);
    MutexLock inner(mu_);
    Use();
  }

  // Violation: two stripes at once (stripes are terminal).
  void TwoStripes(Stripe& a, Stripe& b) {
    MutexLock la(a.stripe.mu);
    MutexLock lb(b.stripe.mu);
    Use();
  }

 private:
  void Use() {}
  Mutex mu_;
  int used_ GUARDED_BY(mu_) = 0;
};

class BadCache {
 public:
  // Violation: two shard locks held at once.
  void CrossShard(const Shard& a, const Shard& b) {
    ShardLock la(*this, a);
    ShardLock lb(*this, b);
  }
};

class BadServer {
 public:
  // Violation: sessions_mu_ acquired under queue_mu_.
  void Together() {
    MutexLock lk(queue_mu_);
    MutexLock lk2(sessions_mu_);
  }

  // Violation: execution entered while holding queue_mu_.
  void ExecuteUnderQueueLock() {
    UniqueLock lk(queue_mu_);
    Dispatch(req_);
  }

  // Violation: Pending mutex is leaf-level.
  void UnderPending(Pending* p) {
    MutexLock lk(p->mu);
    MutexLock lk2(queue_mu_);
  }

  // Clean: sequential scopes, each released before the next — the rule
  // must not fire here.
  void SequentialScopes() {
    {
      MutexLock lk(queue_mu_);
      Touch();
    }
    {
      MutexLock lk(sessions_mu_);
      Touch();
    }
  }

  // Clean: Unlock() drops the queue lock before execution resumes.
  void UnlockBeforeExecute() {
    UniqueLock lk(queue_mu_);
    Touch();
    lk.Unlock();
    Dispatch(req_);
  }

 private:
  void Touch() {}
  Request req_ GUARDED_BY(queue_mu_);
  Mutex queue_mu_;
  Mutex sessions_mu_;
  int sessions_ GUARDED_BY(sessions_mu_) = 0;
};

}  // namespace payg
