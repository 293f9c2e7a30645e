// Self-test fixture for the raw-sync and unguarded-mutex rules. Never
// compiled — parsed only by scripts/payg_analyzer.py --self-test.
#ifndef PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_SYNC_H_
#define PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_SYNC_H_

#include <mutex>

namespace payg {

class BadMutex {
 private:
  std::mutex raw_mu_;  // violation (raw-sync): std primitive, not payg::Mutex
  Mutex orphan_mu_;    // violation (unguarded-mutex): nothing annotated to it
  int counter_ = 0;
};

}  // namespace payg

#endif  // PAYG_SCRIPTS_ANALYZER_FIXTURES_FIXTURE_SYNC_H_
