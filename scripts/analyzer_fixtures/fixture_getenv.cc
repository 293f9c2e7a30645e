// Self-test fixture for the raw-getenv rule. Never compiled — parsed only
// by scripts/payg_analyzer.py --self-test.
#include <cstdlib>

namespace payg {

int ThreadsFromEnv() {
  const char* raw = std::getenv("PAYG_PREFETCH_THREADS");  // violation
  return raw ? *raw - '0' : 2;
}

}  // namespace payg
