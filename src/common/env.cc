#include "common/env.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace payg {

long EnvLong(const char* name, long min, long max, long fallback) {
  // analyzer:allow(raw-getenv) — this is the sanctioned doorway.
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0') return fallback;
  return std::clamp(v, min, max);
}

bool EnvFlag(const char* name) {
  // analyzer:allow(raw-getenv) — this is the sanctioned doorway.
  const char* env = std::getenv(name);
  return env != nullptr && env[0] == '1';
}

const char* EnvRaw(const char* name) {
  // analyzer:allow(raw-getenv) — this is the sanctioned doorway.
  return std::getenv(name);
}

}  // namespace payg
