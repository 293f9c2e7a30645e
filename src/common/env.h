#ifndef PAYG_COMMON_ENV_H_
#define PAYG_COMMON_ENV_H_

// The single sanctioned doorway to process environment variables. Every
// PAYG_* knob goes through these helpers so parsing is uniformly strict:
// unset, empty, or malformed values (trailing garbage, no digits, overflow)
// fall back to the documented default instead of silently half-parsing.
// scripts/payg_analyzer.py bans raw `getenv` anywhere else under src/.

namespace payg {

// Strict decimal parse of env var `name`. Returns `fallback` when the
// variable is unset, empty, or malformed (non-numeric, trailing garbage,
// out of `long` range); well-formed values are clamped to [min, max].
long EnvLong(const char* name, long min, long max, long fallback);

// True iff the variable is set and its first character is '1'
// (the PAYG_FORCE_SCALAR / PAYG_TRACE on-switch convention).
bool EnvFlag(const char* name);

// Raw string value, or nullptr when unset. For enum-style knobs
// (e.g. PAYG_SIMD=scalar|sse42|avx2) that the caller matches itself.
const char* EnvRaw(const char* name);

}  // namespace payg

#endif  // PAYG_COMMON_ENV_H_
