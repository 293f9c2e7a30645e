#include "common/crc32.h"

#include <array>

#include "common/env.h"

namespace payg {

// Defined in crc32c_sse42.cc (compiled with -msse4.2); only linked in on
// x86-64 builds.
#if defined(PAYG_HAVE_SSE42_TU)
uint32_t Crc32cSse42(const void* data, size_t n, uint32_t seed);
#endif

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

Crc32cFn ChooseCrc32c() {
  if (EnvFlag("PAYG_FORCE_SCALAR")) return &Crc32cTable;
  const Crc32cFn hw = Crc32cHardware();
  return hw != nullptr ? hw : &Crc32cTable;
}

Crc32cFn ActiveCrc32c() {
  static const Crc32cFn fn = ChooseCrc32c();
  return fn;
}

}  // namespace

uint32_t Crc32cTable(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

Crc32cFn Crc32cHardware() {
#if defined(PAYG_HAVE_SSE42_TU)
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return nullptr;
}

bool Crc32cUsesHardware() { return ActiveCrc32c() != &Crc32cTable; }

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  return ActiveCrc32c()(data, n, seed);
}

}  // namespace payg
