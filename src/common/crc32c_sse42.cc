// SSE4.2 CRC-32C: the `crc32` instruction computes the same reflected
// Castagnoli CRC as Crc32cTable, one 8-byte word per step, with a byte tail.
// Compiled with -msse4.2 on x86-64 only; crc32.cc calls it only after cpuid
// reports sse4.2.

#include <nmmintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace payg {

uint32_t Crc32cSse42(const void* data, size_t n, uint32_t seed);

uint32_t Crc32cSse42(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

}  // namespace payg
