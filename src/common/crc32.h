#ifndef PAYG_COMMON_CRC32_H_
#define PAYG_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace payg {

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) over a byte buffer;
// used for page checksums. Every page write seals one and every verified page
// read checks one, so it sits on every cold page access. Two implementations
// return identical values:
//
//   * SSE4.2 `crc32` instruction, one 8-byte word per step: ~1.1 µs per
//     8 KiB page, ~5 µs per 32 KiB page on an AVX2 x86-64 host;
//   * portable byte-table loop: ~27 µs / ~102 µs on the same host. It is the
//     fallback and the reference.
//
// The first call picks one for the process: the instruction when the build
// is x86-64 and the CPU reports sse4.2, unless `PAYG_FORCE_SCALAR=1` pins the
// table loop. bench_fig1_primitives' crc32c/* rows track both costs.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// The implementations themselves, so tests and benches can compare them.
using Crc32cFn = uint32_t (*)(const void* data, size_t n, uint32_t seed);
uint32_t Crc32cTable(const void* data, size_t n, uint32_t seed = 0);
// The SSE4.2 implementation, or nullptr when the build or CPU lacks it.
Crc32cFn Crc32cHardware();
// True iff Crc32c dispatches to the SSE4.2 implementation.
bool Crc32cUsesHardware();

}  // namespace payg

#endif  // PAYG_COMMON_CRC32_H_
