#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"

namespace payg {
namespace {

// Page checksums must not depend on which CRC-32C implementation the process
// picked: a store sealed on one host verifies on another. Every available
// implementation is checked against known answers and against the portable
// table loop. ctest runs this binary twice, once as built and once with
// PAYG_FORCE_SCALAR=1, so both dispatch outcomes stay covered.

struct Impl {
  const char* name;
  Crc32cFn fn;
};

std::vector<Impl> AvailableImpls() {
  std::vector<Impl> impls = {{"table", &Crc32cTable}};
  if (Crc32cHardware() != nullptr) impls.push_back({"sse42", Crc32cHardware()});
  return impls;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") is the classic check value 0xE3069283.
  const char* data = "123456789";
  EXPECT_EQ(Crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  std::string a(128, 'a');
  uint32_t base = Crc32c(a.data(), a.size());
  for (size_t i = 0; i < a.size(); i += 17) {
    std::string b = a;
    b[i] ^= 1;
    EXPECT_NE(Crc32c(b.data(), b.size()), base) << "byte " << i;
  }
}

// RFC 3720 (iSCSI) appendix B.4 check values.
TEST(Crc32Test, Rfc3720KnownAnswers) {
  std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xFF), ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  const std::string digits = "123456789";
  for (const Impl& impl : AvailableImpls()) {
    SCOPED_TRACE(impl.name);
    EXPECT_EQ(impl.fn(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(impl.fn(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(impl.fn(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(impl.fn(digits.data(), digits.size(), 0), 0xE3069283u);
  }
}

TEST(Crc32Test, HardwareMatchesTableAtEveryLengthAndOffset) {
  if (Crc32cHardware() == nullptr) GTEST_SKIP() << "no SSE4.2 CRC-32C";
  const auto bytes = RandomBytes(1100 + 8, 3720);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32cHardware()(p, len, 0), Crc32cTable(p, len, 0))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32Test, HardwareMatchesTableOnPageSizes) {
  if (Crc32cHardware() == nullptr) GTEST_SKIP() << "no SSE4.2 CRC-32C";
  for (size_t size : {8u << 10, 32u << 10, 256u << 10}) {
    const auto bytes = RandomBytes(size, size);
    EXPECT_EQ(Crc32cHardware()(bytes.data(), size, 0),
              Crc32cTable(bytes.data(), size, 0))
        << "size=" << size;
  }
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  const auto bytes = RandomBytes(300, 42);
  for (const Impl& impl : AvailableImpls()) {
    SCOPED_TRACE(impl.name);
    const uint32_t whole = impl.fn(bytes.data(), bytes.size(), 0);
    for (size_t split : {0, 1, 7, 8, 9, 64, 150, 299, 300}) {
      const uint32_t head = impl.fn(bytes.data(), split, 0);
      EXPECT_EQ(impl.fn(bytes.data() + split, bytes.size() - split, head),
                whole)
          << "split=" << split;
    }
  }
}

TEST(Crc32Test, DispatchHonorsForceScalar) {
  const char* force = std::getenv("PAYG_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') {
    EXPECT_FALSE(Crc32cUsesHardware());
  } else {
    EXPECT_EQ(Crc32cUsesHardware(), Crc32cHardware() != nullptr);
  }
  const auto bytes = RandomBytes(8 << 10, 8);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()),
            Crc32cTable(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace payg
