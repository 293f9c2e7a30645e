#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/bit_util.h"
#include "common/env.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace payg {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing column");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing column");
  EXPECT_EQ(s.ToString(), "NotFound: missing column");
}

TEST(StatusTest, PredicatesMatchOnlyTheirCode) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_FALSE(Status::Corruption("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnsupported), "Unsupported");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PAYG_ASSIGN_OR_RETURN(int h, Half(x));
  PAYG_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2 = 3, second Half fails
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(BitUtilTest, BitsNeeded) {
  EXPECT_EQ(BitsNeeded(0), 1u);
  EXPECT_EQ(BitsNeeded(1), 1u);
  EXPECT_EQ(BitsNeeded(2), 2u);
  EXPECT_EQ(BitsNeeded(3), 2u);
  EXPECT_EQ(BitsNeeded(4), 3u);
  EXPECT_EQ(BitsNeeded(255), 8u);
  EXPECT_EQ(BitsNeeded(256), 9u);
  EXPECT_EQ(BitsNeeded(~uint64_t{0}), 64u);
}

TEST(BitUtilTest, LowMask) {
  EXPECT_EQ(LowMask(0), 0u);
  EXPECT_EQ(LowMask(1), 1u);
  EXPECT_EQ(LowMask(8), 0xFFu);
  EXPECT_EQ(LowMask(32), 0xFFFFFFFFu);
  EXPECT_EQ(LowMask(64), ~uint64_t{0});
}

TEST(BitUtilTest, AlignAndCeil) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 8), 16u);
  EXPECT_EQ(CeilDiv(0, 7), 0u);
  EXPECT_EQ(CeilDiv(1, 7), 1u);
  EXPECT_EQ(CeilDiv(7, 7), 1u);
  EXPECT_EQ(CeilDiv(8, 7), 2u);
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, CoversTheRange) {
  Random rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

// Scoped setenv/unsetenv so env tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvTest, LongUnsetFallsBack) {
  ScopedEnv env("PAYG_TEST_KNOB", nullptr);
  EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 4);
}

TEST(EnvTest, LongParsesWellFormedValue) {
  ScopedEnv env("PAYG_TEST_KNOB", "7");
  EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 7);
}

TEST(EnvTest, LongEmptyFallsBack) {
  ScopedEnv env("PAYG_TEST_KNOB", "");
  EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 4);
}

TEST(EnvTest, LongGarbageFallsBack) {
  ScopedEnv env("PAYG_TEST_KNOB", "many");
  EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 4);
}

TEST(EnvTest, LongTrailingGarbageFallsBack) {
  ScopedEnv env("PAYG_TEST_KNOB", "7threads");
  EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 4);
}

TEST(EnvTest, LongOverflowFallsBack) {
  // Far past LONG_MAX: strtol reports ERANGE, so the fallback wins (the
  // value never half-parses to LONG_MAX and then clamps).
  ScopedEnv env("PAYG_TEST_KNOB", "99999999999999999999999999");
  EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 4);
}

TEST(EnvTest, LongClampsToRange) {
  {
    ScopedEnv env("PAYG_TEST_KNOB", "1000");
    EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 16);
  }
  {
    ScopedEnv env("PAYG_TEST_KNOB", "-3");
    EXPECT_EQ(EnvLong("PAYG_TEST_KNOB", 1, 16, 4), 1);
  }
}

TEST(EnvTest, FlagTrueOnlyWhenFirstCharIsOne) {
  {
    ScopedEnv env("PAYG_TEST_FLAG", "1");
    EXPECT_TRUE(EnvFlag("PAYG_TEST_FLAG"));
  }
  {
    ScopedEnv env("PAYG_TEST_FLAG", "0");
    EXPECT_FALSE(EnvFlag("PAYG_TEST_FLAG"));
  }
  {
    ScopedEnv env("PAYG_TEST_FLAG", "yes");
    EXPECT_FALSE(EnvFlag("PAYG_TEST_FLAG"));
  }
  {
    ScopedEnv env("PAYG_TEST_FLAG", nullptr);
    EXPECT_FALSE(EnvFlag("PAYG_TEST_FLAG"));
  }
}

TEST(EnvTest, RawReturnsValueOrNull) {
  {
    ScopedEnv env("PAYG_TEST_RAW", "avx2");
    ASSERT_NE(EnvRaw("PAYG_TEST_RAW"), nullptr);
    EXPECT_STREQ(EnvRaw("PAYG_TEST_RAW"), "avx2");
  }
  {
    ScopedEnv env("PAYG_TEST_RAW", nullptr);
    EXPECT_EQ(EnvRaw("PAYG_TEST_RAW"), nullptr);
  }
}

}  // namespace
}  // namespace payg
