#ifndef PAYG_TESTS_TEST_UTIL_H_
#define PAYG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "columnar/value.h"

namespace payg {

// A directory of the running test's own under ::testing::TempDir(),
// payg_<tag>_<pid>_<suite>.<test>. Two processes of one test binary (ctest
// -j runs each test in a process of its own) never share one, and neither
// do two tests of one process. Call it while a test runs (SetUp or body).
inline std::string TestDir(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + "/payg_" + tag + "_" +
         std::to_string(::getpid()) + "_" + test;
}

// `values`, each of `type`, as one typed array: a reference kept as Values
// converts at the builder call.
inline ValueArray ToValueArray(ValueType type,
                               const std::vector<Value>& values) {
  ValueArray out = MakeValueArray(type);
  std::visit(
      [&values](auto& typed) {
        for (const Value& v : values) {
          typed.push_back(v.As<ElementOf<decltype(typed)>>());
        }
      },
      out);
  return out;
}

// The entries of a typed array as Values, for comparing with a reference.
inline std::vector<Value> ToValues(const ValueArray& values) {
  std::vector<Value> out;
  for (uint64_t i = 0; i < ValueArraySize(values); ++i) {
    out.push_back(ValueAt(values, i));
  }
  return out;
}

}  // namespace payg

#endif  // PAYG_TESTS_TEST_UTIL_H_
