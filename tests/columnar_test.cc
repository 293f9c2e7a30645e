#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "buffer/resource_manager.h"
#include "columnar/delta_fragment.h"
#include "columnar/dictionary.h"
#include "columnar/inverted_index.h"
#include "columnar/resident_fragment.h"
#include "columnar/value.h"
#include "common/random.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace payg {
namespace {

TEST(ValueTest, TypedAccessors) {
  Value i(int64_t{42});
  Value d(2.5);
  Value s(std::string("abc"));
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_EQ(d.AsDouble(), 2.5);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, CompareWithinType) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_GT(Value(int64_t{5}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(int64_t{5})), 0);
  EXPECT_LT(Value(1.5).Compare(Value(2.5)), 0);
  EXPECT_LT(Value(std::string("a")).Compare(Value(std::string("b"))), 0);
  EXPECT_TRUE(Value(std::string("x")) == Value(std::string("x")));
  EXPECT_FALSE(Value(int64_t{1}) == Value(2.0));  // different types: unequal
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{-7}).ToString(), "-7");
  EXPECT_EQ(Value(std::string("text")).ToString(), "text");
}

// Checks a typed dictionary over `values` against a reference: the same
// values as Values, sorted and deduplicated by Value::Compare, searched
// with std::lower_bound / std::upper_bound by Value::Compare.
template <typename T>
void ExpectDictionaryMatchesReference(const std::vector<T>& values,
                                      const std::vector<T>& probes,
                                      Random* rng) {
  auto less = [](const Value& a, const Value& b) { return a.Compare(b) < 0; };
  std::vector<Value> ref;
  for (const T& v : values) ref.emplace_back(v);
  std::sort(ref.begin(), ref.end(), less);
  ref.erase(std::unique(ref.begin(), ref.end()), ref.end());
  std::vector<T> sorted;
  for (const Value& v : ref) sorted.push_back(v.As<T>());
  const Dictionary d(sorted);

  ASSERT_EQ(d.size(), ref.size());
  for (ValueId vid = 0; vid < ref.size(); ++vid) {
    const Value got = d.GetValue(vid);
    ASSERT_EQ(got.type(), ref[vid].type());
    EXPECT_EQ(got.Compare(ref[vid]), 0) << "vid " << vid;
  }
  // The range read appends exactly ref[from, to), after what `out` holds.
  for (int i = 0; i < 8; ++i) {
    const ValueId to = static_cast<ValueId>(rng->Uniform(ref.size() + 1));
    const ValueId from = static_cast<ValueId>(rng->Uniform(to + 1));
    ValueArray out = std::vector<T>{T{}};
    d.AppendValues(from, to, &out);
    const auto& got = std::get<std::vector<T>>(out);
    ASSERT_EQ(got.size(), 1u + (to - from));
    EXPECT_EQ(got[0], T{});
    for (ValueId v = from; v < to; ++v) {
      EXPECT_EQ(Value(got[1 + v - from]).Compare(ref[v]), 0) << "vid " << v;
    }
  }
  for (const T& p : probes) {
    const Value key(p);
    const auto lb = static_cast<ValueId>(
        std::lower_bound(ref.begin(), ref.end(), key, less) - ref.begin());
    const auto ub = static_cast<ValueId>(
        std::upper_bound(ref.begin(), ref.end(), key, less) - ref.begin());
    EXPECT_EQ(d.LowerBound(key), lb) << key.ToString();
    EXPECT_EQ(d.UpperBound(key), ub) << key.ToString();
    const std::optional<ValueId> found = d.FindValueId(key);
    if (lb < ub) {
      ASSERT_TRUE(found.has_value()) << key.ToString();
      EXPECT_EQ(*found, lb);
    } else {
      EXPECT_FALSE(found.has_value()) << key.ToString();
    }
  }
}

TEST(DictionaryTest, LookupAndBounds) {
  // The fixed case.
  Dictionary d(std::vector<int64_t>{10, 20, 30, 40});
  EXPECT_EQ(d.type(), ValueType::kInt64);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.GetValue(2).AsInt64(), 30);
  EXPECT_EQ(*d.FindValueId(Value(int64_t{20})), 1u);
  EXPECT_FALSE(d.FindValueId(Value(int64_t{25})).has_value());
  EXPECT_EQ(d.LowerBound(Value(int64_t{25})), 2u);
  EXPECT_EQ(d.LowerBound(Value(int64_t{20})), 1u);
  EXPECT_EQ(d.UpperBound(Value(int64_t{20})), 2u);
  EXPECT_EQ(d.LowerBound(Value(int64_t{100})), 4u);
  EXPECT_EQ(d.LowerBound(Value(int64_t{0})), 0u);
  EXPECT_EQ(Dictionary().size(), 0u);
  EXPECT_EQ(Dictionary().LowerBound(Value(int64_t{1})), 0u);

  // Seeded property test, int64 and double.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Random rng(seed);
    const uint64_t n = seed % 6 == 0 ? rng.Uniform(3) : rng.Uniform(400);
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    for (uint64_t i = 0; i < n; ++i) {
      switch (rng.Uniform(4)) {
        case 0:
          ints.push_back(static_cast<int64_t>(rng.Next()));
          doubles.push_back(static_cast<double>(
              static_cast<int64_t>(rng.Next())));
          break;
        case 1:
          ints.push_back(static_cast<int64_t>(rng.Uniform(64)) - 32);
          doubles.push_back(kSub * static_cast<double>(rng.Uniform(8)));
          break;
        default:
          ints.push_back(static_cast<int64_t>(rng.Uniform(5000)) - 2500);
          doubles.push_back(0.125 * static_cast<double>(rng.Uniform(400)) -
                            25.0);
          break;
      }
    }
    if (seed % 2 == 0) {
      ints.insert(ints.end(), {kMin, kMax, 0});
      doubles.insert(doubles.end(), {-kInf, kInf, 0.0, -kSub});
    }
    std::vector<int64_t> int_probes = {kMin, kMin + 1, -1, 0, 1, kMax - 1,
                                       kMax};
    std::vector<double> double_probes = {-kInf, kInf, -0.0, 0.0, kSub, -kSub,
                                         std::numeric_limits<double>::min(),
                                         std::numeric_limits<double>::max(),
                                         std::numeric_limits<double>::lowest()};
    for (int64_t v : ints) {
      int_probes.push_back(v);
      if (v != kMin) int_probes.push_back(v - 1);
      if (v != kMax) int_probes.push_back(v + 1);
    }
    for (double v : doubles) {
      double_probes.push_back(v);
      double_probes.push_back(std::nextafter(v, kInf));
      double_probes.push_back(std::nextafter(v, -kInf));
      if (v == 0.0) double_probes.push_back(-v);
    }
    ExpectDictionaryMatchesReference(ints, int_probes, &rng);
    ExpectDictionaryMatchesReference(doubles, double_probes, &rng);
  }
  // A -0.0 probe finds the 0.0 entry.
  Dictionary zero(std::vector<double>{-1.0, 0.0, 1.0});
  EXPECT_EQ(zero.type(), ValueType::kDouble);
  EXPECT_EQ(*zero.FindValueId(Value(-0.0)), 1u);
  EXPECT_EQ(zero.LowerBound(Value(-0.0)), 1u);
  EXPECT_EQ(zero.UpperBound(Value(-0.0)), 2u);
}

TEST(DictionaryTest, StringOrderPreserving) {
  Dictionary d(std::vector<std::string>{"ant", "bee", "cat", "dog"});
  EXPECT_EQ(d.type(), ValueType::kString);
  // Order-preserving property: vid order == value order.
  for (ValueId v = 0; v + 1 < d.size(); ++v) {
    EXPECT_LT(d.GetValue(v).Compare(d.GetValue(v + 1)), 0);
  }

  // Seeded property test: empty strings, 0xFF-heavy strings and embedded
  // NULs, where a signed-char order or a C-string compare would differ.
  static constexpr char kAlphabet[] = {'\0', 'a', 'b', '\x7f', '\x80', '\xfe',
                                       '\xff'};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Random rng(seed);
    auto random_string = [&rng] {
      std::string s(rng.Uniform(6), 'a');
      for (char& c : s) c = kAlphabet[rng.Uniform(sizeof(kAlphabet))];
      return s;
    };
    const uint64_t n = seed % 6 == 0 ? rng.Uniform(3) : rng.Uniform(300);
    std::vector<std::string> strings;
    for (uint64_t i = 0; i < n; ++i) strings.push_back(random_string());
    if (seed % 2 == 0) {
      strings.insert(strings.end(), {"", std::string("a\0b", 3), "\xff\xff",
                                     "\xff"});
    }
    std::vector<std::string> probes = {"", std::string(1, '\0'), "\xff",
                                       std::string(8, '\xff')};
    for (const std::string& s : strings) {
      probes.push_back(s);
      probes.push_back(s + '\0');
      probes.push_back(s + '\xff');
      if (!s.empty()) {
        probes.push_back(s.substr(0, s.size() - 1));
        std::string up = s;
        up.back() =
            static_cast<char>(static_cast<unsigned char>(up.back()) + 1);
        probes.push_back(up);
      }
    }
    for (int i = 0; i < 50; ++i) probes.push_back(random_string());
    ExpectDictionaryMatchesReference(strings, probes, &rng);
  }
}

TEST(InvertedIndexTest, DirectoryAndPostings) {
  //            rows: 0  1  2  3  4  5
  std::vector<ValueId> vids{2, 0, 2, 1, 0, 2};
  InvertedIndex idx = InvertedIndex::Build(vids, 3);
  EXPECT_FALSE(idx.unique());
  auto p0 = idx.Lookup(0);
  EXPECT_EQ(std::vector<RowPos>(p0.begin(), p0.end()),
            (std::vector<RowPos>{1, 4}));
  auto p1 = idx.Lookup(1);
  EXPECT_EQ(std::vector<RowPos>(p1.begin(), p1.end()),
            (std::vector<RowPos>{3}));
  auto p2 = idx.Lookup(2);
  EXPECT_EQ(std::vector<RowPos>(p2.begin(), p2.end()),
            (std::vector<RowPos>{0, 2, 5}));
}

TEST(InvertedIndexTest, UniqueDropsDirectory) {
  std::vector<ValueId> vids{3, 0, 2, 1};
  InvertedIndex idx = InvertedIndex::Build(vids, 4);
  EXPECT_TRUE(idx.unique());
  EXPECT_TRUE(idx.directory().empty());
  for (ValueId v = 0; v < 4; ++v) {
    auto p = idx.Lookup(v);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(vids[p[0]], v);
  }
}

TEST(InvertedIndexTest, PostingsAscendWithinVid) {
  Random rng(11);
  std::vector<ValueId> vids;
  for (int i = 0; i < 5000; ++i) {
    vids.push_back(static_cast<ValueId>(rng.Uniform(17)));
  }
  InvertedIndex idx = InvertedIndex::Build(vids, 17);
  uint64_t total = 0;
  for (ValueId v = 0; v < 17; ++v) {
    auto p = idx.Lookup(v);
    total += p.size();
    EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
    for (RowPos r : p) EXPECT_EQ(vids[r], v);
  }
  EXPECT_EQ(total, vids.size());
}

TEST(DeltaFragmentTest, AppendInternsValues) {
  DeltaFragment delta(ValueType::kString);
  EXPECT_EQ(delta.Append(Value(std::string("x"))), 0u);
  EXPECT_EQ(delta.Append(Value(std::string("y"))), 1u);
  EXPECT_EQ(delta.Append(Value(std::string("x"))), 2u);
  EXPECT_EQ(delta.row_count(), 3u);
  EXPECT_EQ(delta.dict_size(), 2u);  // "x" interned once
  EXPECT_EQ(delta.GetVid(0), delta.GetVid(2));
  EXPECT_EQ(delta.GetValue(delta.GetVid(1)).AsString(), "y");
}

TEST(DeltaFragmentTest, DictionaryIsArrivalOrdered) {
  DeltaFragment delta(ValueType::kInt64);
  delta.Append(Value(int64_t{50}));
  delta.Append(Value(int64_t{10}));
  delta.Append(Value(int64_t{30}));
  // The delta dictionary is NOT order-preserving (write-optimized, §2).
  EXPECT_EQ(delta.GetValue(0).AsInt64(), 50);
  EXPECT_EQ(delta.GetValue(1).AsInt64(), 10);
  EXPECT_EQ(delta.GetValue(2).AsInt64(), 30);
}

TEST(DeltaFragmentTest, FindRowsAndRangeScan) {
  DeltaFragment delta(ValueType::kInt64);
  for (int64_t v : {5, 8, 5, 12, 8, 5}) delta.Append(Value(v));
  std::vector<RowPos> rows;
  delta.FindRows(Value(int64_t{5}), &rows);
  EXPECT_EQ(rows, (std::vector<RowPos>{0, 2, 5}));
  rows.clear();
  delta.FindRows(Value(int64_t{99}), &rows);
  EXPECT_TRUE(rows.empty());
  rows.clear();
  delta.FindRowsMatching(
      [](const Value& v) {
        return v.Compare(Value(int64_t{6})) >= 0 &&
               v.Compare(Value(int64_t{12})) <= 0;
      },
      &rows);
  EXPECT_EQ(rows, (std::vector<RowPos>{1, 3, 4}));
}

TEST(DeltaFragmentTest, ClearResets) {
  DeltaFragment delta(ValueType::kInt64);
  delta.Append(Value(int64_t{1}));
  delta.Clear();
  EXPECT_EQ(delta.row_count(), 0u);
  EXPECT_EQ(delta.dict_size(), 0u);
  EXPECT_TRUE(delta.empty());
  // The cleared delta keeps its type and interns afresh.
  EXPECT_EQ(delta.type(), ValueType::kInt64);
  EXPECT_EQ(delta.Append(Value(int64_t{1})), 0u);
  EXPECT_EQ(delta.GetVid(0), 0u);
  EXPECT_EQ(delta.dict_size(), 1u);
}

// Appends `values` to a delta with and without the index and checks both
// against a reference keyed by Value::Compare: the first arrival of each
// distinct value takes the next vid and keeps its bits (so -0.0 before 0.0
// is one -0.0 entry), FindRows returns the rows equal to a probe, and
// FindRowsMatching the rows inside a range of two probes.
void ExpectDeltaMatchesReference(ValueType type,
                                 const std::vector<Value>& values,
                                 const std::vector<Value>& probes) {
  auto less = [](const Value& a, const Value& b) { return a.Compare(b) < 0; };
  std::map<Value, ValueId, decltype(less)> vid_of(less);
  std::vector<Value> arrivals;  // by vid
  std::vector<ValueId> row_vids;
  for (const Value& v : values) {
    auto [it, fresh] =
        vid_of.try_emplace(v, static_cast<ValueId>(arrivals.size()));
    if (fresh) arrivals.push_back(v);
    row_vids.push_back(it->second);
  }
  auto rows_where = [&values](const std::function<bool(const Value&)>& pred) {
    std::vector<RowPos> rows;
    for (RowPos r = 0; r < values.size(); ++r) {
      if (pred(values[r])) rows.push_back(r);
    }
    return rows;
  };
  for (bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "scan");
    DeltaFragment delta(type);
    if (indexed) delta.EnableIndex();
    for (RowPos r = 0; r < values.size(); ++r) {
      ASSERT_EQ(delta.Append(values[r]), r);
    }
    ASSERT_EQ(delta.row_count(), values.size());
    ASSERT_EQ(delta.dict_size(), arrivals.size());
    EXPECT_EQ(ValueArraySize(delta.values()), arrivals.size());
    for (RowPos r = 0; r < values.size(); ++r) {
      ASSERT_EQ(delta.GetVid(r), row_vids[r]) << "row " << r;
    }
    for (ValueId v = 0; v < arrivals.size(); ++v) {
      const Value got = delta.GetValue(v);
      ASSERT_EQ(got.type(), type);
      if (type == ValueType::kDouble) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.AsDouble()),
                  std::bit_cast<uint64_t>(arrivals[v].AsDouble()))
            << "vid " << v;
      } else {
        EXPECT_EQ(got, arrivals[v]) << "vid " << v;
      }
    }
    for (const Value& p : probes) {
      std::vector<RowPos> got;
      delta.FindRows(p, &got);
      EXPECT_EQ(got, rows_where([&p](const Value& v) {
                  return v.Compare(p) == 0;
                })) << p.ToString();
    }
    for (size_t i = 0; i + 1 < probes.size(); i += 2) {
      const Value& lo = probes[i];
      const Value& hi = probes[i + 1];
      auto in_range = [&lo, &hi](const Value& v) {
        return v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      };
      std::vector<RowPos> got;
      delta.FindRowsMatching(in_range, &got);
      EXPECT_EQ(got, rows_where(in_range))
          << "[" << lo.ToString() << ", " << hi.ToString() << "]";
    }
  }
}

TEST(DeltaFragmentTest, MatchesCompareKeyedReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  static constexpr char kAlphabet[] = {'\0', 'a', 'b', '\x7f', '\x80', '\xfe',
                                       '\xff'};
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const uint64_t n = seed % 8 == 0 ? rng.Uniform(3) : 50 + rng.Uniform(250);
    std::vector<Value> ints, doubles, strings;
    for (uint64_t i = 0; i < n; ++i) {
      switch (rng.Uniform(4)) {
        case 0:
          ints.emplace_back(static_cast<int64_t>(rng.Next()));
          doubles.emplace_back(kSub * static_cast<double>(rng.Uniform(5)) *
                               (rng.Uniform(2) == 0 ? 1.0 : -1.0));
          break;
        case 1:
          ints.emplace_back(rng.Uniform(2) == 0 ? kMin : kMax);
          doubles.emplace_back(rng.Uniform(2) == 0 ? kInf : -kInf);
          break;
        default:
          ints.emplace_back(static_cast<int64_t>(rng.Uniform(40)) - 20);
          doubles.emplace_back(0.5 * static_cast<double>(rng.Uniform(20)) -
                               5.0);
          break;
      }
      std::string s(rng.Uniform(5), 'a');
      for (char& c : s) c = kAlphabet[rng.Uniform(sizeof(kAlphabet))];
      strings.emplace_back(std::move(s));
    }
    // -0.0 arrives before 0.0 on even seeds, after it on odd ones.
    if (n > 0) {
      const double first = seed % 2 == 0 ? -0.0 : 0.0;
      doubles.insert(doubles.begin() + static_cast<ptrdiff_t>(rng.Uniform(n)),
                     {Value(first), Value(-first)});
    }
    std::vector<Value> int_probes = {Value(kMin), Value(kMax),
                                     Value(int64_t{0}), Value(int64_t{12345})};
    std::vector<Value> double_probes = {Value(-kInf), Value(kInf), Value(-0.0),
                                        Value(0.0), Value(kSub), Value(-kSub),
                                        Value(0.25)};
    std::vector<Value> string_probes = {
        Value(std::string()), Value(std::string(1, '\0')),
        Value(std::string("\xff")), Value(std::string(6, '\xff'))};
    for (int i = 0; i < 12 && n > 0; ++i) {
      int_probes.push_back(ints[rng.Uniform(ints.size())]);
      double_probes.push_back(doubles[rng.Uniform(doubles.size())]);
      string_probes.push_back(strings[rng.Uniform(strings.size())]);
    }
    ExpectDeltaMatchesReference(ValueType::kInt64, ints, int_probes);
    ExpectDeltaMatchesReference(ValueType::kDouble, doubles, double_probes);
    ExpectDeltaMatchesReference(ValueType::kString, strings, string_probes);
  }
  // The fixed case: -0.0 first makes one entry that keeps its sign.
  DeltaFragment zeros(ValueType::kDouble);
  zeros.Append(Value(-0.0));
  zeros.Append(Value(0.0));
  EXPECT_EQ(zeros.dict_size(), 1u);
  EXPECT_TRUE(std::signbit(zeros.GetValue(0).AsDouble()));
  EXPECT_EQ(zeros.GetVid(1), 0u);
}

// ---------------------------------------------------------------------------
// FullyResidentFragment
// ---------------------------------------------------------------------------

class ResidentFragmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("resident");
    std::filesystem::remove_all(dir_);
    StorageOptions opts;
    opts.page_size = 16 * 1024;  // small pages → multi-page chains in tests
    auto sm = StorageManager::Open(dir_, opts);
    ASSERT_TRUE(sm.ok());
    storage_ = std::move(*sm);
    rm_ = std::make_unique<ResourceManager>();
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  // An int64 column with `rows` rows over `cardinality` distinct values.
  std::unique_ptr<FullyResidentFragment> BuildIntFragment(
      const std::string& name, uint64_t rows, uint64_t cardinality,
      bool with_index) {
    std::vector<int64_t> dict_values;
    for (uint64_t i = 0; i < cardinality; ++i) {
      dict_values.push_back(static_cast<int64_t>(i * 10));
    }
    Random rng(42);
    std::vector<ValueId> vids;
    for (uint64_t i = 0; i < rows; ++i) {
      vids.push_back(static_cast<ValueId>(rng.Uniform(cardinality)));
    }
    vids_ = vids;
    auto frag = FullyResidentFragment::Build(storage_.get(), rm_.get(), name,
                                             dict_values, vids, with_index);
    EXPECT_TRUE(frag.ok()) << frag.status().ToString();
    return std::move(*frag);
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<ResourceManager> rm_;
  std::vector<ValueId> vids_;
};

TEST_F(ResidentFragmentTest, BuildReportsMetadataWithoutLoading) {
  auto frag = BuildIntFragment("c1", 10000, 100, true);
  EXPECT_EQ(frag->row_count(), 10000u);
  EXPECT_EQ(frag->dict_size(), 100u);
  EXPECT_TRUE(frag->has_index());
  EXPECT_FALSE(frag->is_paged());
  EXPECT_EQ(frag->ResidentBytes(), 0u);  // not loaded yet
  EXPECT_EQ(frag->load_count(), 0u);
}

TEST_F(ResidentFragmentTest, FirstReaderTriggersFullLoad) {
  auto frag = BuildIntFragment("c1", 10000, 100, false);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(frag->load_count(), 1u);
  EXPECT_GT(frag->ResidentBytes(), 0u);
  EXPECT_GT(frag->last_load_nanos(), 0u);
  // Second reader: no reload.
  auto reader2 = frag->NewReader();
  ASSERT_TRUE(reader2.ok());
  EXPECT_EQ(frag->load_count(), 1u);
}

TEST_F(ResidentFragmentTest, ReadsMatchSourceData) {
  auto frag = BuildIntFragment("c1", 5000, 64, true);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok());
  // Point gets.
  for (RowPos r : {0u, 1u, 999u, 4999u}) {
    auto vid = (*reader)->GetVid(r);
    ASSERT_TRUE(vid.ok());
    EXPECT_EQ(*vid, vids_[r]);
    auto val = (*reader)->GetValueForVid(*vid);
    ASSERT_TRUE(val.ok());
    EXPECT_EQ(val->AsInt64(), static_cast<int64_t>(vids_[r] * 10));
  }
  // MGet.
  std::vector<ValueId> got;
  ASSERT_TRUE((*reader)->MGetVids(100, 200, &got).ok());
  ASSERT_EQ(got.size(), 100u);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], vids_[100 + i]);
  // FindRows via index.
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(7, &rows).ok());
  for (RowPos r : rows) EXPECT_EQ(vids_[r], 7u);
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids_.size(); ++r) {
    if (vids_[r] == 7u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(ResidentFragmentTest, FindRowsWithoutIndexScans) {
  auto frag = BuildIntFragment("c1", 3000, 32, false);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(3, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids_.size(); ++r) {
    if (vids_[r] == 3u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

TEST_F(ResidentFragmentTest, DictionarySearchApis) {
  auto frag = BuildIntFragment("c1", 1000, 50, false);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok());
  auto vid = (*reader)->FindValueId(Value(int64_t{120}));
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, 12u);
  auto missing = (*reader)->FindValueId(Value(int64_t{121}));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, kInvalidValueId);
  EXPECT_EQ(*(*reader)->LowerBoundVid(Value(int64_t{121})), 13u);
  EXPECT_EQ(*(*reader)->UpperBoundVid(Value(int64_t{120})), 13u);
}

// A resident int64 payload registers 8 bytes per dictionary entry, not a
// Value's 40: a column of few rows over many distinct values is almost all
// dictionary.
TEST_F(ResidentFragmentTest, Int64DictionaryRegistersEightBytesPerEntry) {
  constexpr uint64_t kEntries = 20000;
  auto frag = BuildIntFragment("c1", /*rows=*/64, kEntries, false);
  const uint64_t before = rm_->total_bytes();
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const uint64_t registered = rm_->total_bytes() - before;
  EXPECT_GE(registered, 8 * kEntries);
  EXPECT_LE(registered, 8 * kEntries + 4096);
  EXPECT_EQ(registered, frag->ResidentBytes());
}

TEST_F(ResidentFragmentTest, UnloadAndReload) {
  auto frag = BuildIntFragment("c1", 10000, 100, true);
  {
    auto reader = frag->NewReader();
    ASSERT_TRUE(reader.ok());
  }
  EXPECT_GT(frag->ResidentBytes(), 0u);
  frag->Unload();
  EXPECT_EQ(frag->ResidentBytes(), 0u);
  EXPECT_EQ(rm_->total_bytes(), 0u);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(frag->load_count(), 2u);
  auto vid = (*reader)->GetVid(123);
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, vids_[123]);
}

TEST_F(ResidentFragmentTest, EvictionByBudgetUnloadsColumn) {
  auto frag = BuildIntFragment("c1", 10000, 100, false);
  {
    auto reader = frag->NewReader();
    ASSERT_TRUE(reader.ok());
    // Reader holds a pin: eviction pressure cannot unload the column now.
    rm_->SetGlobalBudget(1);
    EXPECT_GT(frag->ResidentBytes(), 0u);
  }
  // Pin released: the next pressure event unloads it.
  rm_->SetGlobalBudget(1);
  EXPECT_EQ(frag->ResidentBytes(), 0u);
  rm_->SetGlobalBudget(0);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(frag->load_count(), 2u);
}

// A column larger than the whole budget still opens. Its load registers
// pinned: an unpinned registration pushed the total over budget, picked
// itself as the reactive victim and ran its callback on the loading thread,
// which already held the fragment's mutex.
TEST_F(ResidentFragmentTest, ColumnLargerThanBudgetLoadsPinned) {
  std::promise<void> finished;
  std::thread watchdog([done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "NewReader hung: the load evicted itself\n");
      std::abort();
    }
  });
  [&] {
    auto frag = BuildIntFragment("big", 10000, 100, false);
    ASSERT_TRUE(frag->NewReader().ok());
    frag->Unload();
    rm_->SetGlobalBudget(1);
    auto reader = frag->NewReader();
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (RowPos r : {0u, 4321u, 9999u}) {
      auto vid = (*reader)->GetVid(r);
      ASSERT_TRUE(vid.ok());
      EXPECT_EQ(*vid, vids_[r]);
    }
    // The reader's pin keeps the column over budget.
    EXPECT_GT(rm_->total_bytes(), 1u);
    EXPECT_GT(frag->ResidentBytes(), 0u);
    reader->reset();
    rm_->SetGlobalBudget(1);
    EXPECT_EQ(frag->ResidentBytes(), 0u);
    EXPECT_EQ(rm_->total_bytes(), 0u);
  }();
  finished.set_value();
  watchdog.join();
}

// Racing first readers share one load: loaders are serialized, and the
// ones that lose the race pin the winner's payload.
TEST_F(ResidentFragmentTest, ConcurrentFirstReadersShareOneLoad) {
  auto frag = BuildIntFragment("shared", 10000, 100, false);
  constexpr int kThreads = 4;
  std::atomic<int> matched{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto reader = frag->NewReader();
      if (!reader.ok()) return;
      auto vid = (*reader)->GetVid(7);
      if (vid.ok() && *vid == vids_[7]) matched.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(matched.load(), kThreads);
  EXPECT_EQ(frag->load_count(), 1u);
}

TEST_F(ResidentFragmentTest, OpenExistingFragment) {
  BuildIntFragment("persisted", 2000, 16, true);
  auto reopened = FullyResidentFragment::Open(storage_.get(), rm_.get(),
                                              "persisted");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->row_count(), 2000u);
  EXPECT_EQ((*reopened)->dict_size(), 16u);
  EXPECT_TRUE((*reopened)->has_index());
  auto reader = (*reopened)->NewReader();
  ASSERT_TRUE(reader.ok());
  auto vid = (*reader)->GetVid(1500);
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, vids_[1500]);
}

TEST_F(ResidentFragmentTest, StringColumnRoundtrip) {
  std::vector<std::string> dict_values;
  for (int i = 0; i < 26; ++i) {
    dict_values.emplace_back(3, static_cast<char>('a' + i));
  }
  std::vector<ValueId> vids;
  Random rng(9);
  for (int i = 0; i < 2000; ++i) {
    vids.push_back(static_cast<ValueId>(rng.Uniform(26)));
  }
  auto frag = FullyResidentFragment::Build(storage_.get(), rm_.get(), "str",
                                           dict_values, vids, false);
  ASSERT_TRUE(frag.ok());
  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  auto v = (*reader)->GetValueForVid(2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "ccc");
  auto vid = (*reader)->FindValueId(Value(std::string("zzz")));
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, 25u);
}

TEST_F(ResidentFragmentTest, SparseCodecChosenForSkewedColumns) {
  // 80% of rows hold vid 0 → the build must pick sparse encoding, and every
  // read path must agree with the source data.
  std::vector<int64_t> dict_values;
  for (int64_t i = 0; i < 30; ++i) dict_values.push_back(i * 2);
  Random rng(55);
  std::vector<ValueId> vids;
  for (int i = 0; i < 20000; ++i) {
    vids.push_back(rng.NextDouble() < 0.8
                       ? 0
                       : static_cast<ValueId>(rng.Uniform(30)));
  }
  auto frag = FullyResidentFragment::Build(storage_.get(), rm_.get(),
                                           "skew", dict_values, vids, false);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ((*frag)->codec(), FullyResidentFragment::Codec::kSparse);

  auto reader = (*frag)->NewReader();
  ASSERT_TRUE(reader.ok());
  for (RowPos r : {0u, 63u, 64u, 9999u, 19999u}) {
    auto vid = (*reader)->GetVid(r);
    ASSERT_TRUE(vid.ok());
    EXPECT_EQ(*vid, vids[r]);
  }
  std::vector<ValueId> got;
  ASSERT_TRUE((*reader)->MGetVids(500, 1500, &got).ok());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], vids[500 + i]);
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->FindRows(0, &rows).ok());  // the dominant vid
  std::vector<RowPos> expect;
  for (RowPos r = 0; r < vids.size(); ++r) {
    if (vids[r] == 0u) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
  rows.clear();
  ASSERT_TRUE((*reader)->SearchVidRange(100, 15000, 5, 12, &rows).ok());
  expect.clear();
  for (RowPos r = 100; r < 15000; ++r) {
    if (vids[r] >= 5 && vids[r] <= 12) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);

  // Unload + reload through the sparse persistence path.
  (*frag)->Unload();
  auto reader2 = (*frag)->NewReader();
  ASSERT_TRUE(reader2.ok());
  auto vid = (*reader2)->GetVid(12345);
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(*vid, vids[12345]);
}

TEST_F(ResidentFragmentTest, PackedCodecChosenForUniformColumns) {
  auto frag = BuildIntFragment("uniform", 5000, 64, false);
  EXPECT_EQ(frag->codec(), FullyResidentFragment::Codec::kPacked);
}

TEST_F(ResidentFragmentTest, SearchVidRangeOnDataVector) {
  auto frag = BuildIntFragment("c1", 4000, 40, false);
  auto reader = frag->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<RowPos> rows;
  ASSERT_TRUE((*reader)->SearchVidRange(500, 1500, 10, 19, &rows).ok());
  std::vector<RowPos> expect;
  for (RowPos r = 500; r < 1500; ++r) {
    if (vids_[r] >= 10 && vids_[r] <= 19) expect.push_back(r);
  }
  EXPECT_EQ(rows, expect);
}

}  // namespace
}  // namespace payg
