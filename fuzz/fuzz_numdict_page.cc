// Fuzz target for the numeric dictionary pages (ParseNumericDictPage and
// NumericDictPageView in src/paged/paged_numeric_dictionary.cc): the
// on-disk bytes a paged numeric dictionary searches in place. Properties
// checked:
//
//   1. Never crash. The payload is heap-copied at its exact size, so a read
//      past an accepted image is an ASan report, i.e. a validator gap.
//   2. An accepted page decodes alike through Key (PackedGet) and
//      AppendKeys (PackedMGet).
//   3. Whenever the decoded keys are sorted, LowerBound agrees with
//      std::lower_bound over the decoded keys, for keys on the page, their
//      neighbours, both ends of the key space and one probe from the input.
//
// Input layout (40-byte header, then the page payload):
//   u32 @0   key count (the page header's aux)
//   u32 @4   width (the page header's aux2)
//   u64 @8   values per page
//   u64 @16  fence base
//   u64 @24  fence stride
//   u64 @32  extra probe
//   rest     payload

#include <algorithm>
#include <cstring>
#include <vector>

#include "paged/paged_numeric_dictionary.h"

#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 40) return 0;
  uint32_t count = 0, width = 0;
  uint64_t per_page = 0, probe = 0;
  payg::NumericDictFence fence;
  std::memcpy(&count, data, 4);
  std::memcpy(&width, data + 4, 4);
  std::memcpy(&per_page, data + 8, 8);
  std::memcpy(&fence.base, data + 16, 8);
  std::memcpy(&fence.stride, data + 24, 8);
  std::memcpy(&probe, data + 32, 8);
  std::vector<uint8_t> payload(data + 40, data + size);

  payg::NumericDictPageView view;
  payg::Status s = payg::ParseNumericDictPage(
      payload.data(), static_cast<uint32_t>(payload.size()), count, width,
      per_page, fence, &view);
  if (!s.ok() || view.count == 0) return 0;

  std::vector<uint64_t> keys;
  view.AppendKeys(0, view.count, &keys);
  for (uint64_t i = 0; i < view.count; ++i) {
    if (view.Key(i) != keys[i]) __builtin_trap();
  }
  if (!std::is_sorted(keys.begin(), keys.end())) return 0;

  std::vector<uint64_t> probes = {0, ~uint64_t{0}, probe};
  const uint64_t step = view.count / 16 + 1;
  for (uint64_t i = 0; i < view.count; i += step) {
    probes.insert(probes.end(), {keys[i], keys[i] - 1, keys[i] + 1});
  }
  probes.push_back(keys.back());
  for (uint64_t p : probes) {
    const auto want = static_cast<uint64_t>(
        std::lower_bound(keys.begin(), keys.end(), p) - keys.begin());
    if (view.LowerBound(p) != want) __builtin_trap();
  }
  return 0;
}
