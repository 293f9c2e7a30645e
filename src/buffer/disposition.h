#ifndef PAYG_BUFFER_DISPOSITION_H_
#define PAYG_BUFFER_DISPOSITION_H_

#include <cstdint>

namespace payg {

// Cache-eviction policy category for a registered resource (§5). The
// resource manager evicts unused resources in descending order of t/w where
// t is the time since last touch and w the disposition weight — so a small
// weight means "evict me sooner".
enum class Disposition : uint8_t {
  kTemporary = 0,      // drop as soon as unused (intermediate results)
  kShortTerm = 1,      // delta fragments, transient helpers
  kMidTerm = 2,        // fully resident main structures (default columns)
  kLongTerm = 3,       // performance-critical pinned-by-policy columns
  kNonSwappable = 4,   // can never be unloaded
  kPagedAttribute = 5, // pages of page loadable columns; governed by the
                       // paged pool's lower/upper limits, weight ignored
};

// Weight w used in the t/w eviction ordering. kNonSwappable and
// kPagedAttribute never go through this ordering but get a value for
// completeness.
inline double DispositionWeight(Disposition d) {
  switch (d) {
    case Disposition::kTemporary:
      return 1.0;
    case Disposition::kShortTerm:
      return 4.0;
    case Disposition::kMidTerm:
      return 16.0;
    case Disposition::kLongTerm:
      return 64.0;
    case Disposition::kNonSwappable:
      return 1e18;
    case Disposition::kPagedAttribute:
      return 8.0;
  }
  return 1.0;
}

// Which pool a paged-attribute resource belongs to. Cold partitions load
// their pages into a pool separate from other database objects (§4.1).
enum class PoolId : uint8_t {
  kGeneral = 0,
  kPagedPool = 1,
  kColdPagedPool = 2,
};

inline constexpr int kNumPools = 3;

}  // namespace payg

#endif  // PAYG_BUFFER_DISPOSITION_H_
