// TierCrashPoint: fault-injection sites inside the migrate → record-location →
// free-magnetic sequence of TieredStore::MigrateBlocks.
//
// Each point names one instant at which a power cut would leave the two tiers in a distinct
// intermediate state. The migration protocol's invariant — every committed version stays
// readable from one tier or the other — must hold at every point; tests arm a
// CrashInjector<TierCrashPoint> (src/store/crash_point.h), drive a migration until it
// fires, simulate a restart (fresh WriteOnceDisk + TieredStore over the same media), and
// assert every committed version still reads back byte-identical.
// The per-point media states are catalogued in docs/TIERING.md's crash matrix.

#ifndef SRC_TIER_CRASH_POINT_H_
#define SRC_TIER_CRASH_POINT_H_

#include "src/store/crash_point.h"

namespace afs {

enum class TierCrashPoint : int {
  kBeforeBurn = 0,  // batch read from magnetic done, nothing burned: pure magnetic state
  kMidBurn,         // some blocks burned (location recorded), the rest still magnetic-only
  kAfterBurn,       // every block burned + location durable, magnetic copies all still live
  kMidFree,         // half the magnetic copies freed, the rest doubly resident
  kAfterFree,       // frees complete; the cut lands before stats are finalised
};

inline constexpr TierCrashPoint kAllTierCrashPoints[] = {
    TierCrashPoint::kBeforeBurn, TierCrashPoint::kMidBurn, TierCrashPoint::kAfterBurn,
    TierCrashPoint::kMidFree,    TierCrashPoint::kAfterFree,
};

// "before_burn" etc., for parameterised test names and logs.
inline const char* TierCrashPointName(TierCrashPoint point) {
  switch (point) {
    case TierCrashPoint::kBeforeBurn:
      return "before_burn";
    case TierCrashPoint::kMidBurn:
      return "mid_burn";
    case TierCrashPoint::kAfterBurn:
      return "after_burn";
    case TierCrashPoint::kMidFree:
      return "mid_free";
    case TierCrashPoint::kAfterFree:
      return "after_free";
  }
  return "unknown";
}

}  // namespace afs

#endif  // SRC_TIER_CRASH_POINT_H_
