// CrashPoint: fault-injection sites inside FileDisk's write and checkpoint paths, and the
// CrashInjector that arms one site of this or another crash-point catalogue.
//
// Each point names one instant at which a power cut would leave the backing files in a
// distinct intermediate state. Tests arm an injector at one point, drive the write path
// until it fires, then remount and assert the recovery invariant: every acknowledged write
// is readable with a valid checksum, and no torn journal tail is replayed. The catalogue
// (with the file-level state each point produces) is documented in docs/STORAGE.md.

#ifndef SRC_STORE_CRASH_POINT_H_
#define SRC_STORE_CRASH_POINT_H_

#include <mutex>
#include <optional>

namespace afs {

enum class CrashPoint : int {
  // -- journal (group-commit) write path --------------------------------------
  kMidJournalAppend = 0,   // power cut halfway through writing a journal record: torn tail
  kAfterJournalAppend,     // record handed to the OS, fsync not yet requested: tail lost
  kBeforeJournalFsync,     // flusher about to fsync; bytes reached the platter, ack did not
  kAfterJournalFsync,      // batch durable, but acknowledgements never delivered
  // -- checkpoint path --------------------------------------------------------
  kBeforeCheckpointApply,  // checkpoint chosen, block area still untouched
  kMidCheckpointApply,     // half the checkpoint's sectors written: one torn sector
  kAfterCheckpointApply,   // block area synced, superblock not yet rewritten
  kAfterSuperblockWrite,   // superblock update staged but not synced: update lost
  kBeforeJournalTruncate,  // superblock durable, journal not yet reset: replay idempotent
};

inline constexpr CrashPoint kAllCrashPoints[] = {
    CrashPoint::kMidJournalAppend,    CrashPoint::kAfterJournalAppend,
    CrashPoint::kBeforeJournalFsync,  CrashPoint::kAfterJournalFsync,
    CrashPoint::kBeforeCheckpointApply, CrashPoint::kMidCheckpointApply,
    CrashPoint::kAfterCheckpointApply,  CrashPoint::kAfterSuperblockWrite,
    CrashPoint::kBeforeJournalTruncate,
};

// "mid_journal_append" etc., for parameterised test names and logs.
const char* CrashPointName(CrashPoint point);

// Arms at most one crash point of a catalogue (CrashPoint here, TierCrashPoint in
// src/tier/crash_point.h); the first visit to that site fires it (exactly once) and the
// owner simulates the power cut: FileDisk leaves its files as they are, TieredStore
// abandons the migration cycle. Thread-safe: the firing site may be a writer thread or the
// journal flusher.
template <typename Point>
class CrashInjector {
 public:
  void Arm(Point point) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = point;
    fired_ = false;
  }

  // True exactly once, when `point` is the armed site. Consumes the arming.
  bool Fire(Point point) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!armed_.has_value() || *armed_ != point) {
      return false;
    }
    armed_.reset();
    fired_ = true;
    return true;
  }

  bool fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

 private:
  mutable std::mutex mu_;
  std::optional<Point> armed_;
  bool fired_ = false;
};

}  // namespace afs

#endif  // SRC_STORE_CRASH_POINT_H_
