// FileDisk: a durable, file-backed BlockDevice — the first backend whose contents survive
// process exit, giving the stable-pair machinery (paper §4) something genuinely stable to
// stand on.
//
// Layout: two host files per disk.
//   <path>            the block area: dual superblocks (written alternately, so a torn
//                     superblock write can never brick the disk) followed by one sector
//                     per block. Each sector carries a 32-byte header — magic, block
//                     number, mount epoch, LSN, and a CRC32C over payload + block number +
//                     epoch + LSN — so torn and misdirected writes are detected on read.
//   <path>.journal    a write-ahead journal of complete block images with batched group
//                     commit (journal.h). Every Write() is journal-append + fsync before
//                     the acknowledgement; the block area is only updated by checkpoints.
//
// Write path: append to the journal (group commit amortises the fsync across concurrent
// writers), remember "newest copy lives in the journal" in an in-memory index, ack. When
// the journal passes a size threshold a checkpoint folds the journaled blocks into their
// block-area sectors, syncs, bumps the superblock, and truncates the journal.
//
// Mount: pick the newer valid superblock, adopt its geometry, bump the epoch, then replay
// the journal — complete CRC-valid records rebuild the index; the first torn or corrupt
// record ends the scan and the tail is truncated so it can never be replayed. Acknowledged
// writes are therefore always recovered; an unacknowledged tail may survive (if it was
// already complete on the platter) or vanish — never anything in between.
//
// A CrashInjector<CrashPoint> (crash_point.h) can cut the power at every interesting instant of
// the write and checkpoint paths; the backing files are left exactly as a power failure
// would leave them, and tests remount to drive the real recovery code.

#ifndef SRC_STORE_FILE_DISK_H_
#define SRC_STORE_FILE_DISK_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "src/disk/block_device.h"
#include "src/obs/metrics.h"
#include "src/store/crash_point.h"
#include "src/store/journal.h"
#include "src/store/stable_file.h"

namespace afs {

inline constexpr uint32_t kSuperblockMagic = 0xaf5d15c0;
inline constexpr uint32_t kSectorMagic = 0xaf5ec706;
inline constexpr uint32_t kSuperblockSlotBytes = 512;
inline constexpr uint32_t kBlockAreaOffset = 2 * kSuperblockSlotBytes;
inline constexpr uint32_t kSectorHeaderBytes = 32;

struct FileDiskOptions {
  // Geometry, used only when creating a fresh disk; reopening adopts the superblock's.
  uint32_t block_size = 4096;
  uint32_t num_blocks = 1 << 14;
  // Group-commit window (see JournalOptions). Zero = fsync each record immediately.
  std::chrono::microseconds group_commit_window{0};
  // Journal length that triggers an automatic checkpoint.
  uint64_t checkpoint_threshold_bytes = 8ull << 20;
};

class FileDisk : public BlockDevice {
 public:
  // Opens (creating if absent) the disk at `path`, runs mount-time recovery, and starts
  // the group-commit flusher. `injector` (may be null) arms simulated power cuts.
  static Result<std::unique_ptr<FileDisk>> Open(const std::string& path,
                                                const FileDiskOptions& options = {},
                                                CrashInjector<CrashPoint>* injector = nullptr);
  ~FileDisk() override;

  DiskGeometry geometry() const override { return geometry_; }
  Status Read(BlockNo bno, std::span<uint8_t> out) override;
  Status Write(BlockNo bno, std::span<const uint8_t> data) override;
  uint64_t reads() const override { return reads_->value(); }
  uint64_t writes() const override { return writes_->value(); }

  // Fold every journaled block into the block area and truncate the journal. Runs
  // automatically when the journal passes the size threshold; callable any time.
  Status Checkpoint();

  // Orderly shutdown: checkpoint, stop the flusher. Idempotent; the destructor calls it.
  // After a (simulated) power cut this flushes nothing — the post-crash image stays put.
  Status Close();

  // Fault injection, same contract as MemDisk::CorruptBlock: damages the stored copy of
  // `bno` (whichever file currently holds it); the next Read() returns kCorrupt.
  void CorruptBlock(BlockNo bno);

  // Unified simulated-latency knob, charged once per Read/Write like the other devices.
  SimulatedLatency& latency() { return latency_; }

  // -- mount / recovery / journal introspection (tests, benches, the shell) ----
  uint64_t epoch() const { return epoch_; }
  uint64_t recovered_records() const { return recovered_records_; }
  uint64_t torn_bytes_discarded() const { return torn_bytes_; }
  uint64_t journal_bytes() const { return journal_->tail_bytes(); }
  uint64_t journal_appends() const { return journal_->appends(); }
  uint64_t fsync_batches() const { return journal_->fsync_batches(); }
  uint64_t checkpoints() const { return checkpoints_->value(); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }

 private:
  // Where the newest committed copy of a journaled block lives.
  struct JournalEntry {
    uint64_t lsn = 0;
    uint64_t payload_offset = 0;
    uint32_t payload_crc = 0;
  };

  FileDisk(std::string path, FileDiskOptions options, CrashInjector<CrashPoint>* injector);

  Status Mount();
  Status WriteSuperblock();
  Status CheckpointLocked();  // requires io_mu_ held exclusively
  uint64_t SectorOffset(BlockNo bno) const {
    return kBlockAreaOffset +
           static_cast<uint64_t>(bno) * (kSectorHeaderBytes + geometry_.block_size);
  }
  uint32_t SectorCrc(std::span<const uint8_t> payload, BlockNo bno, uint64_t epoch,
                     uint64_t lsn) const;
  Status ReadSector(BlockNo bno, std::span<uint8_t> out);
  // Fires `point` if armed: power-cuts both files (the block area keeping `block_keep`
  // staged bytes) and marks the device crashed. Returns true if it fired.
  bool MaybeCrash(CrashPoint point, uint64_t block_keep);
  Status CheckAccess(BlockNo bno, size_t len) const;

  const std::string path_;
  const FileDiskOptions options_;
  CrashInjector<CrashPoint>* const injector_;
  DiskGeometry geometry_;

  std::unique_ptr<StableFile> block_file_;
  std::unique_ptr<StableFile> journal_file_;
  std::unique_ptr<Journal> journal_;

  // Writers and readers share; a checkpoint is exclusive (it moves blocks between files).
  std::shared_mutex io_mu_;
  std::mutex index_mu_;
  std::unordered_map<BlockNo, JournalEntry> journal_index_;

  uint64_t epoch_ = 0;
  uint64_t superblock_seqno_ = 0;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t recovered_records_ = 0;
  uint64_t torn_bytes_ = 0;
  std::atomic<bool> crashed_{false};
  bool closed_ = false;

  SimulatedLatency latency_;
  obs::MetricRegistry metrics_{"filedisk"};
  obs::Counter* reads_ = metrics_.counter("disk.read");
  obs::Counter* writes_ = metrics_.counter("disk.write");
  obs::Counter* checkpoints_ = metrics_.counter("journal.checkpoint");
  obs::Counter* checkpoint_blocks_ = metrics_.counter("journal.checkpoint_blocks");
  obs::Counter* recovery_replayed_ = metrics_.counter("recovery.replayed_records");
  obs::Counter* recovery_torn_ = metrics_.counter("recovery.torn_bytes");
};

}  // namespace afs

#endif  // SRC_STORE_FILE_DISK_H_
