// Write-ahead journal with batched group commit (the durability hot path under FileDisk).
//
// Append() stages one self-describing record and blocks until a single flusher thread has
// fsynced it; the flusher gathers every record staged within a tunable window into one
// fsync, so N concurrent writers pay ~one fsync between them instead of N ("group commit").
// The acknowledgement discipline is the paper's §4 contract verbatim: "an acknowledgement
// ... is returned after the block has been stored" — Append returns only once the record
// is across the durability boundary.
//
// Record layout (little-endian), designed so a mount-time scan can distinguish a complete
// record from a torn tail without any external index:
//   u32 magic | u32 bno | u64 lsn | u32 payload_len | u32 payload_crc | u32 header_crc
//   | payload_len bytes of payload
// header_crc covers the five preceding fields; payload_crc covers the payload. Recover()
// replays records until the first short, unmagical, or CRC-failing one, then truncates the
// torn tail so it can never be replayed twice.

#ifndef SRC_STORE_JOURNAL_H_
#define SRC_STORE_JOURNAL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/disk/block_device.h"
#include "src/obs/metrics.h"
#include "src/store/crash_point.h"
#include "src/store/stable_file.h"

namespace afs {

inline constexpr uint32_t kJournalMagic = 0xaf10ab1e;
inline constexpr uint32_t kJournalRecordHeaderBytes = 28;

struct JournalOptions {
  // How long the flusher lingers after waking to let more writers join the batch. Zero
  // fsyncs immediately (lowest latency, one fsync per record under light load).
  std::chrono::microseconds group_commit_window{0};
};

class Journal {
 public:
  // `file` must outlive the journal. `metrics` receives the append/fsync instruments
  // (may be shared with the owning FileDisk's registry). `injector` may be null.
  Journal(StableFile* file, JournalOptions options, obs::MetricRegistry* metrics,
          CrashInjector<CrashPoint>* injector);
  ~Journal();

  // Called once if a crash point fires inside the journal, so the owner can cut power to
  // its other backing files too (the whole device loses power, not just the journal).
  void set_on_power_cut(std::function<void()> hook) { on_power_cut_ = std::move(hook); }

  // One record found intact by the mount-time scan.
  struct ReplayedRecord {
    uint64_t lsn = 0;
    BlockNo bno = 0;
    uint64_t payload_offset = 0;  // byte offset of the payload within the journal file
    uint32_t payload_len = 0;
    uint32_t payload_crc = 0;
  };

  // Mount-time recovery: scan the file, return every complete CRC-valid record in LSN
  // order, truncate the torn tail (if any), and prime the LSN counter. Must be called
  // (once) before Start(). `torn_bytes_out` reports how much tail was discarded.
  Result<std::vector<ReplayedRecord>> Recover(uint32_t max_payload_len,
                                              uint64_t* torn_bytes_out);

  // Launch the flusher; Append() may be called from any thread afterwards.
  void Start();

  // Durable append: stages the record, joins the next group commit, and returns its
  // location once fsynced. kUnavailable after a (simulated) power failure.
  Result<ReplayedRecord> Append(BlockNo bno, std::span<const uint8_t> payload);

  // Truncate to empty after a checkpoint made the journal's contents redundant. The LSN
  // counter keeps counting — LSNs are unique for the lifetime of the store.
  Status Reset();

  // Stop the flusher (no implicit flush: Close paths must Reset/Sync explicitly first).
  void Stop();

  // Mark the journal dead after an external power cut (checkpoint crash points).
  void Kill();

  bool dead() const;
  uint64_t tail_bytes() const;  // staged end offset, i.e. current journal length
  uint64_t appends() const { return append_ctr_->value(); }
  uint64_t fsync_batches() const { return fsync_ctr_->value(); }

 private:
  void FlusherLoop();
  // Fires `point` if armed: simulates the power cut (keeping `keep_bytes` of the staged
  // journal tail) and marks the journal dead. Returns true if it fired. mu_ must be held.
  bool MaybeCrashLocked(CrashPoint point, uint64_t keep_bytes);

  StableFile* file_;
  const JournalOptions options_;
  CrashInjector<CrashPoint>* injector_;
  std::function<void()> on_power_cut_;

  mutable std::mutex mu_;
  std::condition_variable flusher_cv_;  // signals the flusher: work or shutdown
  std::condition_variable waiters_cv_;  // signals writers: durable_lsn_ advanced (or death)
  std::thread flusher_;
  bool started_ = false;
  bool stop_ = false;
  bool dead_ = false;
  uint64_t next_lsn_ = 1;
  uint64_t staged_lsn_ = 0;   // highest LSN staged into the file
  uint64_t durable_lsn_ = 0;  // highest LSN known fsynced
  uint64_t end_offset_ = 0;   // staged end of the journal file
  uint64_t durable_end_ = 0;  // end offset covered by the last fsync

  obs::Counter* append_ctr_;
  obs::Counter* fsync_ctr_;
  obs::Gauge* queue_depth_;           // records staged but not yet durable (max = worst)
  obs::Histogram* flush_batch_hist_;  // journal.flush.batch_size: records per fsync batch
  obs::Histogram* batch_bytes_hist_;  // bytes per fsync batch
  obs::Histogram* commit_ns_hist_;    // Append latency: stage -> durable
};

}  // namespace afs

#endif  // SRC_STORE_JOURNAL_H_
