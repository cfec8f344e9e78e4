// LockingFileServer: the comparator the paper positions itself against (§3, §3.1) — a
// FELIX/XDFS-style file server with file-level two-phase locking, in-place updates, and a
// persistent undo log for crash recovery.
//
// Contrast points reproduced:
//   * Concurrency: one writer (or many readers) per file; disjoint updates of the *same*
//     file serialize behind the lock, where AFS's optimistic scheme lets them run (§6's
//     airline example). Claim C1.
//   * Recovery: a crash leaves in-place half-updates; on restart the server must roll back
//     every uncommitted transaction from its persisted undo log and clear locks before
//     serving ("Most systems that use locking need elaborate mechanisms to restore the
//     system after a crash", §5.3). AFS needs none. Claim C5.
//
// Files are flat arrays of pages; each page lives in its own block. Writes are performed
// in place after appending (old page contents) to a durable per-transaction undo log.

#ifndef SRC_BASELINE_LOCKING_SERVER_H_
#define SRC_BASELINE_LOCKING_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/base/capability.h"
#include "src/base/rng.h"
#include "src/block/block_store.h"
#include "src/rpc/service.h"

namespace afs {

enum class LockOp : uint32_t {
  // CreateFile: (u32 npages) -> (u64 file_id)
  kCreateFile = 1,
  // Begin: (u64 owner_port) -> (u64 tx_id)
  kBegin = 2,
  // OpenFile: (u64 tx, u64 file, u8 write_mode) -> ()   two-phase lock acquisition;
  //   kLocked if the lock cannot be granted within the wait budget.
  kOpenFile = 3,
  // Read: (u64 tx, u64 file, u32 page) -> (bytes)
  kRead = 4,
  // Write: (u64 tx, u64 file, u32 page, bytes) -> ()    undo-logged, then in place
  kWrite = 5,
  // Commit: (u64 tx) -> ()                               truncate log, release locks
  kCommit = 6,
  // Abort: (u64 tx) -> ()                                roll back from log, release locks
  kAbort = 7,
};

class LockingFileServer : public Service {
 public:
  LockingFileServer(Network* network, std::string name, BlockStore* blocks,
                    uint64_t seed = 17);
  ~LockingFileServer() override { StopAndJoin(); }

  // Direct API (same operations as the RPC surface).
  Result<uint64_t> CreateFile(uint32_t npages);
  Result<uint64_t> Begin(Port owner);
  Status OpenFile(uint64_t tx, uint64_t file, bool write_mode);
  Result<std::vector<uint8_t>> Read(uint64_t tx, uint64_t file, uint32_t page);
  Status Write(uint64_t tx, uint64_t file, uint32_t page, std::span<const uint8_t> data);
  Status Commit(uint64_t tx);
  Status Abort(uint64_t tx);

  // Restart cost, for claim C5: undo records rolled back during the last OnRestart().
  uint64_t last_recovery_rollbacks() const;
  uint64_t lock_waits() const;

 protected:
  Result<Message> Handle(const Message& request) override;

  // Crash recovery: scan the persisted undo logs, roll every uncommitted transaction back
  // (newest record first), then clear the logs. The file system is unavailable meanwhile —
  // exactly the weakness §3.1 calls out.
  void OnRestart() override;

 private:
  struct FileState {
    std::vector<BlockNo> pages;
    // File-level reader/writer lock.
    int readers = 0;
    uint64_t writer_tx = 0;
    std::vector<uint64_t> reader_txs;
  };
  struct UndoRecord {
    uint64_t file = 0;
    uint32_t page = 0;
    std::vector<uint8_t> old_data;
    BlockNo log_block = kMaxBlockNo;  // durable copy of this record
  };
  struct TxState {
    Port owner = kNullPort;
    std::vector<uint64_t> read_locks;
    std::vector<uint64_t> write_locks;
    std::vector<UndoRecord> undo;
  };

  Status PersistLogDirectoryLocked();
  Status RollbackLocked(TxState* tx);
  void ReleaseLocksLocked(uint64_t tx_id, TxState* tx);

  BlockStore* blocks_;
  Rng rng_;

  mutable std::mutex mu_;
  std::condition_variable lock_cv_;
  std::map<uint64_t, FileState> files_;
  std::unordered_map<uint64_t, TxState> txs_;
  uint64_t next_id_ = 1;
  // Durable directory of active undo-log blocks: block -> (file, page). Rebuilt into
  // rollback work at restart.
  BlockNo log_dir_block_ = kMaxBlockNo;
  std::map<BlockNo, std::pair<uint64_t, uint32_t>> log_blocks_;
  uint64_t last_recovery_rollbacks_ = 0;
  uint64_t lock_waits_ = 0;
};

}  // namespace afs

#endif  // SRC_BASELINE_LOCKING_SERVER_H_
