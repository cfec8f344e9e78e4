// TimestampFileServer: SWALLOW-style comparator (paper §3, [Reed78]'s pseudo-time).
//
// Every transaction receives a timestamp at Begin; every page carries the largest read and
// write timestamps that have touched it. Basic timestamp ordering:
//   * Read by T:  rejected (kConflict) if ts(T) < write_ts(page) — T arrived too late;
//     otherwise read_ts(page) = max(read_ts, ts(T)).
//   * Write by T: rejected if ts(T) < read_ts(page) or ts(T) < write_ts(page); writes are
//     buffered until commit (versions in pseudo-time), then applied atomically.
// No locks, no deadlocks, but late transactions abort even without true contention — the
// behaviour the C1 benchmark contrasts against OCC and locking.

#ifndef SRC_BASELINE_TIMESTAMP_SERVER_H_
#define SRC_BASELINE_TIMESTAMP_SERVER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/block/block_store.h"
#include "src/rpc/service.h"

namespace afs {

enum class TsOp : uint32_t {
  kCreateFile = 1,  // (u32 npages) -> (u64 file_id)
  kBegin = 2,       // () -> (u64 tx)
  kRead = 3,        // (u64 tx, u64 file, u32 page) -> (bytes)
  kWrite = 4,       // (u64 tx, u64 file, u32 page, bytes) -> ()
  kCommit = 5,      // (u64 tx) -> ()
  kAbort = 6,       // (u64 tx) -> ()
};

class TimestampFileServer : public Service {
 public:
  TimestampFileServer(Network* network, std::string name, BlockStore* blocks);
  ~TimestampFileServer() override { StopAndJoin(); }

  Result<uint64_t> CreateFile(uint32_t npages);
  Result<uint64_t> Begin();
  Result<std::vector<uint8_t>> Read(uint64_t tx, uint64_t file, uint32_t page);
  Status Write(uint64_t tx, uint64_t file, uint32_t page, std::span<const uint8_t> data);
  Status Commit(uint64_t tx);
  Status Abort(uint64_t tx);

  uint64_t timestamp_aborts() const;

 protected:
  Result<Message> Handle(const Message& request) override;

 private:
  struct PageState {
    BlockNo block = kMaxBlockNo;
    uint64_t read_ts = 0;
    uint64_t write_ts = 0;
  };
  struct TxState {
    uint64_t ts = 0;
    // Buffered writes: (file, page) -> data, applied at commit in pseudo-time order.
    std::map<std::pair<uint64_t, uint32_t>, std::vector<uint8_t>> writes;
  };

  BlockStore* blocks_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<PageState>> files_;
  std::unordered_map<uint64_t, TxState> txs_;
  uint64_t next_id_ = 1;
  uint64_t clock_ = 1;
  uint64_t ts_aborts_ = 0;
};

}  // namespace afs

#endif  // SRC_BASELINE_TIMESTAMP_SERVER_H_
