// BlockServer: the bottom of the storage hierarchy (paper §4, Figure 1).
//
// Manages fixed-size blocks on one BlockDevice: allocate, free, read, write — writes atomic
// and acknowledged only once durable — plus account-based protection, a simple locking
// facility, and the account-scan recovery operation. A BlockServer may be paired with a
// *companion* on a different disk to form stable storage: every write then goes to the
// companion's disk first ("in contrast to Lampson and Sturgis' method which uses one server
// and two disk drives"), collisions are detected at the companion, and after a crash the
// returning server compares notes with the survivor before accepting requests.
//
// Internal state is striped into `num_shards` mutex shards keyed by block number — each
// shard guards its slice of the allocation map, the lock table and the in-flight set — so
// the multi-worker Service scales instead of convoying on one mutex. Cross-block state
// (accounts, allocation cursor, intentions list) lives behind its own small mutexes or
// atomics. Lock order, where two are ever held: alloc_mu_ -> shard.mu.
//
// On-disk block format (self-describing, enabling Recover() by scan and CRC integrity):
//   u32 magic | u64 account_object | u64 write_seq | u32 payload_crc | u32 payload_len | data
// The header steals 28 bytes of each physical block; payload capacity is block_size - 28.

#ifndef SRC_BLOCK_BLOCK_SERVER_H_
#define SRC_BLOCK_BLOCK_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/capability.h"
#include "src/base/rng.h"
#include "src/disk/block_device.h"
#include "src/rpc/service.h"

namespace afs {

inline constexpr uint32_t kBlockHeaderBytes = 28;
inline constexpr uint32_t kBlockMagic = 0xafb10c05;

class BlockServer : public Service {
 public:
  // `device` must outlive the server. `secret_seed` keys the capability signer.
  // `num_shards` (rounded up to a power of two) stripes the lock/allocation state;
  // `num_workers` sizes the Service worker pool (bench_batch sweeps both).
  BlockServer(Network* network, std::string name, BlockDevice* device, uint64_t secret_seed,
              uint32_t num_shards = 16, int num_workers = 4);
  ~BlockServer() override;

  // Pair this server with its companion. Both directions must be configured. Until paired
  // (or when `companion == kNullPort`), the server runs standalone and writes only locally.
  void SetCompanion(Port companion);

  // Usable payload bytes per block.
  uint32_t payload_capacity() const;

  // Direct (in-process) account creation for bootstrap; also reachable via kCreateAccount.
  Capability CreateAccountDirect();

  // Cold-start adoption of pre-existing on-disk state (a persistent device, e.g. FileDisk,
  // opened from a previous process run): the same scan-and-compare-notes recovery that
  // OnRestart() performs after an in-process crash. Call after Start() (and after
  // SetCompanion, if any) and before serving clients.
  void RecoverFromDisk();

  // Test hooks / stats.
  uint64_t collisions_detected() const { return collisions_.load(); }
  uint64_t degraded_writes() const { return degraded_writes_.load(); }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  BlockDevice* device() const { return device_; }

 protected:
  Result<Message> Handle(const Message& request) override;

  // Crash recovery (paper §4): scan the local disk to rebuild the allocation map, then
  // compare notes with the companion — fetch its intentions list and replay the blocks this
  // server missed while down — before accepting any requests.
  void OnRestart() override;

 private:
  struct BlockMeta {
    uint64_t account = 0;
    uint64_t seq = 0;
    bool in_use = false;
  };

  // One stripe of the block-keyed state. blocks_[bno] (in the flat vector below) is guarded
  // by ShardFor(bno).mu as well.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<BlockNo, Port> locks;
    // Blocks with local primary operations currently in flight (value = nesting count); a
    // companion write that lands on one of these is a collision.
    std::unordered_map<BlockNo, int> in_flight_primary;
  };

  // One entry of a batched stable write, after validation and seq assignment.
  struct PendingWrite {
    BlockNo bno = 0;
    uint64_t account = 0;
    uint64_t seq = 0;
    std::vector<uint8_t> payload;
    bool is_alloc = false;
  };

  // -- Request handlers (one per opcode) ------------------------------------
  Result<Message> HandleCreateAccount(const Message& m);
  Result<Message> HandleAllocate(const Message& m);
  Result<Message> HandleAllocWrite(const Message& m);
  Result<Message> HandleWrite(const Message& m);
  Result<Message> HandleRead(const Message& m);
  Result<Message> HandleFree(const Message& m);
  Result<Message> HandleReadMulti(const Message& m);
  Result<Message> HandleWriteMulti(const Message& m);
  Result<Message> HandleFreeMulti(const Message& m);
  Result<Message> HandleAllocMulti(const Message& m);
  Result<Message> HandleLock(const Message& m);
  Result<Message> HandleUnlock(const Message& m);
  Result<Message> HandleRecover(const Message& m);
  Result<Message> HandleStat(const Message& m);
  Result<Message> HandleCompanionWrite(const Message& m);
  Result<Message> HandleCompanionWriteMulti(const Message& m);
  Result<Message> HandleCompanionFree(const Message& m);
  Result<Message> HandleFetchIntentions(const Message& m);
  Result<Message> HandleCompanionRead(const Message& m);

  // -- Internals -------------------------------------------------------------
  Shard& ShardFor(BlockNo bno) { return shards_[bno & shard_mask_]; }
  Status VerifyAccount(const Capability& cap, uint32_t rights, uint64_t* account_out);
  Result<BlockNo> PickFreeBlock();
  // Validates that `bno` exists, is allocated, and belongs to `account` (shared by the
  // single and vectored write/free paths). `require_in_use` false = free-style idempotence.
  Status CheckWritable(BlockNo bno, uint64_t account, bool* in_use_out);
  // Core of Write/AllocWrite: companion-first stable write, with intentions-list fallback
  // when the companion is down.
  Status StableWrite(BlockNo bno, uint64_t account, std::span<const uint8_t> payload,
                     bool is_alloc);
  // Batched form: ships the batch to the companion in kCompanionWriteMulti chunks (each
  // under kMaxMessageBytes), pipelining chunk i+1's companion RPC with chunk i's local
  // writes. Per-block companion-first order is preserved: a block is written locally only
  // after its chunk was acked (or the companion was found down and an intention recorded).
  Status StableWriteBatch(std::vector<PendingWrite> writes);
  Status WriteLocal(BlockNo bno, uint64_t account, uint64_t seq,
                    std::span<const uint8_t> payload);
  // Write one chunk's entries (each block at most once) to the local device; written[i]
  // is set for each entry stored, and the first failure (in entry order) is returned. On
  // a device whose writes share a flush (DiskGeometry::writes_share_flush: a journaled
  // FileDisk) the entries are written concurrently by this thread and the server's batch
  // writers, so the journal's group commit folds a chunk into one or two fsyncs instead
  // of one per block; otherwise in order on this thread. Each block write stays atomic;
  // the chunk is acknowledged only after every entry is stored.
  Status WriteLocalBatch(std::span<const PendingWrite> writes, char* written);
  // Reads the payload; on CRC failure consults the companion and repairs the local copy.
  Result<std::vector<uint8_t>> ReadPayload(BlockNo bno, uint64_t account,
                                           bool check_account);
  Result<std::vector<uint8_t>> FetchFromCompanion(BlockNo bno);
  void RecordIntention(BlockNo bno);
  void MarkInFlight(std::span<const PendingWrite> writes, int delta);
  void RebuildAllocationFromDisk();
  void ReplayIntentionsFromCompanion();

  // WriteLocalBatch's helper threads, on devices whose writes share a flush (first, so
  // the last member destroyed).
  class BatchWriters;
  std::unique_ptr<BatchWriters> writers_;

  BlockDevice* device_;
  CapabilitySigner signer_;

  std::mutex accounts_mu_;  // guards accounts_ and rng_
  Rng rng_;
  std::unordered_set<uint64_t> accounts_;

  std::vector<Shard> shards_;
  uint32_t shard_mask_ = 0;
  // blocks_[bno] is guarded by ShardFor(bno).mu; the vector itself is sized once.
  std::vector<BlockMeta> blocks_;

  std::mutex alloc_mu_;  // guards the cursor; PickFreeBlock takes shard locks under it
  BlockNo alloc_cursor_ = 0;

  std::mutex intentions_mu_;
  // Blocks written while the companion was unreachable; shipped to it on its restart.
  std::set<BlockNo> intentions_for_companion_;

  std::atomic<uint64_t> next_seq_{1};
  std::atomic<Port> companion_{kNullPort};
  std::atomic<uint64_t> collisions_{0};
  std::atomic<uint64_t> degraded_writes_{0};
};

}  // namespace afs

#endif  // SRC_BLOCK_BLOCK_SERVER_H_
