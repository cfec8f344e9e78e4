// BlockStore: the client-side view of block storage that the file service is written
// against. Three implementations:
//   * BlockClient      — RPC stub talking to one BlockServer.
//   * StableStore      — a pair of BlockClients with automatic fail-over: "clients send
//                        requests to the alternative block server if the primary fails to
//                        respond" (§4).
//   * InMemoryBlockStore — direct in-process store, for unit tests and CPU-cost benchmarks
//                        that must not be dominated by RPC machinery.
//
// The file service's commit critical section (test-and-set of the commit reference, §5.2)
// is expressed through Lock/Read/Write/Unlock: "lock and read a block, examine and modify
// it, then write and unlock the block again" (§4).

#ifndef SRC_BLOCK_BLOCK_STORE_H_
#define SRC_BLOCK_BLOCK_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/capability.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/disk/block_device.h"
#include "src/obs/metrics.h"
#include "src/rpc/transport.h"

namespace afs {

// One element of a vectored write: overwrite block `bno` with `payload`.
struct BlockWrite {
  BlockNo bno = 0;
  std::vector<uint8_t> payload;
};

// One element of a vectored read reply: per-block status so a recovery scan can tolerate
// holes without failing the whole batch.
struct BlockReadResult {
  Status status;
  std::vector<uint8_t> data;  // valid iff status.ok()
};

class BlockStore {
 public:
  virtual ~BlockStore() = default;

  // Allocate a fresh block and write `payload` into it atomically.
  virtual Result<BlockNo> AllocWrite(std::span<const uint8_t> payload) = 0;
  // Overwrite an existing block atomically.
  virtual Status Write(BlockNo bno, std::span<const uint8_t> payload) = 0;
  virtual Result<std::vector<uint8_t>> Read(BlockNo bno) = 0;
  virtual Status Free(BlockNo bno) = 0;

  // --- Vectored I/O ---------------------------------------------------------
  // Defaults degrade to per-block loops, so every BlockStore supports the vectored API;
  // BlockClient, StableStore and InMemoryBlockStore override with native batch paths.
  //
  // Read many blocks; result[i] corresponds to bnos[i]. The top-level Result fails only on
  // transport-level errors; per-block failures (missing block, bad account) are reported
  // per entry.
  virtual Result<std::vector<BlockReadResult>> ReadMulti(std::span<const BlockNo> bnos);
  // Overwrite many existing blocks. Chunked under kMaxMessageBytes by RPC-backed stores;
  // each chunk is applied atomically with respect to collision detection (per-chunk
  // atomicity — see docs/PERF.md). A single payload too large for any message fails with
  // kInvalidArgument before anything is written.
  virtual Status WriteBatch(std::span<const BlockWrite> writes);
  // Free many blocks (idempotent per block, like Free).
  virtual Status FreeMulti(std::span<const BlockNo> bnos);
  // Reserve-and-stamp n fresh blocks in one round trip. Callers fill them with WriteBatch.
  virtual Result<std::vector<BlockNo>> AllocMulti(uint32_t n);

  // Advisory block lock keyed by a port. A lock whose port has died is stealable.
  virtual Status Lock(BlockNo bno, Port owner) = 0;
  virtual Status Unlock(BlockNo bno, Port owner) = 0;

  // All blocks owned by this store's account (the §4 recovery operation).
  virtual Result<std::vector<BlockNo>> ListBlocks() = 0;

  // Usable payload bytes per block.
  virtual uint32_t payload_capacity() const = 0;
};

// RPC stub bound to (server port, account capability). The vectored entry points chunk
// batches so that no request or reply message ever exceeds kMaxMessageBytes.
class BlockClient : public BlockStore {
 public:
  BlockClient(Transport* transport, Port server, Capability account, uint32_t payload_capacity);

  Result<BlockNo> AllocWrite(std::span<const uint8_t> payload) override;
  Status Write(BlockNo bno, std::span<const uint8_t> payload) override;
  Result<std::vector<uint8_t>> Read(BlockNo bno) override;
  Status Free(BlockNo bno) override;
  Result<std::vector<BlockReadResult>> ReadMulti(std::span<const BlockNo> bnos) override;
  Status WriteBatch(std::span<const BlockWrite> writes) override;
  Status FreeMulti(std::span<const BlockNo> bnos) override;
  Result<std::vector<BlockNo>> AllocMulti(uint32_t n) override;
  Status Lock(BlockNo bno, Port owner) override;
  Status Unlock(BlockNo bno, Port owner) override;
  Result<std::vector<BlockNo>> ListBlocks() override;
  uint32_t payload_capacity() const override { return payload_capacity_; }

  Port server_port() const { return server_; }

  // Test-only fault-injection hook: invoked between successive chunk RPCs of one vectored
  // call (after chunk `completed_chunks` was acked, before the next chunk is sent). Used
  // to crash the server mid-batch and assert per-chunk atomicity.
  void set_between_chunks_hook_for_test(std::function<void(size_t completed_chunks)> hook) {
    between_chunks_hook_ = std::move(hook);
  }

 private:
  // Largest number of blocks one ReadMulti chunk may request, bounded by the reply size.
  size_t ReadChunkBlocks() const;

  Transport* transport_;
  Port server_;
  Capability account_;
  uint32_t payload_capacity_;
  std::function<void(size_t)> between_chunks_hook_;
};

// Fail-over wrapper over the two members of a stable pair. Requests go to the preferred
// member; on kCrashed/kTimeout/kUnavailable the other member is tried and becomes preferred.
// Write collisions (kConflict) are retried with random backoff, per §4.
class StableStore : public BlockStore {
 public:
  StableStore(std::unique_ptr<BlockClient> a, std::unique_ptr<BlockClient> b,
              uint64_t retry_seed);

  Result<BlockNo> AllocWrite(std::span<const uint8_t> payload) override;
  Status Write(BlockNo bno, std::span<const uint8_t> payload) override;
  Result<std::vector<uint8_t>> Read(BlockNo bno) override;
  Status Free(BlockNo bno) override;
  Result<std::vector<BlockReadResult>> ReadMulti(std::span<const BlockNo> bnos) override;
  Status WriteBatch(std::span<const BlockWrite> writes) override;
  Status FreeMulti(std::span<const BlockNo> bnos) override;
  Result<std::vector<BlockNo>> AllocMulti(uint32_t n) override;
  Status Lock(BlockNo bno, Port owner) override;
  Status Unlock(BlockNo bno, Port owner) override;
  Result<std::vector<BlockNo>> ListBlocks() override;
  uint32_t payload_capacity() const override;

  // Failover observability: times the preferred member was abandoned on a connectivity
  // error (kCrashed/kTimeout/kUnavailable), and whether the pair is currently degraded to
  // single-member operation (gauge; its max() watermark records "ever failed over").
  uint64_t failovers() const { return failovers_->value(); }
  bool degraded() const { return degraded_->value() != 0; }
  obs::MetricRegistry* metrics() { return &metrics_; }

 private:
  // Runs `op` against the preferred member, failing over once on connectivity errors and
  // retrying a bounded number of times on collision.
  template <typename T>
  Result<T> WithFailover(const std::function<Result<T>(BlockClient*)>& op);

  std::unique_ptr<BlockClient> members_[2];
  std::mutex mu_;
  int preferred_ = 0;
  Rng rng_;

  obs::MetricRegistry metrics_{"stablestore"};
  obs::Counter* failovers_ = metrics_.counter("stable.failover");
  obs::Gauge* degraded_ = metrics_.gauge("stable.degraded");
};

// Direct in-process store (no RPC, no server). Thread-safe; internal state (block map and
// lock table alike) is striped into `num_shards` mutex shards keyed by block number, so
// concurrent operations on different blocks proceed in parallel.
class InMemoryBlockStore : public BlockStore {
 public:
  explicit InMemoryBlockStore(uint32_t payload_capacity = 4068, uint32_t num_blocks = 1 << 20,
                              uint32_t num_shards = 16);

  Result<BlockNo> AllocWrite(std::span<const uint8_t> payload) override;
  Status Write(BlockNo bno, std::span<const uint8_t> payload) override;
  Result<std::vector<uint8_t>> Read(BlockNo bno) override;
  Status Free(BlockNo bno) override;
  Result<std::vector<BlockReadResult>> ReadMulti(std::span<const BlockNo> bnos) override;
  Status WriteBatch(std::span<const BlockWrite> writes) override;
  Status FreeMulti(std::span<const BlockNo> bnos) override;
  Result<std::vector<BlockNo>> AllocMulti(uint32_t n) override;
  Status Lock(BlockNo bno, Port owner) override;
  Status Unlock(BlockNo bno, Port owner) override;
  Result<std::vector<BlockNo>> ListBlocks() override;
  uint32_t payload_capacity() const override { return payload_capacity_; }

  // Number of blocks currently allocated (GC tests assert exact reclamation).
  size_t allocated_blocks() const;
  uint64_t total_writes() const { return writes_->value(); }
  uint64_t total_reads() const { return reads_->value(); }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  // Simulated per-operation I/O latency, slept OUTSIDE the internal mutex so that
  // concurrent operations overlap — this is how benchmarks model the disk-bound servers
  // of the paper's era (DESIGN.md substitution table). Zero (the default) disables it.
  // A thin wrapper over the unified SimulatedLatency knob in src/disk/block_device.h.
  void set_op_latency(std::chrono::microseconds latency) { latency_.set_sleep(latency); }
  SimulatedLatency& latency() { return latency_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<BlockNo, std::vector<uint8_t>> blocks;
    std::unordered_map<BlockNo, Port> locks;
  };
  Shard& ShardFor(BlockNo bno) { return shards_[bno & shard_mask_]; }
  const Shard& ShardFor(BlockNo bno) const { return shards_[bno & shard_mask_]; }
  // Claim one fresh block number and install `payload` under its shard lock.
  Result<BlockNo> AllocOne(std::span<const uint8_t> payload);

  const uint32_t payload_capacity_;
  const uint32_t num_blocks_;
  SimulatedLatency latency_;
  std::vector<Shard> shards_;
  uint32_t shard_mask_ = 0;
  std::atomic<BlockNo> next_{0};
  std::atomic<size_t> allocated_{0};
  obs::MetricRegistry metrics_{"blockstore"};
  obs::Counter* reads_ = metrics_.counter("store.read");
  obs::Counter* writes_ = metrics_.counter("store.write");
  obs::Counter* frees_ = metrics_.counter("store.free");
  obs::Counter* lock_contended_ = metrics_.counter("store.lock_contended");
  obs::Counter* batch_reads_ = metrics_.counter("store.batch_read");
  obs::Counter* batch_writes_ = metrics_.counter("store.batch_write");
};

}  // namespace afs

#endif  // SRC_BLOCK_BLOCK_STORE_H_
