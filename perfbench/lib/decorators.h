// Pass-through decorators that measure the storage layers from outside.
//
// CountingBlockStore sits between FileServer and its BlockStore (the TieredStore over the
// stable pair): every call the file service makes into block storage is counted by
// operation, with blocks and bytes moved and wall time spent below. CountingBlockDevice
// sits between a BlockServer and its BlockDevice and counts device reads and writes with
// their latency. Both forward every call unchanged; when span recording is on they open a
// span around the forwarded call, which nests under the program's own rpc/handle spans.
//
// For the benchmark's self-check, CountingBlockStore can be armed to flip one byte of a
// read result (ArmFlip); the payload verification must then report the corruption.

#ifndef PERFBENCH_LIB_DECORATORS_H_
#define PERFBENCH_LIB_DECORATORS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "lib/stats.h"
#include "src/block/block_store.h"
#include "src/disk/block_device.h"

namespace perfbench {

// BlockStore entry points, in the order of the block.calls.* metrics.
enum BlockOp : int {
  kOpRead,
  kOpReadMulti,
  kOpWrite,
  kOpWriteBatch,
  kOpAllocWrite,
  kOpAllocMulti,
  kOpFree,
  kOpFreeMulti,
  kOpLock,
  kOpUnlock,
  kOpList,
  kNumBlockOps,
};
const char* BlockOpName(int op);

struct BlockStoreTotals {
  std::array<uint64_t, kNumBlockOps> calls{};
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_written = 0;
  uint64_t busy_ns = 0;  // wall time inside the wrapped store, summed over calls

  BlockStoreTotals operator-(const BlockStoreTotals& base) const;
  BlockStoreTotals& operator+=(const BlockStoreTotals& other);
};

class CountingBlockStore : public afs::BlockStore {
 public:
  // `inner` must outlive the decorator.
  explicit CountingBlockStore(afs::BlockStore* inner) : inner_(inner) {}

  afs::Result<afs::BlockNo> AllocWrite(std::span<const uint8_t> payload) override;
  afs::Status Write(afs::BlockNo bno, std::span<const uint8_t> payload) override;
  afs::Result<std::vector<uint8_t>> Read(afs::BlockNo bno) override;
  afs::Status Free(afs::BlockNo bno) override;
  afs::Result<std::vector<afs::BlockReadResult>> ReadMulti(
      std::span<const afs::BlockNo> bnos) override;
  afs::Status WriteBatch(std::span<const afs::BlockWrite> writes) override;
  afs::Status FreeMulti(std::span<const afs::BlockNo> bnos) override;
  afs::Result<std::vector<afs::BlockNo>> AllocMulti(uint32_t n) override;
  afs::Status Lock(afs::BlockNo bno, afs::Port owner) override;
  afs::Status Unlock(afs::BlockNo bno, afs::Port owner) override;
  afs::Result<std::vector<afs::BlockNo>> ListBlocks() override;
  uint32_t payload_capacity() const override { return inner_->payload_capacity(); }

  BlockStoreTotals totals() const;

  // Flip the last byte of the next read result whose payload is at least `min_len` bytes
  // long (a data page; version pages are shorter). One-shot.
  void ArmFlip(size_t min_len) { flip_min_len_.store(min_len); }

 private:
  void Account(int op, uint64_t start_ns, uint64_t blocks_read, uint64_t blocks_written,
               uint64_t bytes_written);
  void MaybeFlip(std::vector<uint8_t>* data);

  afs::BlockStore* inner_;
  std::array<std::atomic<uint64_t>, kNumBlockOps> calls_{};
  std::atomic<uint64_t> blocks_read_{0};
  std::atomic<uint64_t> blocks_written_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<size_t> flip_min_len_{0};  // 0 = disarmed
};

struct DeviceTotals {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t busy_ns = 0;
  uint32_t high_water = 0;  // highest block number written, plus one

  DeviceTotals operator-(const DeviceTotals& base) const;
  DeviceTotals& operator+=(const DeviceTotals& other);
};

class CountingBlockDevice : public afs::BlockDevice {
 public:
  // `inner` must outlive the decorator.
  explicit CountingBlockDevice(afs::BlockDevice* inner) : inner_(inner) {}

  afs::DiskGeometry geometry() const override { return inner_->geometry(); }
  afs::Status Read(afs::BlockNo bno, std::span<uint8_t> out) override;
  afs::Status Write(afs::BlockNo bno, std::span<const uint8_t> data) override;
  uint64_t reads() const override { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const override { return writes_.load(std::memory_order_relaxed); }

  DeviceTotals totals() const;
  // Write latencies recorded since the last call (moved out).
  std::vector<uint64_t> TakeWriteLatencies();
  // True while a Read or Write is inside the device.
  bool busy() const { return busy_.load() != 0; }

 private:
  afs::BlockDevice* inner_;
  std::atomic<int> busy_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint32_t> high_water_{0};
  SampleLog write_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_DECORATORS_H_
