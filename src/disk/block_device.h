// BlockDevice: the storage abstraction under the block server (paper §4).
//
// The paper assumes exactly this contract: fixed-size blocks; "writing a block must be an
// atomic action, with an acknowledgement that is returned after the block has been stored";
// media occasionally corrupt a block or become (temporarily) inaccessible. Devices model
// the three media of Figure 2: fast "electronic" disks, magnetic disks, and write-once
// optical disks.

#ifndef SRC_DISK_BLOCK_DEVICE_H_
#define SRC_DISK_BLOCK_DEVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"

namespace afs {

// Block numbers are 28-bit on the wire (page references pack them with 4 flag bits, §5.1).
using BlockNo = uint32_t;
inline constexpr BlockNo kMaxBlockNo = (1u << 28) - 1;

struct DiskGeometry {
  uint32_t block_size = 0;
  uint32_t num_blocks = 0;
  // Each write waits for a flush that concurrent writes share (a journal's group commit),
  // so a writer of many blocks gains by keeping them in flight together. Part of the
  // geometry so that it passes through device decorators unchanged.
  bool writes_share_flush = false;
};

// The one simulated-latency knob shared by every storage layer (MemDisk, WriteOnceDisk,
// InMemoryBlockStore). Two cost models, combinable:
//   * spin ticks — a busy loop charged per operation; models CPU-attached "electronic"
//     disks and is safe to charge under a device mutex (it serialises like a disk arm).
//   * sleep — a real sleep charged per operation; models magnetic-disk I/O and must be
//     charged OUTSIDE caller locks so concurrent operations overlap.
// Charged latency is reported through the metrics layer when BindMetrics() was called.
class SimulatedLatency {
 public:
  void set_spin_ticks(uint32_t ticks) {
    spin_ticks_.store(ticks, std::memory_order_relaxed);
  }
  void set_sleep(std::chrono::microseconds us) {
    sleep_us_.store(static_cast<uint32_t>(us.count()), std::memory_order_relaxed);
  }

  // Route charged operations into a registry: a counter of charged ops and a histogram of
  // charged wall time. Either pointer may be null.
  void BindMetrics(obs::Counter* charged_ops, obs::Histogram* charged_ns) {
    charged_ops_ = charged_ops;
    charged_ns_ = charged_ns;
  }

  // Charge one operation's simulated cost. No-op (one relaxed load each) when both knobs
  // are zero.
  void Charge() const {
    const uint32_t ticks = spin_ticks_.load(std::memory_order_relaxed);
    const uint32_t us = sleep_us_.load(std::memory_order_relaxed);
    if (ticks == 0 && us == 0) {
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    if (ticks > 0) {
      volatile uint32_t sink = 0;
      for (uint32_t i = 0; i < ticks; ++i) {
        sink = sink + 1;
      }
    }
    if (us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
    if (charged_ops_ != nullptr) {
      charged_ops_->Inc();
    }
    if (charged_ns_ != nullptr) {
      charged_ns_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                               start)
              .count()));
    }
  }

 private:
  std::atomic<uint32_t> spin_ticks_{0};
  std::atomic<uint32_t> sleep_us_{0};
  obs::Counter* charged_ops_ = nullptr;
  obs::Histogram* charged_ns_ = nullptr;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual DiskGeometry geometry() const = 0;

  // Read one block into `out` (must be exactly block_size long).
  // kCorrupt if the stored data was damaged; kUnavailable if the device is offline.
  virtual Status Read(BlockNo bno, std::span<uint8_t> out) = 0;

  // Atomically persist one block; returns only after the block is durable.
  // kReadOnly on write-once media whose block was already written.
  virtual Status Write(BlockNo bno, std::span<const uint8_t> data) = 0;

  // Operation counters, used by benchmarks to count disk I/O independently of wall time.
  virtual uint64_t reads() const = 0;
  virtual uint64_t writes() const = 0;
};

}  // namespace afs

#endif  // SRC_DISK_BLOCK_DEVICE_H_
