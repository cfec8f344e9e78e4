#include "src/disk/mem_disk.h"

#include <cstring>

namespace afs {

MemDisk::MemDisk(uint32_t block_size, uint32_t num_blocks)
    : block_size_(block_size),
      num_blocks_(num_blocks),
      data_(static_cast<size_t>(block_size) * num_blocks, 0),
      written_(num_blocks, false) {
  latency_.BindMetrics(metrics_.counter("disk.charged_ops"),
                       metrics_.histogram("disk.charged_ns"));
}

DiskGeometry MemDisk::geometry() const { return {block_size_, num_blocks_}; }

Status MemDisk::CheckAccess(BlockNo bno, size_t len, size_t expected_len) const {
  if (offline_) {
    return UnavailableError("disk offline");
  }
  if (bno >= num_blocks_) {
    return InvalidArgumentError("block number out of range");
  }
  if (len != expected_len) {
    return InvalidArgumentError("buffer size != block size");
  }
  return OkStatus();
}

Status MemDisk::Read(BlockNo bno, std::span<uint8_t> out) {
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(CheckAccess(bno, out.size(), block_size_));
  latency_.Charge();
  std::memcpy(out.data(), data_.data() + static_cast<size_t>(bno) * block_size_, block_size_);
  reads_->Inc();
  return OkStatus();
}

Status MemDisk::Write(BlockNo bno, std::span<const uint8_t> data) {
  std::lock_guard<std::mutex> lock(mu_);
  RETURN_IF_ERROR(CheckAccess(bno, data.size(), block_size_));
  latency_.Charge();
  std::memcpy(data_.data() + static_cast<size_t>(bno) * block_size_, data.data(), block_size_);
  written_[bno] = true;
  writes_->Inc();
  return OkStatus();
}

void MemDisk::CorruptBlock(BlockNo bno) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bno < num_blocks_) {
    data_[static_cast<size_t>(bno) * block_size_] ^= 0xff;
  }
}

void MemDisk::SetOffline(bool offline) {
  std::lock_guard<std::mutex> lock(mu_);
  offline_ = offline;
}

void MemDisk::WipeClean() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(data_.begin(), data_.end(), 0);
  std::fill(written_.begin(), written_.end(), false);
}

}  // namespace afs
