#include "lib/decorators.h"

#include <algorithm>

#include "src/obs/span.h"

namespace perfbench {

using afs::BlockNo;
using afs::Result;
using afs::Status;

namespace {

// Span names, one per BlockOp ("pb.bs." prefix: the block layer, seen from core).
constexpr const char* kSpanNames[kNumBlockOps] = {
    "pb.bs.read",        "pb.bs.read_multi", "pb.bs.write",  "pb.bs.write_batch",
    "pb.bs.alloc_write", "pb.bs.alloc_multi", "pb.bs.free",  "pb.bs.free_multi",
    "pb.bs.lock",        "pb.bs.unlock",     "pb.bs.list",
};

constexpr const char* kOpNames[kNumBlockOps] = {
    "read", "read_multi", "write", "write_batch", "alloc_write", "alloc_multi",
    "free", "free_multi", "lock",  "unlock",      "list",
};

}  // namespace

const char* BlockOpName(int op) { return kOpNames[op]; }

BlockStoreTotals BlockStoreTotals::operator-(const BlockStoreTotals& base) const {
  BlockStoreTotals d;
  for (int i = 0; i < kNumBlockOps; ++i) {
    d.calls[i] = calls[i] - base.calls[i];
  }
  d.blocks_read = blocks_read - base.blocks_read;
  d.blocks_written = blocks_written - base.blocks_written;
  d.bytes_written = bytes_written - base.bytes_written;
  d.busy_ns = busy_ns - base.busy_ns;
  return d;
}

BlockStoreTotals& BlockStoreTotals::operator+=(const BlockStoreTotals& other) {
  for (int i = 0; i < kNumBlockOps; ++i) {
    calls[i] += other.calls[i];
  }
  blocks_read += other.blocks_read;
  blocks_written += other.blocks_written;
  bytes_written += other.bytes_written;
  busy_ns += other.busy_ns;
  return *this;
}

void CountingBlockStore::Account(int op, uint64_t start_ns, uint64_t blocks_read,
                                 uint64_t blocks_written, uint64_t bytes_written) {
  calls_[op].fetch_add(1, std::memory_order_relaxed);
  blocks_read_.fetch_add(blocks_read, std::memory_order_relaxed);
  blocks_written_.fetch_add(blocks_written, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes_written, std::memory_order_relaxed);
  busy_ns_.fetch_add(NowNs() - start_ns, std::memory_order_relaxed);
}

void CountingBlockStore::MaybeFlip(std::vector<uint8_t>* data) {
  size_t min_len = flip_min_len_.load();
  if (min_len == 0 || data->size() < min_len) {
    return;
  }
  if (flip_min_len_.compare_exchange_strong(min_len, 0)) {
    data->back() ^= 0x5a;
  }
}

Result<BlockNo> CountingBlockStore::AllocWrite(std::span<const uint8_t> payload) {
  afs::obs::ScopedSpan span(kSpanNames[kOpAllocWrite], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  auto r = inner_->AllocWrite(payload);
  Account(kOpAllocWrite, start, 0, 1, payload.size());
  return r;
}

Status CountingBlockStore::Write(BlockNo bno, std::span<const uint8_t> payload) {
  afs::obs::ScopedSpan span(kSpanNames[kOpWrite], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  Status s = inner_->Write(bno, payload);
  Account(kOpWrite, start, 0, 1, payload.size());
  return s;
}

Result<std::vector<uint8_t>> CountingBlockStore::Read(BlockNo bno) {
  afs::obs::ScopedSpan span(kSpanNames[kOpRead], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  auto r = inner_->Read(bno);
  if (r.ok()) {
    MaybeFlip(&*r);
  }
  Account(kOpRead, start, 1, 0, 0);
  return r;
}

Status CountingBlockStore::Free(BlockNo bno) {
  afs::obs::ScopedSpan span(kSpanNames[kOpFree], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  Status s = inner_->Free(bno);
  Account(kOpFree, start, 0, 0, 0);
  return s;
}

Result<std::vector<afs::BlockReadResult>> CountingBlockStore::ReadMulti(
    std::span<const BlockNo> bnos) {
  afs::obs::ScopedSpan span(kSpanNames[kOpReadMulti], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  auto r = inner_->ReadMulti(bnos);
  if (r.ok()) {
    for (afs::BlockReadResult& block : *r) {
      if (block.status.ok()) {
        MaybeFlip(&block.data);
      }
    }
  }
  Account(kOpReadMulti, start, bnos.size(), 0, 0);
  return r;
}

Status CountingBlockStore::WriteBatch(std::span<const afs::BlockWrite> writes) {
  afs::obs::ScopedSpan span(kSpanNames[kOpWriteBatch], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  Status s = inner_->WriteBatch(writes);
  uint64_t bytes = 0;
  for (const afs::BlockWrite& w : writes) {
    bytes += w.payload.size();
  }
  Account(kOpWriteBatch, start, 0, writes.size(), bytes);
  return s;
}

Status CountingBlockStore::FreeMulti(std::span<const BlockNo> bnos) {
  afs::obs::ScopedSpan span(kSpanNames[kOpFreeMulti], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  Status s = inner_->FreeMulti(bnos);
  Account(kOpFreeMulti, start, 0, 0, 0);
  return s;
}

Result<std::vector<BlockNo>> CountingBlockStore::AllocMulti(uint32_t n) {
  afs::obs::ScopedSpan span(kSpanNames[kOpAllocMulti], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  auto r = inner_->AllocMulti(n);
  Account(kOpAllocMulti, start, 0, 0, 0);
  return r;
}

Status CountingBlockStore::Lock(BlockNo bno, afs::Port owner) {
  afs::obs::ScopedSpan span(kSpanNames[kOpLock], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  Status s = inner_->Lock(bno, owner);
  Account(kOpLock, start, 0, 0, 0);
  return s;
}

Status CountingBlockStore::Unlock(BlockNo bno, afs::Port owner) {
  afs::obs::ScopedSpan span(kSpanNames[kOpUnlock], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  Status s = inner_->Unlock(bno, owner);
  Account(kOpUnlock, start, 0, 0, 0);
  return s;
}

Result<std::vector<BlockNo>> CountingBlockStore::ListBlocks() {
  afs::obs::ScopedSpan span(kSpanNames[kOpList], afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  auto r = inner_->ListBlocks();
  Account(kOpList, start, 0, 0, 0);
  return r;
}

BlockStoreTotals CountingBlockStore::totals() const {
  BlockStoreTotals t;
  for (int i = 0; i < kNumBlockOps; ++i) {
    t.calls[i] = calls_[i].load(std::memory_order_relaxed);
  }
  t.blocks_read = blocks_read_.load(std::memory_order_relaxed);
  t.blocks_written = blocks_written_.load(std::memory_order_relaxed);
  t.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  t.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return t;
}

DeviceTotals DeviceTotals::operator-(const DeviceTotals& base) const {
  return {reads - base.reads, writes - base.writes, busy_ns - base.busy_ns, high_water};
}

DeviceTotals& DeviceTotals::operator+=(const DeviceTotals& other) {
  reads += other.reads;
  writes += other.writes;
  busy_ns += other.busy_ns;
  high_water = std::max(high_water, other.high_water);
  return *this;
}

Status CountingBlockDevice::Read(BlockNo bno, std::span<uint8_t> out) {
  afs::obs::ScopedSpan span("pb.dev.read", afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  busy_.fetch_add(1);
  Status s = inner_->Read(bno, out);
  busy_.fetch_sub(1);
  reads_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  return s;
}

Status CountingBlockDevice::Write(BlockNo bno, std::span<const uint8_t> data) {
  afs::obs::ScopedSpan span("pb.dev.write", afs::obs::SpanKind::kStore);
  const uint64_t start = NowNs();
  busy_.fetch_add(1);
  Status s = inner_->Write(bno, data);
  busy_.fetch_sub(1);
  const uint64_t ns = NowNs() - start;
  writes_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  write_ns_.Add(ns);
  uint32_t seen = high_water_.load(std::memory_order_relaxed);
  while (bno + 1 > seen && !high_water_.compare_exchange_weak(seen, bno + 1)) {
  }
  return s;
}

DeviceTotals CountingBlockDevice::totals() const {
  return {reads_.load(std::memory_order_relaxed), writes_.load(std::memory_order_relaxed),
          busy_ns_.load(std::memory_order_relaxed), high_water_.load(std::memory_order_relaxed)};
}

std::vector<uint64_t> CountingBlockDevice::TakeWriteLatencies() { return write_ns_.Take(); }

}  // namespace perfbench
