#include "src/block/block_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/base/wire.h"
#include "src/block/protocol.h"
#include "src/obs/span.h"
#include "src/rpc/client.h"

namespace afs {

namespace {

// Wire slack reserved per message for the fixed parts of a vectored request/reply
// (capability, counts, status header). Generous on purpose; the cost of a slightly
// smaller chunk is one extra RPC, the cost of an oversized message is a hard failure.
constexpr size_t kBatchFixedSlack = 96;

// Encoded bytes of one WriteMulti entry: u32 bno + length-prefixed payload.
size_t WriteEntryBytes(const BlockWrite& w) { return 4 + 4 + w.payload.size(); }

}  // namespace

// ---------------------------------------------------------------------------
// BlockStore default (per-block loop) implementations
// ---------------------------------------------------------------------------

Result<std::vector<BlockReadResult>> BlockStore::ReadMulti(std::span<const BlockNo> bnos) {
  std::vector<BlockReadResult> out(bnos.size());
  for (size_t i = 0; i < bnos.size(); ++i) {
    auto data = Read(bnos[i]);
    if (data.ok()) {
      out[i].data = std::move(*data);
    } else {
      out[i].status = data.status();
    }
  }
  return out;
}

Status BlockStore::WriteBatch(std::span<const BlockWrite> writes) {
  for (const BlockWrite& w : writes) {
    RETURN_IF_ERROR(Write(w.bno, w.payload));
  }
  return OkStatus();
}

Status BlockStore::FreeMulti(std::span<const BlockNo> bnos) {
  for (BlockNo bno : bnos) {
    RETURN_IF_ERROR(Free(bno));
  }
  return OkStatus();
}

Result<std::vector<BlockNo>> BlockStore::AllocMulti(uint32_t n) {
  std::vector<BlockNo> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto bno = AllocWrite({});
    if (!bno.ok()) {
      for (BlockNo allocated : out) {
        (void)Free(allocated);
      }
      return bno.status();
    }
    out.push_back(*bno);
  }
  return out;
}

// ---------------------------------------------------------------------------
// BlockClient
// ---------------------------------------------------------------------------

BlockClient::BlockClient(Transport* transport, Port server, Capability account,
                         uint32_t payload_capacity)
    : transport_(transport),
      server_(server),
      account_(account),
      payload_capacity_(payload_capacity) {}

Result<BlockNo> BlockClient::AllocWrite(std::span<const uint8_t> payload) {
  WireEncoder req;
  req.PutCapability(account_);
  req.PutBytes(payload);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kAllocWrite),
                                std::move(req)));
  return reply.GetU32();
}

Status BlockClient::Write(BlockNo bno, std::span<const uint8_t> payload) {
  WireEncoder req;
  req.PutCapability(account_);
  req.PutU32(bno);
  req.PutBytes(payload);
  return CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kWrite), std::move(req))
      .status();
}

Result<std::vector<uint8_t>> BlockClient::Read(BlockNo bno) {
  WireEncoder req;
  req.PutCapability(account_);
  req.PutU32(bno);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kRead),
                                std::move(req)));
  return reply.GetBytes();
}

Status BlockClient::Free(BlockNo bno) {
  WireEncoder req;
  req.PutCapability(account_);
  req.PutU32(bno);
  return CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kFree), std::move(req))
      .status();
}

size_t BlockClient::ReadChunkBlocks() const {
  // The REPLY is the binding constraint: each entry returns u32 code + length-prefixed
  // payload of up to payload_capacity bytes.
  const size_t per_entry = 8 + payload_capacity_;
  return std::max<size_t>(1, (kMaxMessageBytes - kBatchFixedSlack) / per_entry);
}

Result<std::vector<BlockReadResult>> BlockClient::ReadMulti(std::span<const BlockNo> bnos) {
  std::vector<BlockReadResult> out(bnos.size());
  const size_t chunk = ReadChunkBlocks();
  size_t completed_chunks = 0;
  for (size_t begin = 0; begin < bnos.size(); begin += chunk) {
    if (begin > 0 && between_chunks_hook_) {
      between_chunks_hook_(completed_chunks);
    }
    const size_t n = std::min(chunk, bnos.size() - begin);
    WireEncoder req;
    req.PutCapability(account_);
    req.PutU32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      req.PutU32(bnos[begin + i]);
    }
    ASSIGN_OR_RETURN(WireDecoder reply,
                     CallAndCheck(transport_, server_,
                                  static_cast<uint32_t>(BlockOp::kReadMulti), std::move(req)));
    ASSIGN_OR_RETURN(uint32_t count, reply.GetU32());
    if (count != n) {
      return InternalError("read-multi reply count mismatch");
    }
    for (size_t i = 0; i < n; ++i) {
      ASSIGN_OR_RETURN(uint32_t code, reply.GetU32());
      ASSIGN_OR_RETURN(std::vector<uint8_t> data, reply.GetBytes());
      BlockReadResult& r = out[begin + i];
      if (code == static_cast<uint32_t>(ErrorCode::kOk)) {
        r.data = std::move(data);
      } else {
        r.status = Status(static_cast<ErrorCode>(code), "read-multi entry failed");
      }
    }
    ++completed_chunks;
  }
  return out;
}

Status BlockClient::WriteBatch(std::span<const BlockWrite> writes) {
  // Pre-flight: any single entry that cannot fit in one message fails the whole batch
  // cleanly, before anything is sent.
  for (const BlockWrite& w : writes) {
    if (kBatchFixedSlack + WriteEntryBytes(w) > kMaxMessageBytes) {
      return InvalidArgumentError("single write exceeds the 32K transaction message limit");
    }
  }
  size_t completed_chunks = 0;
  size_t begin = 0;
  while (begin < writes.size()) {
    if (begin > 0 && between_chunks_hook_) {
      between_chunks_hook_(completed_chunks);
    }
    // Greedily pack entries while the encoded request stays under the limit.
    size_t bytes = kBatchFixedSlack;
    size_t end = begin;
    while (end < writes.size() && bytes + WriteEntryBytes(writes[end]) <= kMaxMessageBytes) {
      bytes += WriteEntryBytes(writes[end]);
      ++end;
    }
    WireEncoder req;
    req.PutCapability(account_);
    req.PutU32(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      req.PutU32(writes[i].bno);
      req.PutBytes(writes[i].payload);
    }
    RETURN_IF_ERROR(CallAndCheck(transport_, server_,
                                 static_cast<uint32_t>(BlockOp::kWriteMulti), std::move(req))
                        .status());
    ++completed_chunks;
    begin = end;
  }
  return OkStatus();
}

Status BlockClient::FreeMulti(std::span<const BlockNo> bnos) {
  const size_t chunk = (kMaxMessageBytes - kBatchFixedSlack) / 4;
  size_t completed_chunks = 0;
  for (size_t begin = 0; begin < bnos.size(); begin += chunk) {
    if (begin > 0 && between_chunks_hook_) {
      between_chunks_hook_(completed_chunks);
    }
    const size_t n = std::min(chunk, bnos.size() - begin);
    WireEncoder req;
    req.PutCapability(account_);
    req.PutU32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      req.PutU32(bnos[begin + i]);
    }
    RETURN_IF_ERROR(CallAndCheck(transport_, server_,
                                 static_cast<uint32_t>(BlockOp::kFreeMulti), std::move(req))
                        .status());
    ++completed_chunks;
  }
  return OkStatus();
}

Result<std::vector<BlockNo>> BlockClient::AllocMulti(uint32_t n) {
  // The reply carries n block numbers; bound a chunk well under the message limit.
  const uint32_t chunk =
      static_cast<uint32_t>(std::max<size_t>(1, (kMaxMessageBytes - kBatchFixedSlack) / 8));
  std::vector<BlockNo> out;
  out.reserve(n);
  size_t completed_chunks = 0;
  for (uint32_t begin = 0; begin < n; begin += chunk) {
    if (begin > 0 && between_chunks_hook_) {
      between_chunks_hook_(completed_chunks);
    }
    const uint32_t want = std::min(chunk, n - begin);
    WireEncoder req;
    req.PutCapability(account_);
    req.PutU32(want);
    auto reply = CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kAllocMulti),
                              std::move(req));
    if (!reply.ok()) {
      for (BlockNo allocated : out) {
        (void)Free(allocated);
      }
      return reply.status();
    }
    auto count = reply->GetU32();
    if (!count.ok() || *count != want) {
      return InternalError("alloc-multi reply count mismatch");
    }
    for (uint32_t i = 0; i < want; ++i) {
      ASSIGN_OR_RETURN(BlockNo bno, reply->GetU32());
      out.push_back(bno);
    }
    ++completed_chunks;
  }
  return out;
}

Status BlockClient::Lock(BlockNo bno, Port owner) {
  WireEncoder req;
  req.PutCapability(account_);
  req.PutU32(bno);
  req.PutU64(owner);
  return CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kLock), std::move(req))
      .status();
}

Status BlockClient::Unlock(BlockNo bno, Port owner) {
  WireEncoder req;
  req.PutCapability(account_);
  req.PutU32(bno);
  req.PutU64(owner);
  return CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kUnlock), std::move(req))
      .status();
}

Result<std::vector<BlockNo>> BlockClient::ListBlocks() {
  WireEncoder req;
  req.PutCapability(account_);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(transport_, server_, static_cast<uint32_t>(BlockOp::kRecover),
                                std::move(req)));
  ASSIGN_OR_RETURN(uint32_t n, reply.GetU32());
  std::vector<BlockNo> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(BlockNo bno, reply.GetU32());
    out.push_back(bno);
  }
  return out;
}

// ---------------------------------------------------------------------------
// StableStore
// ---------------------------------------------------------------------------

namespace {

bool IsConnectivityError(const Status& s) {
  switch (s.code()) {
    case ErrorCode::kCrashed:
    case ErrorCode::kTimeout:
    case ErrorCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

}  // namespace

StableStore::StableStore(std::unique_ptr<BlockClient> a, std::unique_ptr<BlockClient> b,
                         uint64_t retry_seed)
    : rng_(retry_seed) {
  members_[0] = std::move(a);
  members_[1] = std::move(b);
}

template <typename T>
Result<T> StableStore::WithFailover(const std::function<Result<T>(BlockClient*)>& op) {
  constexpr int kMaxCollisionRetries = 8;
  for (int attempt = 0; attempt < kMaxCollisionRetries; ++attempt) {
    int first;
    {
      std::lock_guard<std::mutex> lock(mu_);
      first = preferred_;
    }
    Result<T> result = op(members_[first].get());
    if (!result.ok() && IsConnectivityError(result.status())) {
      // "Clients send requests to the alternative block server if the primary fails to
      // respond."
      int other = 1 - first;
      result = op(members_[other].get());
      if (result.ok() || !IsConnectivityError(result.status())) {
        failovers_->Inc();
        // Degraded: the pair is operating through one member. Cleared on the next
        // first-try success at the (new) preferred member; the gauge's max() watermark
        // lets chaos runs assert the pair really failed over at some point.
        degraded_->Set(1);
        std::lock_guard<std::mutex> lock(mu_);
        preferred_ = other;
      }
    } else {
      degraded_->Set(0);
    }
    if (result.ok() || result.status().code() != ErrorCode::kConflict) {
      return result;
    }
    // Allocate/write collision: "redo the operation after a random wait interval."
    uint64_t wait_us;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wait_us = rng_.NextInRange(50, 500) << attempt;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
  }
  return ConflictError("persistent block collision");
}

Result<BlockNo> StableStore::AllocWrite(std::span<const uint8_t> payload) {
  return WithFailover<BlockNo>([&](BlockClient* c) { return c->AllocWrite(payload); });
}

namespace {
// Adapts a Status-returning call to the Result-based failover helper.
struct Unit {};
}  // namespace

Status StableStore::Write(BlockNo bno, std::span<const uint8_t> payload) {
  return WithFailover<Unit>([&](BlockClient* c) -> Result<Unit> {
           RETURN_IF_ERROR(c->Write(bno, payload));
           return Unit{};
         })
      .status();
}

Result<std::vector<uint8_t>> StableStore::Read(BlockNo bno) {
  return WithFailover<std::vector<uint8_t>>([&](BlockClient* c) { return c->Read(bno); });
}

Status StableStore::Free(BlockNo bno) {
  return WithFailover<Unit>([&](BlockClient* c) -> Result<Unit> {
           RETURN_IF_ERROR(c->Free(bno));
           return Unit{};
         })
      .status();
}

Result<std::vector<BlockReadResult>> StableStore::ReadMulti(std::span<const BlockNo> bnos) {
  obs::ScopedSpan span("stable.read_multi", obs::SpanKind::kStore, bnos.size());
  return WithFailover<std::vector<BlockReadResult>>(
      [&](BlockClient* c) { return c->ReadMulti(bnos); });
}

Status StableStore::WriteBatch(std::span<const BlockWrite> writes) {
  // Overwrites are idempotent, so retrying the whole batch after a collision or a
  // mid-batch fail-over is safe: re-sent chunks simply overwrite identically.
  obs::ScopedSpan span("stable.write_batch", obs::SpanKind::kStore, writes.size());
  return WithFailover<Unit>([&](BlockClient* c) -> Result<Unit> {
           RETURN_IF_ERROR(c->WriteBatch(writes));
           return Unit{};
         })
      .status();
}

Status StableStore::FreeMulti(std::span<const BlockNo> bnos) {
  obs::ScopedSpan span("stable.free_multi", obs::SpanKind::kStore, bnos.size());
  return WithFailover<Unit>([&](BlockClient* c) -> Result<Unit> {
           RETURN_IF_ERROR(c->FreeMulti(bnos));
           return Unit{};
         })
      .status();
}

Result<std::vector<BlockNo>> StableStore::AllocMulti(uint32_t n) {
  obs::ScopedSpan span("stable.alloc_multi", obs::SpanKind::kStore, n);
  return WithFailover<std::vector<BlockNo>>([&](BlockClient* c) { return c->AllocMulti(n); });
}

Status StableStore::Lock(BlockNo bno, Port owner) {
  // Locks are not replicated: they die with the server that grants them, and lock holders
  // are identified by (possibly dead) ports, so the waiter-side recovery of §5.3 applies.
  // Locks always target the preferred member so both parties race on the same lock table.
  return WithFailover<Unit>([&](BlockClient* c) -> Result<Unit> {
           RETURN_IF_ERROR(c->Lock(bno, owner));
           return Unit{};
         })
      .status();
}

Status StableStore::Unlock(BlockNo bno, Port owner) {
  return WithFailover<Unit>([&](BlockClient* c) -> Result<Unit> {
           RETURN_IF_ERROR(c->Unlock(bno, owner));
           return Unit{};
         })
      .status();
}

Result<std::vector<BlockNo>> StableStore::ListBlocks() {
  return WithFailover<std::vector<BlockNo>>([&](BlockClient* c) { return c->ListBlocks(); });
}

uint32_t StableStore::payload_capacity() const { return members_[0]->payload_capacity(); }

// ---------------------------------------------------------------------------
// InMemoryBlockStore
// ---------------------------------------------------------------------------

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 16)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

InMemoryBlockStore::InMemoryBlockStore(uint32_t payload_capacity, uint32_t num_blocks,
                                       uint32_t num_shards)
    : payload_capacity_(payload_capacity),
      num_blocks_(num_blocks),
      shards_(RoundUpPow2(std::max(1u, num_shards))),
      shard_mask_(static_cast<uint32_t>(shards_.size()) - 1) {
  latency_.BindMetrics(metrics_.counter("store.charged_ops"),
                       metrics_.histogram("store.charged_ns"));
}

Result<BlockNo> InMemoryBlockStore::AllocOne(std::span<const uint8_t> payload) {
  if (payload.size() > payload_capacity_) {
    return InvalidArgumentError("payload exceeds block capacity");
  }
  if (allocated_.load(std::memory_order_relaxed) >= num_blocks_) {
    return NoSpaceError("in-memory store full");
  }
  // The cursor hands out fresh numbers; a collision with a still-allocated number (cursor
  // wrapped) just advances to the next candidate.
  for (uint64_t attempt = 0; attempt <= static_cast<uint64_t>(kMaxBlockNo) + 1; ++attempt) {
    BlockNo bno = next_.fetch_add(1, std::memory_order_relaxed) & kMaxBlockNo;
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] =
        shard.blocks.emplace(bno, std::vector<uint8_t>(payload.begin(), payload.end()));
    if (inserted) {
      allocated_.fetch_add(1, std::memory_order_relaxed);
      writes_->Inc();
      return bno;
    }
  }
  return NoSpaceError("in-memory store exhausted block numbers");
}

Result<BlockNo> InMemoryBlockStore::AllocWrite(std::span<const uint8_t> payload) {
  latency_.Charge();
  return AllocOne(payload);
}

Result<std::vector<BlockNo>> InMemoryBlockStore::AllocMulti(uint32_t n) {
  std::vector<BlockNo> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    latency_.Charge();
    auto bno = AllocOne({});
    if (!bno.ok()) {
      for (BlockNo allocated : out) {
        (void)Free(allocated);
      }
      return bno.status();
    }
    out.push_back(*bno);
  }
  return out;
}

Status InMemoryBlockStore::Write(BlockNo bno, std::span<const uint8_t> payload) {
  latency_.Charge();
  if (payload.size() > payload_capacity_) {
    return InvalidArgumentError("payload exceeds block capacity");
  }
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.blocks.find(bno);
  if (it == shard.blocks.end()) {
    return NotFoundError("write to unallocated block");
  }
  it->second.assign(payload.begin(), payload.end());
  writes_->Inc();
  return OkStatus();
}

Status InMemoryBlockStore::WriteBatch(std::span<const BlockWrite> writes) {
  batch_writes_->Inc();
  for (const BlockWrite& w : writes) {
    RETURN_IF_ERROR(Write(w.bno, w.payload));
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> InMemoryBlockStore::Read(BlockNo bno) {
  latency_.Charge();
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.blocks.find(bno);
  if (it == shard.blocks.end()) {
    return NotFoundError("read of unallocated block");
  }
  reads_->Inc();
  return it->second;
}

Result<std::vector<BlockReadResult>> InMemoryBlockStore::ReadMulti(
    std::span<const BlockNo> bnos) {
  batch_reads_->Inc();
  return BlockStore::ReadMulti(bnos);
}

Status InMemoryBlockStore::Free(BlockNo bno) {
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.blocks.erase(bno) > 0) {
    allocated_.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.locks.erase(bno);
  frees_->Inc();
  return OkStatus();
}

Status InMemoryBlockStore::FreeMulti(std::span<const BlockNo> bnos) {
  for (BlockNo bno : bnos) {
    RETURN_IF_ERROR(Free(bno));
  }
  return OkStatus();
}

Status InMemoryBlockStore::Lock(BlockNo bno, Port owner) {
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.locks.find(bno);
  if (it != shard.locks.end() && it->second != owner) {
    lock_contended_->Inc();
    return LockedError("block locked");
  }
  shard.locks[bno] = owner;
  return OkStatus();
}

Status InMemoryBlockStore::Unlock(BlockNo bno, Port owner) {
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.locks.find(bno);
  if (it == shard.locks.end() || it->second != owner) {
    return InvalidArgumentError("unlock by non-holder");
  }
  shard.locks.erase(it);
  return OkStatus();
}

Result<std::vector<BlockNo>> InMemoryBlockStore::ListBlocks() {
  std::vector<BlockNo> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [bno, data] : shard.blocks) {
      (void)data;
      out.push_back(bno);
    }
  }
  return out;
}

size_t InMemoryBlockStore::allocated_blocks() const {
  return allocated_.load(std::memory_order_relaxed);
}

}  // namespace afs
