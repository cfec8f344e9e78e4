#include "src/block/block_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <utility>

#include "src/base/crc32.h"
#include "src/base/wire.h"
#include "src/block/protocol.h"
#include "src/obs/span.h"
#include "src/rpc/client.h"

namespace afs {
namespace {

// WriteLocalBatch's helpers: with the caller, up to 8 writes of a batch are in flight.
constexpr size_t kBatchWriterHelpers = 7;

struct BlockHeader {
  uint32_t magic = 0;
  uint64_t account = 0;
  uint64_t seq = 0;
  uint32_t crc = 0;
  uint32_t len = 0;
};

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void EncodeBlock(std::span<uint8_t> block, const BlockHeader& h,
                 std::span<const uint8_t> payload) {
  StoreU32(block.data(), h.magic);
  StoreU64(block.data() + 4, h.account);
  StoreU64(block.data() + 12, h.seq);
  StoreU32(block.data() + 20, h.crc);
  StoreU32(block.data() + 24, h.len);
  if (!payload.empty()) {  // empty spans may carry a null data() — UB to pass to memcpy
    std::memcpy(block.data() + kBlockHeaderBytes, payload.data(), payload.size());
  }
  std::memset(block.data() + kBlockHeaderBytes + payload.size(), 0,
              block.size() - kBlockHeaderBytes - payload.size());
}

// Parses and integrity-checks a raw block. kCorrupt on bad magic, bad length, or CRC
// mismatch; a never-written (all-zero) block decodes as "not in use".
Result<BlockHeader> DecodeBlock(std::span<const uint8_t> block) {
  BlockHeader h;
  h.magic = LoadU32(block.data());
  h.account = LoadU64(block.data() + 4);
  h.seq = LoadU64(block.data() + 12);
  h.crc = LoadU32(block.data() + 20);
  h.len = LoadU32(block.data() + 24);
  if (h.magic == 0 && h.account == 0 && h.len == 0) {
    // Virgin block.
    return h;
  }
  if (h.magic != kBlockMagic) {
    return CorruptError("bad block magic");
  }
  if (h.len > block.size() - kBlockHeaderBytes) {
    return CorruptError("block payload length out of range");
  }
  if (Crc32c(block.data() + kBlockHeaderBytes, h.len) != h.crc) {
    return CorruptError("block payload CRC mismatch");
  }
  return h;
}

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 16)) {
    p <<= 1;
  }
  return p;
}

bool IsCompanionDown(const Status& s) {
  switch (s.code()) {
    case ErrorCode::kCrashed:
    case ErrorCode::kTimeout:
    case ErrorCode::kUnavailable:
    case ErrorCode::kNotFound:
      return true;
    default:
      return false;
  }
}

// Wire slack for the fixed parts of a companion batch message.
constexpr size_t kCompanionFixedSlack = 96;

// Encoded bytes of one kCompanionWriteMulti entry:
// u32 bno + u64 account + u64 seq + length-prefixed payload + u8 is_alloc.
size_t CompanionEntryBytes(size_t payload_size) { return 25 + payload_size; }

}  // namespace

// A fixed set of helper threads that run one batch's entries alongside the calling
// thread. Batches from concurrent callers queue and share the helpers; each caller also
// works on its own batch, so a batch never waits for an idle helper.
class BlockServer::BatchWriters {
 public:
  explicit BatchWriters(size_t helpers) {
    for (size_t t = 0; t < helpers; ++t) {
      threads_.emplace_back([this] { Loop(); });
    }
  }
  BatchWriters(const BatchWriters&) = delete;
  BatchWriters& operator=(const BatchWriters&) = delete;

  ~BatchWriters() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

  // Runs fn(i) for every i < n, on this thread and the helpers; returns when all are done.
  void Run(size_t n, const std::function<void(size_t)>& fn) {
    if (n <= 1) {
      for (size_t i = 0; i < n; ++i) {
        fn(i);
      }
      return;
    }
    Job job{&fn, n};
    std::unique_lock<std::mutex> lock(mu_);
    jobs_.push_back(&job);
    work_cv_.notify_all();
    while (job.next < job.n) {
      RunOne(&job, lock);
    }
    done_cv_.wait(lock, [&] { return job.done == job.n; });
  }

 private:
  struct Job {
    const std::function<void(size_t)>* fn;
    size_t n;
    size_t next = 0;  // first unclaimed entry
    size_t done = 0;  // entries finished
  };

  // Claims and runs the next entry of `job`; the claimer of the last entry dequeues it.
  void RunOne(Job* job, std::unique_lock<std::mutex>& lock) {
    const size_t i = job->next++;
    if (job->next == job->n) {
      jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
    }
    lock.unlock();
    (*job->fn)(i);
    lock.lock();
    if (++job->done == job->n) {
      done_cv_.notify_all();
    }
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (stop_) {
        return;
      }
      RunOne(jobs_.front(), lock);
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Job*> jobs_;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the helpers use everything above
};

BlockServer::BlockServer(Network* network, std::string name, BlockDevice* device,
                         uint64_t secret_seed, uint32_t num_shards, int num_workers)
    : Service(network, std::move(name), num_workers),
      writers_(device->geometry().writes_share_flush
                   ? std::make_unique<BatchWriters>(kBatchWriterHelpers)
                   : nullptr),
      device_(device),
      signer_(0, Mix64(secret_seed)),
      rng_(secret_seed ^ 0xb10c),
      shards_(RoundUpPow2(std::max(1u, num_shards))),
      shard_mask_(static_cast<uint32_t>(shards_.size()) - 1) {
  blocks_.resize(device->geometry().num_blocks);
}

BlockServer::~BlockServer() { StopAndJoin(); }

void BlockServer::SetCompanion(Port companion) { companion_.store(companion); }

uint32_t BlockServer::payload_capacity() const {
  return device_->geometry().block_size - kBlockHeaderBytes;
}

Capability BlockServer::CreateAccountDirect() {
  std::lock_guard<std::mutex> lock(accounts_mu_);
  uint64_t account = rng_.NextU64() | 1;
  accounts_.insert(account);
  // The signer's port field is not known until Start(); accounts are signed against object
  // ids only (port 0), so capabilities survive server restarts on the same secret.
  return signer_.Sign(account, Rights::kAll);
}

Status BlockServer::VerifyAccount(const Capability& cap, uint32_t rights,
                                  uint64_t* account_out) {
  RETURN_IF_ERROR(signer_.Verify(cap, rights));
  *account_out = cap.object;
  return OkStatus();
}

Result<BlockNo> BlockServer::PickFreeBlock() {
  // Lock order: alloc_mu_ -> shard.mu (nothing takes them the other way round).
  std::lock_guard<std::mutex> alloc_lock(alloc_mu_);
  const auto num_blocks = static_cast<BlockNo>(blocks_.size());
  for (BlockNo probe = 0; probe < num_blocks; ++probe) {
    BlockNo bno = (alloc_cursor_ + probe) % num_blocks;
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!blocks_[bno].in_use &&
        shard.in_flight_primary.find(bno) == shard.in_flight_primary.end() &&
        shard.locks.find(bno) == shard.locks.end()) {
      alloc_cursor_ = (bno + 1) % num_blocks;
      blocks_[bno].in_use = true;  // tentative; rolled back on collision
      return bno;
    }
  }
  return NoSpaceError("disk full");
}

Status BlockServer::CheckWritable(BlockNo bno, uint64_t account, bool* in_use_out) {
  if (bno >= blocks_.size()) {
    return InvalidArgumentError("block number out of range");
  }
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (in_use_out != nullptr) {
    *in_use_out = blocks_[bno].in_use;
  }
  if (!blocks_[bno].in_use) {
    // Callers interested in in_use (the free paths) treat "already free" as idempotent.
    return in_use_out != nullptr ? OkStatus() : NotFoundError("write to unallocated block");
  }
  if (blocks_[bno].account != 0 && blocks_[bno].account != account) {
    return BadCapabilityError("block owned by a different account");
  }
  return OkStatus();
}

Status BlockServer::WriteLocal(BlockNo bno, uint64_t account, uint64_t seq,
                               std::span<const uint8_t> payload) {
  const uint32_t block_size = device_->geometry().block_size;
  if (payload.size() > block_size - kBlockHeaderBytes) {
    return InvalidArgumentError("payload exceeds block capacity");
  }
  std::vector<uint8_t> raw(block_size);
  BlockHeader h;
  h.magic = kBlockMagic;
  h.account = account;
  h.seq = seq;
  h.len = static_cast<uint32_t>(payload.size());
  h.crc = Crc32c(payload.data(), payload.size());
  EncodeBlock(raw, h, payload);
  RETURN_IF_ERROR(device_->Write(bno, raw));
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  blocks_[bno].account = account;
  blocks_[bno].seq = seq;
  blocks_[bno].in_use = account != 0;
  return OkStatus();
}

Status BlockServer::WriteLocalBatch(std::span<const PendingWrite> writes, char* written) {
  std::vector<Status> status(writes.size());
  const std::function<void(size_t)> write_one = [&](size_t i) {
    status[i] = WriteLocal(writes[i].bno, writes[i].account, writes[i].seq, writes[i].payload);
    written[i] = status[i].ok() ? 1 : 0;
  };
  if (writers_ != nullptr) {
    writers_->Run(writes.size(), write_one);
  } else {
    for (size_t i = 0; i < writes.size() && (i == 0 || status[i - 1].ok()); ++i) {
      write_one(i);
    }
  }
  for (const Status& st : status) {
    RETURN_IF_ERROR(st);
  }
  return OkStatus();
}

void BlockServer::RecordIntention(BlockNo bno) {
  {
    std::lock_guard<std::mutex> lock(intentions_mu_);
    intentions_for_companion_.insert(bno);
  }
  degraded_writes_.fetch_add(1);
}

void BlockServer::MarkInFlight(std::span<const PendingWrite> writes, int delta) {
  for (const PendingWrite& w : writes) {
    Shard& shard = ShardFor(w.bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (delta > 0) {
      ++shard.in_flight_primary[w.bno];
    } else {
      auto it = shard.in_flight_primary.find(w.bno);
      if (it != shard.in_flight_primary.end() && --it->second == 0) {
        shard.in_flight_primary.erase(it);
      }
    }
  }
}

Status BlockServer::StableWrite(BlockNo bno, uint64_t account,
                                std::span<const uint8_t> payload, bool is_alloc) {
  const Port companion = companion_.load();
  const uint64_t seq = next_seq_.fetch_add(1);
  {
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.in_flight_primary[bno];
  }

  Status result = OkStatus();
  if (companion != kNullPort) {
    // "writes are always carried out on the companion disk first."
    WireEncoder req;
    req.PutU32(bno);
    req.PutU64(account);
    req.PutU64(seq);
    req.PutBytes(payload);
    req.PutU8(is_alloc ? 1 : 0);
    auto reply = CallAndCheck(network(), companion,
                              static_cast<uint32_t>(BlockOp::kCompanionWrite), std::move(req));
    if (!reply.ok()) {
      if (reply.status().code() == ErrorCode::kConflict) {
        // Allocate or write collision, detected at the companion before any damage.
        result = ConflictError("block write collision at companion");
      } else if (IsCompanionDown(reply.status())) {
        // Companion down: degrade to local-only and remember what it missed.
        RecordIntention(bno);
      } else {
        result = reply.status();
      }
    }
  }
  if (result.ok()) {
    result = WriteLocal(bno, account, seq, payload);
  }

  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.in_flight_primary.find(bno);
  if (it != shard.in_flight_primary.end() && --it->second == 0) {
    shard.in_flight_primary.erase(it);
  }
  if (!result.ok() && is_alloc) {
    blocks_[bno].in_use = false;  // roll back the tentative allocation
  }
  return result;
}

Status BlockServer::StableWriteBatch(std::vector<PendingWrite> writes) {
  if (writes.empty()) {
    return OkStatus();
  }
  const Port companion = companion_.load();
  // b distinguishes replicated (1) from standalone (0) batches in the trace.
  obs::ScopedSpan span("bs.stable_write_batch", obs::SpanKind::kStore, writes.size(),
                       companion == kNullPort ? 0 : 1);
  MarkInFlight(writes, +1);

  Status result = OkStatus();
  std::vector<char> written(writes.size(), 0);

  if (companion == kNullPort) {
    result = WriteLocalBatch(writes, written.data());
  } else {
    // Chunk so each companion message stays under kMaxMessageBytes.
    std::vector<std::pair<size_t, size_t>> chunks;  // [begin, end)
    size_t begin = 0;
    while (begin < writes.size()) {
      size_t bytes = kCompanionFixedSlack;
      size_t end = begin;
      while (end < writes.size() &&
             (end == begin ||
              bytes + CompanionEntryBytes(writes[end].payload.size()) <= kMaxMessageBytes)) {
        bytes += CompanionEntryBytes(writes[end].payload.size());
        ++end;
      }
      chunks.emplace_back(begin, end);
      begin = end;
    }

    auto send_chunk = [this, companion, &writes](size_t b, size_t e) -> Status {
      WireEncoder req;
      req.PutU32(static_cast<uint32_t>(e - b));
      for (size_t i = b; i < e; ++i) {
        req.PutU32(writes[i].bno);
        req.PutU64(writes[i].account);
        req.PutU64(writes[i].seq);
        req.PutBytes(writes[i].payload);
        req.PutU8(writes[i].is_alloc ? 1 : 0);
      }
      return CallAndCheck(network(), companion,
                          static_cast<uint32_t>(BlockOp::kCompanionWriteMulti), std::move(req))
          .status();
    };

    // Pipeline: chunk i+1's companion round trip overlaps chunk i's local disk writes.
    // Per-block companion-first order holds: a block is written locally only after its own
    // chunk was acked (or an intention was recorded for it). Once a chunk has been launched
    // it is always fully processed — acked chunks are written locally even when an earlier
    // chunk already failed, so the pair never diverges on a chunk the companion accepted.
    // The first chunk's round trip has nothing to overlap with, so it runs on this thread.
    std::future<Status> pending;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      Status ack = ci == 0 ? send_chunk(chunks[0].first, chunks[0].second) : pending.get();
      pending = std::future<Status>();
      if (ci + 1 < chunks.size() && result.ok()) {
        pending = std::async(std::launch::async, send_chunk, chunks[ci + 1].first,
                             chunks[ci + 1].second);
      }
      const auto [b, e] = chunks[ci];
      if (!ack.ok()) {
        if (IsCompanionDown(ack)) {
          for (size_t i = b; i < e; ++i) {
            RecordIntention(writes[i].bno);
          }
          // Degrade to local-only for this chunk (falls through to the local writes).
        } else {
          // Collision (or hard error): the companion rejected the whole chunk before
          // writing anything, so skip the local writes too.
          if (result.ok()) {
            result = ack.code() == ErrorCode::kConflict
                         ? ConflictError("batched write collision at companion")
                         : ack;
          }
          if (!pending.valid()) {
            break;
          }
          continue;
        }
      }
      Status st = WriteLocalBatch(std::span<const PendingWrite>(writes).subspan(b, e - b),
                                  written.data() + b);
      if (!st.ok() && result.ok()) {
        result = st;
      }
      if (!pending.valid()) {
        break;
      }
    }
  }

  MarkInFlight(writes, -1);
  if (!result.ok()) {
    for (size_t i = 0; i < writes.size(); ++i) {
      if (writes[i].is_alloc && !written[i]) {
        Shard& shard = ShardFor(writes[i].bno);
        std::lock_guard<std::mutex> lock(shard.mu);
        blocks_[writes[i].bno].in_use = false;  // roll back tentative allocations
      }
    }
  }
  return result;
}

Result<std::vector<uint8_t>> BlockServer::FetchFromCompanion(BlockNo bno) {
  const Port companion = companion_.load();
  if (companion == kNullPort) {
    return CorruptError("block corrupt and no companion configured");
  }
  WireEncoder req;
  req.PutU32(bno);
  ASSIGN_OR_RETURN(WireDecoder reply,
                   CallAndCheck(network(), companion,
                                static_cast<uint32_t>(BlockOp::kCompanionRead), std::move(req)));
  ASSIGN_OR_RETURN(uint64_t account, reply.GetU64());
  ASSIGN_OR_RETURN(uint8_t in_use, reply.GetU8());
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload, reply.GetBytes());
  if (in_use == 0) {
    return NotFoundError("companion copy not in use");
  }
  (void)account;
  return payload;
}

Result<std::vector<uint8_t>> BlockServer::ReadPayload(BlockNo bno, uint64_t account,
                                                      bool check_account) {
  const uint32_t block_size = device_->geometry().block_size;
  if (bno >= blocks_.size()) {
    return InvalidArgumentError("block number out of range");
  }
  std::vector<uint8_t> raw(block_size);
  // A device-level kCorrupt (FileDisk's sector checksum caught a torn or misdirected
  // write) enters the same companion-repair path as a server-level CRC mismatch.
  Status read_status = device_->Read(bno, raw);
  if (!read_status.ok() && read_status.code() != ErrorCode::kCorrupt) {
    return read_status;
  }
  auto header = read_status.ok() ? DecodeBlock(raw) : Result<BlockHeader>(read_status);
  if (!header.ok()) {
    // "the block server need not consult its companion, except when the block on its disk
    // is corrupted." Fetch the good copy and repair the local one.
    ASSIGN_OR_RETURN(std::vector<uint8_t> payload, FetchFromCompanion(bno));
    uint64_t seq = next_seq_.fetch_add(1);
    uint64_t repaired_account = account;
    RETURN_IF_ERROR(WriteLocal(bno, repaired_account, seq, payload));
    return payload;
  }
  if (header->magic == 0) {
    return NotFoundError("block never written");
  }
  if (check_account && header->account != account) {
    return BadCapabilityError("block owned by a different account");
  }
  std::vector<uint8_t> payload(raw.begin() + kBlockHeaderBytes,
                               raw.begin() + kBlockHeaderBytes + header->len);
  return payload;
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

Result<Message> BlockServer::Handle(const Message& request) {
  switch (static_cast<BlockOp>(request.opcode)) {
    case BlockOp::kCreateAccount:
      return HandleCreateAccount(request);
    case BlockOp::kAllocate:
      return HandleAllocate(request);
    case BlockOp::kAllocWrite:
      return HandleAllocWrite(request);
    case BlockOp::kWrite:
      return HandleWrite(request);
    case BlockOp::kRead:
      return HandleRead(request);
    case BlockOp::kFree:
      return HandleFree(request);
    case BlockOp::kReadMulti:
      return HandleReadMulti(request);
    case BlockOp::kWriteMulti:
      return HandleWriteMulti(request);
    case BlockOp::kFreeMulti:
      return HandleFreeMulti(request);
    case BlockOp::kAllocMulti:
      return HandleAllocMulti(request);
    case BlockOp::kLock:
      return HandleLock(request);
    case BlockOp::kUnlock:
      return HandleUnlock(request);
    case BlockOp::kRecover:
      return HandleRecover(request);
    case BlockOp::kStat:
      return HandleStat(request);
    case BlockOp::kCompanionWrite:
      return HandleCompanionWrite(request);
    case BlockOp::kCompanionWriteMulti:
      return HandleCompanionWriteMulti(request);
    case BlockOp::kCompanionFree:
      return HandleCompanionFree(request);
    case BlockOp::kFetchIntentions:
      return HandleFetchIntentions(request);
    case BlockOp::kCompanionRead:
      return HandleCompanionRead(request);
  }
  return InvalidArgumentError("unknown block server opcode");
}

Result<Message> BlockServer::HandleCreateAccount(const Message& m) {
  Capability cap = CreateAccountDirect();
  WireEncoder out;
  out.PutCapability(cap);
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleAllocate(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kCreate, &account));
  ASSIGN_OR_RETURN(BlockNo bno, PickFreeBlock());
  // Stamp ownership so Recover() finds it even if never written by the client.
  Status st = StableWrite(bno, account, {}, /*is_alloc=*/true);
  if (!st.ok()) {
    return st;
  }
  WireEncoder out;
  out.PutU32(bno);
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleAllocWrite(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload, in.GetBytes());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kCreate | Rights::kWrite, &account));
  ASSIGN_OR_RETURN(BlockNo bno, PickFreeBlock());
  Status st = StableWrite(bno, account, payload, /*is_alloc=*/true);
  if (!st.ok()) {
    return st;
  }
  WireEncoder out;
  out.PutU32(bno);
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleWrite(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload, in.GetBytes());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kWrite, &account));
  RETURN_IF_ERROR(CheckWritable(bno, account, nullptr));
  RETURN_IF_ERROR(StableWrite(bno, account, payload, /*is_alloc=*/false));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleRead(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kRead, &account));
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                   ReadPayload(bno, account, /*check_account=*/true));
  WireEncoder out;
  out.PutBytes(payload);
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleFree(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kDestroy, &account));
  bool in_use = false;
  RETURN_IF_ERROR(CheckWritable(bno, account, &in_use));
  if (!in_use) {
    return OkReply(m.opcode);  // freeing a free block is idempotent
  }
  // A free is a stable write of a tombstone (account 0), mirrored on the companion.
  RETURN_IF_ERROR(StableWrite(bno, 0, {}, /*is_alloc=*/false));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleReadMulti(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kRead, &account));
  ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  WireEncoder out;
  out.PutU32(n);
  // The client stub bounds n by the reply size; enforce it here too so a buggy or
  // malicious client can never make the server emit an oversized message.
  size_t reply_bytes = 96;
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
    auto payload = ReadPayload(bno, account, /*check_account=*/true);
    const size_t entry_bytes = 8 + (payload.ok() ? payload->size() : 0);
    reply_bytes += entry_bytes;
    if (reply_bytes > kMaxMessageBytes) {
      return InvalidArgumentError("read-multi reply would exceed the 32K message limit");
    }
    if (payload.ok()) {
      out.PutU32(static_cast<uint32_t>(ErrorCode::kOk));
      out.PutBytes(*payload);
    } else {
      out.PutU32(static_cast<uint32_t>(payload.status().code()));
      out.PutBytes(std::span<const uint8_t>());
    }
  }
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleWriteMulti(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kWrite, &account));
  ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  std::vector<PendingWrite> writes;
  writes.reserve(n);
  // Validate the whole chunk before touching anything, so a bad entry fails the chunk
  // cleanly with no partial effects.
  for (uint32_t i = 0; i < n; ++i) {
    PendingWrite w;
    ASSIGN_OR_RETURN(w.bno, in.GetU32());
    ASSIGN_OR_RETURN(w.payload, in.GetBytes());
    RETURN_IF_ERROR(CheckWritable(w.bno, account, nullptr));
    w.account = account;
    w.seq = next_seq_.fetch_add(1);
    writes.push_back(std::move(w));
  }
  RETURN_IF_ERROR(StableWriteBatch(std::move(writes)));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleFreeMulti(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kDestroy, &account));
  ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  std::vector<PendingWrite> writes;
  writes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
    bool in_use = false;
    RETURN_IF_ERROR(CheckWritable(bno, account, &in_use));
    if (!in_use) {
      continue;  // freeing a free block is idempotent
    }
    PendingWrite w;
    w.bno = bno;
    w.account = 0;  // tombstone
    w.seq = next_seq_.fetch_add(1);
    writes.push_back(std::move(w));
  }
  RETURN_IF_ERROR(StableWriteBatch(std::move(writes)));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleAllocMulti(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kCreate | Rights::kWrite, &account));
  ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  if (n > blocks_.size()) {
    return NoSpaceError("alloc-multi larger than the disk");
  }
  std::vector<PendingWrite> writes;
  writes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto bno = PickFreeBlock();
    if (!bno.ok()) {
      for (const PendingWrite& w : writes) {
        Shard& shard = ShardFor(w.bno);
        std::lock_guard<std::mutex> lock(shard.mu);
        blocks_[w.bno].in_use = false;  // roll back tentative picks
      }
      return bno.status();
    }
    PendingWrite w;
    w.bno = *bno;
    w.account = account;
    w.seq = next_seq_.fetch_add(1);
    w.is_alloc = true;
    writes.push_back(std::move(w));
  }
  WireEncoder out;
  out.PutU32(n);
  for (const PendingWrite& w : writes) {
    out.PutU32(w.bno);
  }
  // One companion transaction stamps the whole batch (per chunk); StableWriteBatch rolls
  // back any entries that never reached the disk.
  RETURN_IF_ERROR(StableWriteBatch(std::move(writes)));
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleLock(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  ASSIGN_OR_RETURN(Port owner, in.GetU64());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kWrite, &account));
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.locks.find(bno);
  if (it != shard.locks.end() && it->second != owner) {
    if (network()->IsPortAlive(it->second)) {
      return LockedError("block locked by another live transaction");
    }
    // The holder's port is dead — its process crashed; steal the lock (locks made of ports).
    it->second = owner;
    return OkReply(m.opcode);
  }
  shard.locks[bno] = owner;
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleUnlock(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  ASSIGN_OR_RETURN(Port owner, in.GetU64());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kWrite, &account));
  Shard& shard = ShardFor(bno);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.locks.find(bno);
  if (it == shard.locks.end() || it->second != owner) {
    return InvalidArgumentError("unlock by non-holder");
  }
  shard.locks.erase(it);
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleRecover(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(Capability cap, in.GetCapability());
  uint64_t account;
  RETURN_IF_ERROR(VerifyAccount(cap, Rights::kAdmin, &account));
  std::vector<BlockNo> owned;
  for (BlockNo bno = 0; bno < blocks_.size(); ++bno) {
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (blocks_[bno].in_use && blocks_[bno].account == account) {
      owned.push_back(bno);
    }
  }
  WireEncoder out;
  out.PutU32(static_cast<uint32_t>(owned.size()));
  for (BlockNo bno : owned) {
    out.PutU32(bno);
  }
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleStat(const Message& m) {
  uint32_t free_blocks = 0;
  for (BlockNo bno = 0; bno < blocks_.size(); ++bno) {
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!blocks_[bno].in_use) {
      ++free_blocks;
    }
  }
  WireEncoder out;
  out.PutU32(free_blocks);
  out.PutU32(device_->geometry().num_blocks);
  out.PutU64(device_->reads());
  out.PutU64(device_->writes());
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleCompanionWrite(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  ASSIGN_OR_RETURN(uint64_t account, in.GetU64());
  ASSIGN_OR_RETURN(uint64_t seq, in.GetU64());
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload, in.GetBytes());
  ASSIGN_OR_RETURN(uint8_t is_alloc, in.GetU8());
  if (bno >= blocks_.size()) {
    return InvalidArgumentError("block number out of range");
  }
  {
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.in_flight_primary.find(bno) != shard.in_flight_primary.end()) {
      // Collision: this server is itself the primary for a concurrent operation on the same
      // block. Detected "before any damage is done" because companion writes happen first.
      collisions_.fetch_add(1);
      return ConflictError("concurrent primary operation on this block");
    }
    if (is_alloc != 0 && blocks_[bno].in_use) {
      // Allocate collision: the peer picked a number this server already handed out.
      collisions_.fetch_add(1);
      return ConflictError("allocate collision");
    }
  }
  RETURN_IF_ERROR(WriteLocal(bno, account, seq, payload));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleCompanionWriteMulti(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  std::vector<PendingWrite> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PendingWrite w;
    ASSIGN_OR_RETURN(w.bno, in.GetU32());
    ASSIGN_OR_RETURN(w.account, in.GetU64());
    ASSIGN_OR_RETURN(w.seq, in.GetU64());
    ASSIGN_OR_RETURN(w.payload, in.GetBytes());
    ASSIGN_OR_RETURN(uint8_t is_alloc, in.GetU8());
    w.is_alloc = is_alloc != 0;
    entries.push_back(std::move(w));
  }
  // Collision detection covers the WHOLE chunk before any block is written: a collision
  // anywhere rejects the chunk with the companion disk untouched.
  for (const PendingWrite& w : entries) {
    if (w.bno >= blocks_.size()) {
      return InvalidArgumentError("block number out of range");
    }
    Shard& shard = ShardFor(w.bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.in_flight_primary.find(w.bno) != shard.in_flight_primary.end()) {
      collisions_.fetch_add(1);
      return ConflictError("concurrent primary operation on a batched block");
    }
    if (w.is_alloc && blocks_[w.bno].in_use) {
      collisions_.fetch_add(1);
      return ConflictError("allocate collision in batch");
    }
  }
  std::vector<char> written(entries.size(), 0);
  RETURN_IF_ERROR(WriteLocalBatch(entries, written.data()));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleCompanionFree(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  RETURN_IF_ERROR(WriteLocal(bno, 0, 0, {}));
  return OkReply(m.opcode);
}

Result<Message> BlockServer::HandleFetchIntentions(const Message& m) {
  std::set<BlockNo> intentions;
  {
    std::lock_guard<std::mutex> lock(intentions_mu_);
    intentions.swap(intentions_for_companion_);
  }
  WireEncoder out;
  out.PutU32(static_cast<uint32_t>(intentions.size()));
  for (BlockNo bno : intentions) {
    out.PutU32(bno);
  }
  return OkReply(m.opcode, std::move(out));
}

Result<Message> BlockServer::HandleCompanionRead(const Message& m) {
  WireDecoder in(m.payload);
  ASSIGN_OR_RETURN(BlockNo bno, in.GetU32());
  if (bno >= blocks_.size()) {
    return InvalidArgumentError("block number out of range");
  }
  const uint32_t block_size = device_->geometry().block_size;
  std::vector<uint8_t> raw(block_size);
  RETURN_IF_ERROR(device_->Read(bno, raw));
  ASSIGN_OR_RETURN(BlockHeader header, DecodeBlock(raw));
  WireEncoder out;
  out.PutU64(header.account);
  out.PutU8(header.magic != 0 && header.account != 0 ? 1 : 0);
  out.PutBytes(std::span<const uint8_t>(raw.data() + kBlockHeaderBytes, header.len));
  return OkReply(m.opcode, std::move(out));
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void BlockServer::RebuildAllocationFromDisk() {
  const DiskGeometry geo = device_->geometry();
  std::vector<uint8_t> raw(geo.block_size);
  uint64_t max_seq = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.locks.clear();  // locks died with the crashed process
    shard.in_flight_primary.clear();
  }
  for (BlockNo bno = 0; bno < geo.num_blocks; ++bno) {
    Shard& shard = ShardFor(bno);
    std::lock_guard<std::mutex> lock(shard.mu);
    blocks_[bno] = BlockMeta{};
    if (!device_->Read(bno, raw).ok()) {
      continue;
    }
    auto header = DecodeBlock(raw);
    if (!header.ok() || header->magic == 0) {
      continue;
    }
    blocks_[bno].account = header->account;
    blocks_[bno].seq = header->seq;
    blocks_[bno].in_use = header->account != 0;
    max_seq = std::max(max_seq, header->seq);
  }
  uint64_t expected = next_seq_.load();
  while (expected < max_seq + 1 &&
         !next_seq_.compare_exchange_weak(expected, max_seq + 1)) {
  }
}

void BlockServer::ReplayIntentionsFromCompanion() {
  const Port companion = companion_.load();
  if (companion == kNullPort) {
    return;
  }
  auto reply = CallAndCheck(network(), companion,
                            static_cast<uint32_t>(BlockOp::kFetchIntentions), WireEncoder());
  if (!reply.ok()) {
    return;  // companion also down; it will push state when it recovers
  }
  auto count = reply->GetU32();
  if (!count.ok()) {
    return;
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto bno = reply->GetU32();
    if (!bno.ok()) {
      return;
    }
    WireEncoder req;
    req.PutU32(*bno);
    auto data = CallAndCheck(network(), companion,
                             static_cast<uint32_t>(BlockOp::kCompanionRead), std::move(req));
    if (!data.ok()) {
      continue;
    }
    auto account = data->GetU64();
    auto in_use = data->GetU8();
    auto payload = data->GetBytes();
    if (!account.ok() || !in_use.ok() || !payload.ok()) {
      continue;
    }
    uint64_t seq = next_seq_.fetch_add(1);
    (void)WriteLocal(*bno, *in_use != 0 ? *account : 0, seq, *payload);
  }
}

void BlockServer::OnRestart() {
  // "After a crash, the block server compares notes with its companion, and restores its
  // disk before accepting any requests."
  RebuildAllocationFromDisk();
  ReplayIntentionsFromCompanion();
}

void BlockServer::RecoverFromDisk() {
  RebuildAllocationFromDisk();
  ReplayIntentionsFromCompanion();
}

}  // namespace afs
