#include "src/core/page_store.h"

#include <algorithm>

#include "src/base/wire.h"

namespace afs {
namespace {

// Chain block overhead: next(4) + chunk_len(2).
constexpr uint32_t kChainHeaderBytes = 6;

std::vector<uint8_t> EncodeChainBlock(BlockNo next, std::span<const uint8_t> chunk) {
  WireEncoder enc;
  enc.PutU32(next);
  enc.PutU16(static_cast<uint16_t>(chunk.size()));
  enc.PutRaw(chunk);
  return std::move(enc).Take();
}

struct ChainBlock {
  BlockNo next;
  std::vector<uint8_t> chunk;
};

Result<ChainBlock> DecodeChainBlock(std::span<const uint8_t> payload) {
  WireDecoder dec(payload);
  ChainBlock out;
  ASSIGN_OR_RETURN(out.next, dec.GetU32());
  ASSIGN_OR_RETURN(uint16_t len, dec.GetU16());
  ASSIGN_OR_RETURN(out.chunk, dec.GetRaw(len));
  return out;
}

std::span<const uint8_t> ChunkAt(std::span<const uint8_t> payload, uint32_t chunk_cap,
                                 size_t i) {
  size_t begin = i * chunk_cap;
  size_t len = std::min<size_t>(chunk_cap, payload.size() - begin);
  return payload.subspan(begin, len);
}

}  // namespace

PageStore::PageStore(BlockStore* blocks) : blocks_(blocks) {}

Result<BlockNo> PageStore::AllocBlock(std::span<const uint8_t> payload) {
  ASSIGN_OR_RETURN(BlockNo bno, blocks_->AllocWrite(payload));
  RETURN_IF_ERROR(RecordEpochAllocations({&bno, 1}));
  return bno;
}

Status PageStore::RecordEpochAllocations(std::span<const BlockNo> bnos) {
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (epoch_open_) {
      epoch_allocations_.insert(bnos.begin(), bnos.end());
    }
  }
  if (std::any_of(bnos.begin(), bnos.end(),
                  [](BlockNo bno) { return bno >= kFirstProvisionalBlock; })) {
    (void)blocks_->FreeMulti(bnos);
    return NoSpaceError("store allocated a block in the provisional range");
  }
  return OkStatus();
}

Result<BlockNo> PageStore::WriteTailChain(std::span<const uint8_t> payload,
                                          uint32_t chunk_cap, size_t num_chunks) {
  if (num_chunks <= 1) {
    return kNilRef;
  }
  // Reserve every tail block in one round trip, then fill them in one vectored write. Safe
  // regardless of write order inside the batch — the chain is unreachable until the
  // caller links the head, which always happens last and alone.
  ASSIGN_OR_RETURN(std::vector<BlockNo> bnos, AllocBlocks(static_cast<uint32_t>(num_chunks - 1)));
  std::vector<BlockWrite> writes(bnos.size());
  for (size_t t = 1; t < num_chunks; ++t) {
    BlockNo next = (t + 1 < num_chunks) ? bnos[t] : kNilRef;
    writes[t - 1] = {bnos[t - 1], EncodeChainBlock(next, ChunkAt(payload, chunk_cap, t))};
  }
  Status written = blocks_->WriteBatch(writes);
  if (!written.ok()) {
    (void)blocks_->FreeMulti(bnos);  // best-effort reclamation of the unreferenced chain
    return written;
  }
  return bnos[0];
}

Result<BlockNo> PageStore::WritePage(const Page& page) {
  ASSIGN_OR_RETURN(std::vector<uint8_t> payload, page.Serialize());
  const uint32_t chunk_cap = blocks_->payload_capacity() - kChainHeaderBytes;
  size_t total = payload.size();
  size_t num_chunks = total == 0 ? 1 : (total + chunk_cap - 1) / chunk_cap;

  // Tail chain first (one AllocMulti + one WriteBatch), then the head
  // block — so every block's successor exists before the block pointing at it does.
  ASSIGN_OR_RETURN(BlockNo next, WriteTailChain(payload, chunk_cap, num_chunks));
  return AllocBlock(EncodeChainBlock(next, ChunkAt(payload, chunk_cap, 0)));
}

Status PageStore::OverwritePage(BlockNo head, const Page& page,
                                const std::vector<BlockNo>* old_tail) {
  // Remember the old tail so it can be freed after the atomic head switch.
  std::vector<BlockNo> walked_tail;
  if (old_tail == nullptr) {
    ASSIGN_OR_RETURN(std::vector<BlockNo> old_chain, ChainBlocks(head));
    walked_tail.assign(old_chain.begin() + 1, old_chain.end());
    old_tail = &walked_tail;
  }

  ASSIGN_OR_RETURN(std::vector<uint8_t> payload, page.Serialize());
  const uint32_t chunk_cap = blocks_->payload_capacity() - kChainHeaderBytes;
  size_t total = payload.size();
  size_t num_chunks = total == 0 ? 1 : (total + chunk_cap - 1) / chunk_cap;

  // New tail blocks first, head overwritten last: the head write is the atomic commit
  // point of the overwrite.
  ASSIGN_OR_RETURN(BlockNo next, WriteTailChain(payload, chunk_cap, num_chunks));
  RETURN_IF_ERROR(blocks_->Write(head, EncodeChainBlock(next, ChunkAt(payload, chunk_cap, 0))));
  // The overwrite is done once the head is written. Failing to free the old tail leaves
  // garbage for the collector; it must not report the overwrite (a commit flip, say) as
  // failed after it took effect.
  (void)blocks_->FreeMulti(*old_tail);
  return OkStatus();
}

Result<size_t> PageStore::ChainLength(const Page& page) const {
  const size_t total = page.SerializedSize();
  if (total > kMaxPageBytes) {
    return InvalidArgumentError("page exceeds 32K transaction limit");
  }
  const uint32_t chunk_cap = blocks_->payload_capacity() - kChainHeaderBytes;
  return total == 0 ? 1 : (total + chunk_cap - 1) / chunk_cap;
}

Result<std::vector<BlockNo>> PageStore::AllocBlocks(uint32_t n) {
  if (n == 0) {
    return std::vector<BlockNo>();
  }
  ASSIGN_OR_RETURN(std::vector<BlockNo> bnos, blocks_->AllocMulti(n));
  RETURN_IF_ERROR(RecordEpochAllocations(bnos));
  return bnos;
}

Status PageStore::WriteChains(std::span<const ChainWrite> writes) {
  const uint32_t chunk_cap = blocks_->payload_capacity() - kChainHeaderBytes;
  std::vector<BlockWrite> batch;
  for (const ChainWrite& w : writes) {
    ASSIGN_OR_RETURN(std::vector<uint8_t> payload, w.page.Serialize());
    const size_t n = payload.empty() ? 1 : (payload.size() + chunk_cap - 1) / chunk_cap;
    if (w.chain.size() != n) {
      return InternalError("chain length does not match the page");
    }
    for (size_t i = 0; i < n; ++i) {
      BlockNo next = i + 1 < n ? w.chain[i + 1] : kNilRef;
      batch.push_back({w.chain[i], EncodeChainBlock(next, ChunkAt(payload, chunk_cap, i))});
    }
  }
  if (batch.empty()) {
    return OkStatus();
  }
  return blocks_->WriteBatch(batch);
}

Result<Page> PageStore::ReadPage(BlockNo head, std::vector<BlockNo>* tail) {
  std::vector<uint8_t> payload;
  BlockNo bno = head;
  size_t guard = 0;
  if (tail != nullptr) {
    tail->clear();
  }
  while (bno != kNilRef) {
    if (++guard > 4096) {
      return CorruptError("page chain too long (cycle?)");
    }
    if (tail != nullptr && bno != head) {
      tail->push_back(bno);
    }
    ASSIGN_OR_RETURN(std::vector<uint8_t> raw, blocks_->Read(bno));
    ASSIGN_OR_RETURN(ChainBlock cb, DecodeChainBlock(raw));
    payload.insert(payload.end(), cb.chunk.begin(), cb.chunk.end());
    bno = cb.next;
  }
  return Page::Deserialize(payload);
}

Result<std::vector<PageReadResult>> PageStore::ReadPagesDetailed(
    std::span<const BlockNo> heads, std::vector<std::vector<BlockNo>>* chains) {
  std::vector<PageReadResult> results(heads.size());
  if (chains != nullptr) {
    chains->assign(heads.size(), {});
  }
  if (heads.empty()) {
    return results;
  }

  // Per-head walk state: the next block to fetch, accumulated payload, cycle guard.
  std::vector<BlockNo> cursor(heads.begin(), heads.end());
  std::vector<std::vector<uint8_t>> payloads(heads.size());
  std::vector<size_t> guards(heads.size(), 0);
  std::vector<size_t> active;
  active.reserve(heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    active.push_back(i);
  }

  // Level-synchronous walk: each round fetches the current frontier block of EVERY live
  // chain in one ReadMulti, so k pages of depth d cost d vectored RPCs instead of k*d
  // single-block ones.
  while (!active.empty()) {
    std::vector<BlockNo> frontier;
    frontier.reserve(active.size());
    for (size_t i : active) {
      frontier.push_back(cursor[i]);
    }
    ASSIGN_OR_RETURN(std::vector<BlockReadResult> reads, blocks_->ReadMulti(frontier));
    if (reads.size() != frontier.size()) {
      return InternalError("ReadMulti returned wrong entry count");
    }

    std::vector<size_t> still_active;
    for (size_t j = 0; j < active.size(); ++j) {
      size_t i = active[j];
      if (!reads[j].status.ok()) {
        results[i].status = reads[j].status;
        continue;
      }
      Result<ChainBlock> cb = DecodeChainBlock(reads[j].data);
      if (!cb.ok()) {
        results[i].status = cb.status();
        continue;
      }
      if (chains != nullptr) {
        (*chains)[i].push_back(cursor[i]);
      }
      payloads[i].insert(payloads[i].end(), cb->chunk.begin(), cb->chunk.end());
      if (cb->next == kNilRef) {
        continue;  // chain complete; deserialized below
      }
      if (++guards[i] > 4096) {
        results[i].status = CorruptError("page chain too long (cycle?)");
        continue;
      }
      cursor[i] = cb->next;
      still_active.push_back(i);
    }
    active = std::move(still_active);
  }

  for (size_t i = 0; i < heads.size(); ++i) {
    if (!results[i].status.ok()) {
      continue;
    }
    Result<Page> page = Page::Deserialize(payloads[i]);
    if (page.ok()) {
      results[i].page = *std::move(page);
    } else {
      results[i].status = page.status();
    }
  }
  return results;
}

Result<std::vector<Page>> PageStore::ReadPages(std::span<const BlockNo> heads) {
  ASSIGN_OR_RETURN(std::vector<PageReadResult> detailed, ReadPagesDetailed(heads));
  std::vector<Page> pages;
  pages.reserve(detailed.size());
  for (auto& r : detailed) {
    RETURN_IF_ERROR(r.status);
    pages.push_back(std::move(r.page));
  }
  return pages;
}

Result<std::vector<BlockNo>> PageStore::ChainBlocks(BlockNo head) {
  std::vector<BlockNo> chain;
  BlockNo bno = head;
  size_t guard = 0;
  while (bno != kNilRef) {
    if (++guard > 4096) {
      return CorruptError("page chain too long (cycle?)");
    }
    chain.push_back(bno);
    ASSIGN_OR_RETURN(std::vector<uint8_t> raw, blocks_->Read(bno));
    ASSIGN_OR_RETURN(ChainBlock cb, DecodeChainBlock(raw));
    bno = cb.next;
  }
  return chain;
}

Status PageStore::FreePage(BlockNo head) {
  ASSIGN_OR_RETURN(std::vector<BlockNo> chain, ChainBlocks(head));
  return blocks_->FreeMulti(chain);
}

void PageStore::BeginAllocationEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_open_ = true;
  epoch_allocations_.clear();
}

std::unordered_set<BlockNo> PageStore::EndAllocationEpoch() {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_open_ = false;
  return std::move(epoch_allocations_);
}

}  // namespace afs
