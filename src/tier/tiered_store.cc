#include "src/tier/tiered_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/obs/span.h"

namespace afs {

namespace {

// Unmap record payload: u32 count | count * u32 magnetic block number.
std::vector<uint8_t> EncodeUnmap(std::span<const BlockNo> bnos) {
  std::vector<uint8_t> payload(4 + 4 * bnos.size());
  const uint32_t n = static_cast<uint32_t>(bnos.size());
  std::memcpy(payload.data(), &n, 4);
  for (size_t i = 0; i < bnos.size(); ++i) {
    const uint32_t b = bnos[i];
    std::memcpy(payload.data() + 4 + 4 * i, &b, 4);
  }
  return payload;
}

std::vector<BlockNo> DecodeUnmap(const std::vector<uint8_t>& payload) {
  std::vector<BlockNo> bnos;
  if (payload.size() < 4) {
    return bnos;
  }
  uint32_t n;
  std::memcpy(&n, payload.data(), 4);
  if (payload.size() < 4 + 4ull * n) {
    return bnos;
  }
  bnos.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t b;
    std::memcpy(&b, payload.data() + 4 + 4ull * i, 4);
    bnos.push_back(b);
  }
  return bnos;
}

}  // namespace

TieredStore::TieredStore(BlockStore* magnetic, WriteOnceDisk* archive_disk,
                         TieredStoreOptions options)
    : inner_(magnetic), archive_(archive_disk), options_(options) {}

Status TieredStore::Mount() {
  if (inner_->payload_capacity() > archive_.payload_capacity()) {
    return InvalidArgumentError("archive blocks too small for the magnetic tier's payloads");
  }
  {
    std::unique_lock<std::shared_mutex> lock(map_mu_);
    map_.clear();
    RETURN_IF_ERROR(archive_.Mount([this](BlockNo abno, const ArchiveRecord& record) {
      // Replay in burn order: later records supersede earlier ones.
      if (record.kind == ArchiveRecordKind::kData) {
        map_[record.source] = abno;
      } else {
        for (BlockNo bno : DecodeUnmap(record.payload)) {
          map_.erase(bno);
        }
      }
    }));
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_.clear();
    cache_lru_.clear();
  }
  // Reconcile: a block both mapped and still allocated magnetically is an interrupted
  // migration (crash after burn, before free). The archive copy is authoritative — finish
  // the free.
  ASSIGN_OR_RETURN(std::vector<BlockNo> allocated, inner_->ListBlocks());
  std::vector<BlockNo> leftovers;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    for (BlockNo bno : allocated) {
      if (map_.count(bno) > 0) {
        leftovers.push_back(bno);
      }
    }
  }
  if (!leftovers.empty()) {
    RETURN_IF_ERROR(inner_->FreeMulti(leftovers));
    reclaim_redo_->Inc(leftovers.size());
    reclaimed_->Inc(leftovers.size());
  }
  RefreshGauges();
  return OkStatus();
}

// --- Read path --------------------------------------------------------------

Result<std::vector<uint8_t>> TieredStore::ReadArchived(BlockNo bno, BlockNo abno) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(bno);
    if (it != cache_.end()) {
      promo_hits_->Inc();
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
      return it->second.data;
    }
  }
  auto payload = archive_.ReadRecord(abno, bno);
  if (payload.ok()) {
    archive_reads_->Inc();
    CacheInsert(bno, *payload);
    return std::move(*payload);
  }
  // Archive rot: fall back to a magnetic leftover (double-residence window, or a scrub has
  // not yet repaired the record). "One tier or the other" applies to reads too.
  auto magnetic = inner_->Read(bno);
  if (magnetic.ok()) {
    magnetic_fallbacks_->Inc();
    return magnetic;
  }
  return payload.status();
}

Result<std::vector<uint8_t>> TieredStore::Read(BlockNo bno) {
  BlockNo abno = 0;
  bool mapped = false;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = map_.find(bno);
    if (it != map_.end()) {
      mapped = true;
      abno = it->second;
    }
  }
  if (mapped) {
    return ReadArchived(bno, abno);
  }
  return inner_->Read(bno);
}

Result<std::vector<BlockReadResult>> TieredStore::ReadMulti(std::span<const BlockNo> bnos) {
  // Partition: archived entries are served here, the rest go to the magnetic tier in one
  // vectored call, and the results are scattered back into request order.
  std::vector<size_t> magnetic_idx;
  std::vector<BlockNo> magnetic_bnos;
  std::vector<std::pair<size_t, BlockNo>> archived_idx;  // (result index, archive block)
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    if (map_.empty()) {
      lock.unlock();
      return inner_->ReadMulti(bnos);
    }
    for (size_t i = 0; i < bnos.size(); ++i) {
      auto it = map_.find(bnos[i]);
      if (it != map_.end()) {
        archived_idx.emplace_back(i, it->second);
      } else {
        magnetic_idx.push_back(i);
        magnetic_bnos.push_back(bnos[i]);
      }
    }
  }
  if (archived_idx.empty()) {
    return inner_->ReadMulti(bnos);
  }
  std::vector<BlockReadResult> results(bnos.size());
  if (!magnetic_bnos.empty()) {
    ASSIGN_OR_RETURN(std::vector<BlockReadResult> magnetic, inner_->ReadMulti(magnetic_bnos));
    for (size_t i = 0; i < magnetic_idx.size(); ++i) {
      results[magnetic_idx[i]] = std::move(magnetic[i]);
    }
  }
  for (const auto& [i, abno] : archived_idx) {
    auto payload = ReadArchived(bnos[i], abno);
    if (payload.ok()) {
      results[i].status = OkStatus();
      results[i].data = std::move(*payload);
    } else {
      results[i].status = payload.status();
    }
  }
  return results;
}

// --- Write path -------------------------------------------------------------

Status TieredStore::Write(BlockNo bno, std::span<const uint8_t> payload) {
  if (archived(bno)) {
    write_rejected_->Inc();
    return ReadOnlyError("block is archived on write-once media");
  }
  return inner_->Write(bno, payload);
}

Status TieredStore::WriteBatch(std::span<const BlockWrite> writes) {
  // Validate before anything lands: a batch naming any archived block fails whole, so the
  // per-chunk atomicity story of the inner store is not weakened by a mid-batch rejection.
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    if (!map_.empty()) {
      for (const BlockWrite& w : writes) {
        if (map_.count(w.bno) > 0) {
          write_rejected_->Inc();
          return ReadOnlyError("batch writes an archived block");
        }
      }
    }
  }
  return inner_->WriteBatch(writes);
}

// --- Allocation guard -------------------------------------------------------

Result<BlockNo> TieredStore::AllocWrite(std::span<const uint8_t> payload) {
  ASSIGN_OR_RETURN(BlockNo bno, inner_->AllocWrite(payload));
  if (archived(bno)) {
    // The magnetic allocator reused an archived block's number (cursor wraparound). The
    // stale mapping must be durably retracted before the number is handed out, or readers
    // of the new block would be served the dead block's archived bytes.
    BlockNo one[] = {bno};
    Status st = UnmapPersistently(one);
    if (!st.ok()) {
      (void)inner_->Free(bno);
      return st;
    }
    realloc_unmaps_->Inc();
  }
  return bno;
}

Result<std::vector<BlockNo>> TieredStore::AllocMulti(uint32_t n) {
  ASSIGN_OR_RETURN(std::vector<BlockNo> bnos, inner_->AllocMulti(n));
  std::vector<BlockNo> collisions;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    if (!map_.empty()) {
      for (BlockNo bno : bnos) {
        if (map_.count(bno) > 0) {
          collisions.push_back(bno);
        }
      }
    }
  }
  if (!collisions.empty()) {
    Status st = UnmapPersistently(collisions);
    if (!st.ok()) {
      (void)inner_->FreeMulti(bnos);
      return st;
    }
    realloc_unmaps_->Inc(collisions.size());
  }
  return bnos;
}

// --- Free path --------------------------------------------------------------

Status TieredStore::Free(BlockNo bno) {
  BlockNo one[] = {bno};
  RETURN_IF_ERROR(UnmapPersistently(one));
  return inner_->Free(bno);
}

Status TieredStore::FreeMulti(std::span<const BlockNo> bnos) {
  RETURN_IF_ERROR(UnmapPersistently(bnos));
  return inner_->FreeMulti(bnos);
}

Status TieredStore::UnmapPersistently(std::span<const BlockNo> bnos) {
  std::vector<BlockNo> mapped;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    if (map_.empty()) {
      return OkStatus();
    }
    for (BlockNo bno : bnos) {
      if (map_.count(bno) > 0) {
        mapped.push_back(bno);
      }
    }
  }
  if (mapped.empty()) {
    return OkStatus();
  }
  // Burn the retraction BEFORE forgetting the mapping: a crash in between leaves a live
  // mapping to a freed block, which is only a read of stale-but-valid bytes until the
  // number is reallocated — and reallocation runs this same guard first.
  const size_t per_record = (archive_.payload_capacity() - 4) / 4;
  for (size_t off = 0; off < mapped.size(); off += per_record) {
    const size_t len = std::min(per_record, mapped.size() - off);
    std::vector<uint8_t> payload =
        EncodeUnmap(std::span<const BlockNo>(mapped.data() + off, len));
    auto abno = archive_.Burn(ArchiveRecordKind::kUnmap, 0, payload);
    RETURN_IF_ERROR(abno.status());
  }
  {
    std::unique_lock<std::shared_mutex> lock(map_mu_);
    for (BlockNo bno : mapped) {
      map_.erase(bno);
    }
  }
  for (BlockNo bno : mapped) {
    CacheErase(bno);
  }
  RefreshGauges();
  return OkStatus();
}

// --- Locks / listing --------------------------------------------------------

Status TieredStore::Lock(BlockNo bno, Port owner) { return inner_->Lock(bno, owner); }

Status TieredStore::Unlock(BlockNo bno, Port owner) { return inner_->Unlock(bno, owner); }

Result<std::vector<BlockNo>> TieredStore::ListBlocks() {
  ASSIGN_OR_RETURN(std::vector<BlockNo> blocks, inner_->ListBlocks());
  std::unordered_set<BlockNo> seen(blocks.begin(), blocks.end());
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  for (const auto& [bno, abno] : map_) {
    if (seen.insert(bno).second) {
      blocks.push_back(bno);
    }
  }
  return blocks;
}

// --- Migration --------------------------------------------------------------

bool TieredStore::CrashCut(TierCrashPoint point) {
  return injector_ != nullptr && injector_->Fire(point);
}

Status TieredStore::MigrateBlocks(std::span<const BlockNo> bnos, uint64_t* migrated) {
  std::lock_guard<std::mutex> lock(migrate_mu_);
  obs::ScopedSpan span("tier.migrate", obs::SpanKind::kTier, bnos.size());
  if (migrated != nullptr) {
    *migrated = 0;
  }
  std::vector<BlockNo> todo;
  {
    std::unordered_set<BlockNo> seen;
    std::shared_lock<std::shared_mutex> map_lock(map_mu_);
    for (BlockNo bno : bnos) {
      if (map_.count(bno) == 0 && seen.insert(bno).second) {
        todo.push_back(bno);
      }
    }
  }
  if (todo.empty()) {
    return OkStatus();
  }
  if (CrashCut(TierCrashPoint::kBeforeBurn)) {
    return UnavailableError("simulated power cut before burn");
  }
  ASSIGN_OR_RETURN(std::vector<BlockReadResult> copies, inner_->ReadMulti(todo));

  // Phase 1: burn. Each burn is simultaneously the archive copy and the durable
  // location-map update; the in-memory mapping is adopted immediately after, so reads
  // switch to the archive while the magnetic copy still exists (double residence).
  std::vector<BlockNo> burned;
  Status burn_status = OkStatus();
  for (size_t i = 0; i < todo.size(); ++i) {
    if (!copies[i].status.ok()) {
      continue;  // freed under us (GC races migration by design) — nothing to archive
    }
    if (i > 0 && i == todo.size() / 2 && CrashCut(TierCrashPoint::kMidBurn)) {
      return UnavailableError("simulated power cut mid-burn");
    }
    auto abno = archive_.Burn(ArchiveRecordKind::kData, todo[i], copies[i].data);
    if (!abno.ok()) {
      burn_status = abno.status();  // e.g. archive full: keep what burned, free only that
      break;
    }
    {
      std::unique_lock<std::shared_mutex> map_lock(map_mu_);
      map_[todo[i]] = *abno;
    }
    burned.push_back(todo[i]);
  }
  if (CrashCut(TierCrashPoint::kAfterBurn)) {
    return UnavailableError("simulated power cut after burn, before free");
  }

  // Phase 2: reclaim the magnetic copies, only now that every location is durable.
  size_t free_upto = burned.size();
  const bool cut_mid_free = CrashCut(TierCrashPoint::kMidFree);
  if (cut_mid_free) {
    free_upto = burned.size() / 2;
  }
  if (free_upto > 0) {
    Status st = inner_->FreeMulti(std::span<const BlockNo>(burned.data(), free_upto));
    if (st.ok()) {
      reclaimed_->Inc(free_upto);
    }
    // On failure the copies linger doubly resident; Mount()/ScrubPass() finish the job.
  }
  if (cut_mid_free) {
    return UnavailableError("simulated power cut mid-free");
  }
  migrated_->Inc(burned.size());
  RefreshGauges();
  if (migrated != nullptr) {
    *migrated = burned.size();
  }
  if (CrashCut(TierCrashPoint::kAfterFree)) {
    return UnavailableError("simulated power cut after free");
  }
  return burn_status;
}

// --- Scrub ------------------------------------------------------------------

Result<TierScrubSummary> TieredStore::ScrubPass() {
  std::lock_guard<std::mutex> lock(migrate_mu_);
  obs::ScopedSpan span("tier.scrub", obs::SpanKind::kTier);
  TierScrubSummary summary;
  std::vector<std::pair<BlockNo, BlockNo>> snapshot;
  {
    std::shared_lock<std::shared_mutex> map_lock(map_mu_);
    snapshot.assign(map_.begin(), map_.end());
  }
  for (const auto& [bno, abno] : snapshot) {
    if (archive_.ReadRecord(abno, bno).ok()) {
      ++summary.checked;
      continue;
    }
    // Archive rot. If a magnetic copy survives (interrupted migration left one, or the
    // record was corrupted before its free), re-burn it — the repaired record supersedes
    // the rotten one on the next mount.
    auto magnetic = inner_->Read(bno);
    if (!magnetic.ok()) {
      ++summary.unrecoverable;
      scrub_unrecoverable_->Inc();
      continue;
    }
    ASSIGN_OR_RETURN(BlockNo new_abno,
                     archive_.Burn(ArchiveRecordKind::kData, bno, *magnetic));
    {
      std::unique_lock<std::shared_mutex> map_lock(map_mu_);
      map_[bno] = new_abno;
    }
    ++summary.repaired;
    scrub_repairs_->Inc();
  }
  // Finish interrupted reclamations, as Mount() does.
  ASSIGN_OR_RETURN(std::vector<BlockNo> allocated, inner_->ListBlocks());
  std::vector<BlockNo> leftovers;
  {
    std::shared_lock<std::shared_mutex> map_lock(map_mu_);
    for (BlockNo bno : allocated) {
      if (map_.count(bno) > 0) {
        leftovers.push_back(bno);
      }
    }
  }
  // A just-repaired record's magnetic source is a leftover too: it was only still readable
  // because its free never completed. Freeing it here is the same reconcile rule.
  if (!leftovers.empty()) {
    RETURN_IF_ERROR(inner_->FreeMulti(leftovers));
    summary.reclaimed_redo = leftovers.size();
    reclaim_redo_->Inc(leftovers.size());
    reclaimed_->Inc(leftovers.size());
  }
  RefreshGauges();
  return summary;
}

// --- Introspection ----------------------------------------------------------

bool TieredStore::archived(BlockNo bno) const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return map_.count(bno) > 0;
}

size_t TieredStore::archived_blocks() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return map_.size();
}

std::vector<std::pair<BlockNo, BlockNo>> TieredStore::MappingSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return {map_.begin(), map_.end()};
}

TierStatInfo TieredStore::Stats() const {
  TierStatInfo info;
  info.enabled = true;
  info.archived_blocks = archived_blocks();
  info.archive_used_blocks = archive_.used_blocks();
  info.archive_capacity_blocks = archive_.capacity_blocks();
  info.archive_bytes = archive_.bytes_burned();
  info.migrated_total = migrated_->value();
  info.promotions = archive_reads_->value();
  info.scrub_repairs = scrub_repairs_->value();
  info.magnetic_reclaimed = reclaimed_->value();
  return info;
}

// --- Promotion cache --------------------------------------------------------

void TieredStore::CacheInsert(BlockNo bno, std::vector<uint8_t> data) {
  if (options_.promotion_cache_blocks == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(bno);
  if (it != cache_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
    it->second.data = std::move(data);
    return;
  }
  while (cache_.size() >= options_.promotion_cache_blocks && !cache_lru_.empty()) {
    cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
  cache_lru_.push_front(bno);
  cache_.emplace(bno, CacheEntry{std::move(data), cache_lru_.begin()});
  promotions_->Inc();
}

void TieredStore::CacheErase(BlockNo bno) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(bno);
  if (it != cache_.end()) {
    cache_lru_.erase(it->second.lru_it);
    cache_.erase(it);
  }
}

void TieredStore::DropPromotions() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  cache_lru_.clear();
}

void TieredStore::RefreshGauges() {
  archived_gauge_->Set(static_cast<int64_t>(archived_blocks()));
  archive_bytes_->Set(static_cast<int64_t>(archive_.bytes_burned()));
}

}  // namespace afs
