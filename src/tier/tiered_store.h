// TieredStore: a BlockStore composing the magnetic tier (any BlockStore — a StableStore
// pair in deployments, InMemoryBlockStore in tests) with a write-once archive tier
// (paper §6: committed versions are immutable, so cold history can burn onto optical media
// while only mutable state stays magnetic).
//
// Placement is tracked by a block-location map: magnetic block number → archive block
// number. The map's persistent form IS the archive itself — every burned record names its
// source block, and unmap records retract mappings — so Mount() rebuilds it with one
// sequential scan and there is no separate structure that could diverge (see archive.h).
//
// Migration protocol (MigrateBlocks), in crash-safe order:
//   1. read the magnetic copies (vectored ReadMulti);
//   2. per block: burn a data record — the burn is simultaneously the copy and the durable
//      location-map update — then adopt the mapping in memory;
//   3. only after every burn: free the magnetic copies (vectored, direct to the inner
//      store, bypassing this class's unmap logic).
// A crash before a block's burn leaves it purely magnetic; after the burn, the archive copy
// is durable and the magnetic copy is at worst an orphan that Mount()/ScrubPass() reconcile
// (free again, idempotently). At no instant is a committed block on neither tier. The
// TierCrashPoint catalogue names every distinct intermediate state.
//
// Reads resolve through the map: archived blocks are served from a bounded promotion cache
// or read (and promoted) from the archive; everything else passes to the magnetic tier.
// Writes to archived blocks are rejected with kReadOnly — only immutable committed pages
// are ever migrated (the Migrator guarantees version pages stay magnetic), so a write to an
// archived block is a caller bug by construction.
//
// Allocation guard: the magnetic allocator hands out block numbers cursor-wise and CAN
// reuse a freed number after the 2^28 cursor wraps. Before an allocation that collides
// with a live mapping is returned, the stale mapping is durably unmapped — otherwise a
// reader of the fresh block would be served the dead block's archived bytes.

#ifndef SRC_TIER_TIERED_STORE_H_
#define SRC_TIER_TIERED_STORE_H_

#include <list>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/block/block_store.h"
#include "src/core/protocol.h"
#include "src/tier/archive.h"
#include "src/tier/crash_point.h"

namespace afs {

struct TieredStoreOptions {
  // Archived blocks kept hot in the promotion cache (0 disables promotion; every archived
  // read then goes to the medium — the bench's cold-read mode).
  size_t promotion_cache_blocks = 1024;
};

class TieredStore : public BlockStore {
 public:
  // `magnetic` and `archive_disk` must outlive this object. Call Mount() before use.
  TieredStore(BlockStore* magnetic, WriteOnceDisk* archive_disk, TieredStoreOptions options = {});

  // Rebuild the location map from the archive's burned prefix, then reconcile: a magnetic
  // block that is both mapped and still allocated is an interrupted migration's leftover
  // copy — finish the free. Idempotent; call at every (re)start.
  Status Mount();

  // --- BlockStore ----------------------------------------------------------
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
  // Union of the magnetic tier's blocks and the archived ones — GC and fsck see archived
  // blocks as owned and reachable, so migration is transparent to both.
  Result<std::vector<BlockNo>> ListBlocks() override;
  uint32_t payload_capacity() const override { return inner_->payload_capacity(); }

  // --- Tier operations -----------------------------------------------------

  // Archive the given magnetic blocks (already-archived ones are skipped) and free their
  // magnetic copies. `migrated` (optional) receives the number of blocks newly archived.
  // On error (including a fired crash point) the tiers are consistent but the cycle is
  // incomplete — rerunning completes it.
  Status MigrateBlocks(std::span<const BlockNo> bnos, uint64_t* migrated);

  // One scrub pass: CRC-verify every mapping's archive record; a corrupt record whose
  // magnetic copy still exists is repaired by re-burning (the inverse of stable-pair
  // companion repair works both ways: Read() repairs lost magnetic blocks from the archive,
  // this repairs a rotted archive from magnetic leftovers). Also completes interrupted
  // migrations' frees, like Mount().
  Result<TierScrubSummary> ScrubPass();

  bool archived(BlockNo bno) const;
  size_t archived_blocks() const;
  // Snapshot of the location map, (magnetic bno, archive bno) pairs. Fsck and tests.
  std::vector<std::pair<BlockNo, BlockNo>> MappingSnapshot() const;
  TierStatInfo Stats() const;
  ArchiveTier* archive() { return &archive_; }
  BlockStore* magnetic() { return inner_; }

  // Test hook: migration visits the armed site and aborts the cycle there.
  void set_crash_injector(CrashInjector<TierCrashPoint>* injector) { injector_ = injector; }

  // Drop the promotion cache (bench cold-read reset).
  void DropPromotions();

 private:
  // Serve an archived block from the promotion cache or the medium (promoting on miss).
  Result<std::vector<uint8_t>> ReadArchived(BlockNo bno, BlockNo abno);
  // Durably retract mappings for `bnos` (burn an unmap record) and erase them from the map
  // and the promotion cache. No-op for unmapped entries.
  Status UnmapPersistently(std::span<const BlockNo> bnos);
  void CacheInsert(BlockNo bno, std::vector<uint8_t> data);
  void CacheErase(BlockNo bno);
  void RefreshGauges();
  // Fires `point` if armed; returns true when the migration must abandon the cycle.
  bool CrashCut(TierCrashPoint point);

  BlockStore* inner_;
  ArchiveTier archive_;
  TieredStoreOptions options_;
  CrashInjector<TierCrashPoint>* injector_ = nullptr;

  mutable std::shared_mutex map_mu_;
  std::unordered_map<BlockNo, BlockNo> map_;  // magnetic bno -> archive bno

  std::mutex migrate_mu_;  // one migration/scrub at a time

  // Promotion cache: archived blocks recently read, LRU-evicted.
  mutable std::mutex cache_mu_;
  std::list<BlockNo> cache_lru_;  // front = most recent
  struct CacheEntry {
    std::vector<uint8_t> data;
    std::list<BlockNo>::iterator lru_it;
  };
  std::unordered_map<BlockNo, CacheEntry> cache_;

  obs::MetricRegistry metrics_{"tier"};
  obs::Counter* migrated_ = metrics_.counter("tier.migrated_blocks");
  obs::Counter* reclaimed_ = metrics_.counter("tier.reclaimed_magnetic");
  obs::Counter* reclaim_redo_ = metrics_.counter("tier.reclaim_redo");
  obs::Counter* promotions_ = metrics_.counter("tier.promotions");
  obs::Counter* promo_hits_ = metrics_.counter("tier.promo_hits");
  obs::Counter* archive_reads_ = metrics_.counter("tier.archive_reads");
  obs::Counter* write_rejected_ = metrics_.counter("tier.write_archived_rejected");
  obs::Counter* realloc_unmaps_ = metrics_.counter("tier.realloc_unmaps");
  obs::Counter* scrub_repairs_ = metrics_.counter("tier.scrub_repairs");
  obs::Counter* scrub_unrecoverable_ = metrics_.counter("tier.scrub_unrecoverable");
  obs::Counter* magnetic_fallbacks_ = metrics_.counter("tier.magnetic_fallbacks");
  obs::Gauge* archived_gauge_ = metrics_.gauge("tier.archived_blocks");
  obs::Gauge* archive_bytes_ = metrics_.gauge("tier.archive_bytes");
};

}  // namespace afs

#endif  // SRC_TIER_TIERED_STORE_H_
