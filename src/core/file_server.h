// FileServer: the Amoeba File Service (paper §5) — the system's primary contribution.
//
// One FileServer is one server process of the service group. Several FileServers may share
// the same block storage (and capability secret); each manages the versions it created
// ("M.b, V.b's managing server"), while files and committed versions are global state on
// the shared store. A crashed file server loses only its uncommitted versions; clients
// redo those updates through another server (§5.4.1).
//
// On-disk structures:
//   * File table — one page (PageKind::kPlain with a magic tag) listing, per file:
//     file id, oldest retained version head, and the is-super-file bit. "Access paths to
//     committed versions go through the replicated file table"; the current version is
//     found by following commit references from the oldest retained version, maintaining
//     the Figure 4 invariant that the current version's commit reference is nil.
//   * Version pages and page trees as described in page.h.
//
// Concurrency control, exactly as §5.2/§5.3:
//   * Small files: optimistic. Commit's only critical section is test-and-set of the base
//     version's commit reference (implemented by lock/read/modify/write/unlock on the
//     version page's head block). On a set commit reference the server serialises the
//     update against the committed successor and merges the trees in one pass, repeating
//     down the chain until it wins or a real conflict is found.
//   * Super-files: top/inner locks made of ports. A waiter that finds a lock whose port has
//     died performs the §5.3 recovery itself: clear the lock if the commit reference is
//     unset, finish the crashed commit if it is set.

#ifndef SRC_CORE_FILE_SERVER_H_
#define SRC_CORE_FILE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/capability.h"
#include "src/base/rng.h"
#include "src/block/block_store.h"
#include "src/core/page.h"
#include "src/core/page_store.h"
#include "src/core/path.h"
#include "src/core/protocol.h"
#include "src/core/version_index.h"
#include "src/rpc/service.h"

namespace afs {

struct FileServerOptions {
  // Shared secret of the file service group; all servers of one cluster must agree.
  uint64_t group_secret = 0x5afe5ec7e7ull;
  // Reshare pages that were copied but never written or modified back to the base version
  // at commit time (§5.1's GC rule, applied eagerly). Ablation A2.
  bool reshare_on_commit = true;
  // Cache committed (immutable) pages in memory so serialisability and cache-validation
  // tests run "without having to read the page tree" (§5.4's flag-bit cache). Ablation A3.
  bool cache_committed_pages = true;
  size_t committed_cache_capacity = 4096;
  // §5.3 relaxation: allow creating a version of a super-file even when its top lock is
  // set; "the optimistic concurrency control which still lurks underneath this locking
  // mechanism will see to it that no harm is done".
  bool relaxed_superfile_locking = false;
  // Sharded deployments (src/shard): this server is shard `shard_id` of `num_shards`.
  // CreateFile then mints file ids congruent to shard_id mod num_shards, so any router can
  // place a capability without a lookup (docs/SHARDING.md). num_shards = 1 (the default)
  // is the unsharded service, bit-for-bit as before.
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
};

class FileServer : public Service {
 public:
  FileServer(Network* network, std::string name, BlockStore* blocks,
             FileServerOptions options = {});
  ~FileServer() override;

  // Attach to the shared store: find the file table (by scanning the account's blocks, the
  // §4 recovery operation) or create a fresh one. Must be called once after Start().
  Status AttachStore();

  // ----- Direct (in-process) API -------------------------------------------
  // The RPC handlers call straight into these; tests, benches and co-located layers may
  // use them directly to factor out transport cost. All methods are thread-safe.

  Result<Capability> CreateFile();
  Status DeleteFile(const Capability& file);
  Result<Capability> GetCurrentVersion(const Capability& file);
  Result<Capability> CreateVersion(const Capability& file, Port owner_port,
                                   bool respect_soft_lock);

  struct ReadResult {
    uint32_t nrefs = 0;
    std::vector<uint8_t> data;
  };
  Result<ReadResult> ReadPage(const Capability& version, const PagePath& path, bool want_refs);
  Status WritePage(const Capability& version, const PagePath& path,
                   std::span<const uint8_t> data);
  Status InsertRef(const Capability& version, const PagePath& parent, uint32_t index);
  Status RemoveRef(const Capability& version, const PagePath& parent, uint32_t index);
  Result<std::vector<uint8_t>> ReadRefs(const Capability& version, const PagePath& path);
  Status MoveSubtree(const Capability& version, const PagePath& from, const PagePath& to_parent,
                     uint32_t index);
  // §5's "split pages into two": the page at `path` keeps data[0, data_offset) and
  // refs[0, ref_index); a new sibling inserted right after it in the parent receives the
  // rest. Sets W and M on the split page, M on the parent.
  Status SplitPage(const Capability& version, const PagePath& path, uint32_t data_offset,
                   uint32_t ref_index);
  // On success returns the committed version's head. On kConflict the version is removed
  // ("V.b is removed, and its owner notified. The update can be retried on another
  // version.").
  Result<BlockNo> Commit(const Capability& version);
  Status Abort(const Capability& version);
  Result<Capability> CreateSubFile(const Capability& version, const PagePath& parent,
                                   uint32_t index);

  struct CacheCheck {
    Capability current_version;
    std::vector<PagePath> invalid;  // cached paths that must be discarded
  };
  Result<CacheCheck> ValidateCache(const Capability& file, BlockNo cached_head,
                                   const std::vector<PagePath>& cached_paths);

  struct FileStatInfo {
    BlockNo current_head = kNilRef;
    uint32_t committed_versions = 0;
    bool is_super = false;
  };
  Result<FileStatInfo> FileStat(const Capability& file);

  std::vector<BlockNo> ListUncommitted() const;

  // ----- Cross-shard two-phase commit (participant side; docs/SHARDING.md) ---
  // Phase 1: validate `version` exactly like Commit() would, link it at the end of its
  // chain with the in-doubt marker (prepare_txn = txn_id) persisted BEFORE the base's
  // commit reference flips, and hold it there until Decide. The staged version is invisible
  // to readers (FindCurrentHead stops short of in-doubt tips) and conflicts any concurrent
  // §5.2 commit of the same file. Idempotent per txn_id. kConflict removes the version.
  Result<BlockNo> Prepare(const Capability& version, uint64_t txn_id);
  // Phase 2: apply the coordinator's decision. Commit clears the marker and publishes the
  // staged version as current; abort unlinks it from the chain and frees its private
  // pages. Idempotent — deciding an unknown txn_id succeeds without effect.
  Status Decide(uint64_t txn_id, bool commit);
  struct InDoubtEntry {
    BlockNo head = kNilRef;
    uint64_t txn_id = 0;
  };
  // Prepared-but-undecided versions held by this server (recovery + fsck support).
  std::vector<InDoubtEntry> ListInDoubt() const;

  // ----- Tier admin ----------------------------------------------------------
  // Hooks into an attached storage tier (src/tier), serving the kMigrateNow / kScrubNow /
  // kTierStat admin ops. std::function indirection keeps the dependency arrow pointing
  // tier -> core: the deployment wires the hooks up at setup, before serving; a server
  // with no tier answers migrate/scrub with kUnavailable and stat with enabled=false.
  struct TierAdminHooks {
    std::function<Result<uint64_t>()> migrate;          // one migration cycle
    std::function<Result<TierScrubSummary>()> scrub;    // one scrub pass
    std::function<TierStatInfo()> stat;
  };
  void SetTierAdmin(TierAdminHooks hooks) { tier_admin_ = std::move(hooks); }

  // ----- Shard admin ---------------------------------------------------------
  // Coordinator hooks for the cross-shard two-phase commit (src/shard), serving the
  // kCrossCommit / kResolveTxn ops. Same dependency discipline as the tier hooks: the
  // deployment wires a ShardCoordinator in at setup; a server with no coordinator answers
  // kUnavailable.
  struct ShardAdminHooks {
    // Commit an n-participant transaction atomically; returns heads in participant order.
    std::function<Result<std::vector<BlockNo>>(
        const std::vector<std::pair<uint32_t, Capability>>& participants)>
        cross_commit;
    // Decision-log lookup (presumed abort): true = committed, false = aborted.
    std::function<Result<bool>(uint64_t txn_id)> resolve;
  };
  void SetShardAdmin(ShardAdminHooks hooks) { shard_admin_ = std::move(hooks); }

  // ----- GC / test support ---------------------------------------------------

  // GC fence: returns once every mutating operation that was in flight at the time of
  // the call has finished. The collector calls this after opening its allocation epoch
  // and before snapshotting the root set, so a block allocated before the epoch by an
  // op that had not yet linked it anywhere is published (or freed) before the roots are
  // read. Mutating ops hold the shared side of `ops_gate_`; this drains them by taking
  // the exclusive side once.
  void QuiesceOps() const { std::unique_lock<std::shared_mutex> gate(ops_gate_); }

  PageStore* page_store() { return &pages_; }
  // Snapshot of the file table: (file id -> oldest retained head, is_super).
  struct FileEntry {
    uint64_t file_id = 0;
    BlockNo oldest_head = kNilRef;
    bool is_super = false;
  };
  std::vector<FileEntry> SnapshotFileTable();
  // Rewrite a file's oldest-retained pointer (GC pruning).
  Status SetOldestHead(uint64_t file_id, BlockNo new_oldest);
  // Walk the committed chain of a file from its oldest retained version (oldest first).
  Result<std::vector<BlockNo>> CommittedChain(uint64_t file_id);
  // Blocks of the on-disk file table page chain (GC must not sweep them).
  Result<std::vector<BlockNo>> FileTableBlocks();
  const FileServerOptions& options() const { return options_; }
  uint64_t serialise_tests_run() const { return serialise_tests_ctr_->value(); }
  uint64_t commits_fast_path() const { return commit_fast_path_->value(); }
  uint64_t commits_sig_fast_path() const { return commit_sig_fast_->value(); }
  uint64_t index_hits() const { return index_hits_->value(); }
  // Total transport calls sampled into the commit.rpcs histogram (sum over all Commit()
  // calls, every outcome) — the measured commit-path RPC cost.
  uint64_t commit_rpcs_total() const { return commit_rpcs_->sum_ns(); }

  // The in-memory version index (a cache over committed chains; version_index.h). fsck
  // verifies it against the on-disk chains (invariant I7).
  const VersionIndex& version_index() const { return index_; }
  // GC pruning hook: drop index records for pruned versions of `file_id`.
  void OnVersionsPruned(uint64_t file_id, const std::vector<BlockNo>& pruned_heads);

 protected:
  Result<Message> Handle(const Message& request) override;
  void OnRestart() override;

 private:
  struct VersionInfo {
    uint64_t file_id = 0;
    BlockNo head = kNilRef;
    BlockNo base_head = kNilRef;
    Port owner = kNullPort;
    bool is_super_update = false;
    // Serialises operations on one version; ops on different versions run in parallel.
    std::shared_ptr<std::mutex> op_mu = std::make_shared<std::mutex>();
    // Every page-chain head this version allocated. Abort frees exactly these — merged
    // trees may share committed pages of other versions, which must never be freed.
    std::vector<BlockNo> allocated_blocks;
    // Sub-file version pages copied during this super-file update: old head -> new head.
    std::vector<std::pair<BlockNo, BlockNo>> copied_subfiles;
    // Sub-file version pages visited and inner-locked but not (yet) copied.
    std::vector<BlockNo> locked_subfiles;
    // Files created inside this (uncommitted) version; removed again on abort.
    std::vector<uint64_t> created_subfiles;
    // Exact page-set signature of this update, maintained by WalkPath alongside the
    // on-disk flag bookkeeping (version_index.h). Drops to valid=false on super-file
    // sub-tree entry or entry-cap overflow; the commit path then walks trees as before.
    AccessSig sig;
  };

  // Guard for operating on one uncommitted version: holds the per-version mutex and the
  // (node-stable) VersionInfo pointer. A null info means the version is not managed here
  // (a committed snapshot, or lost in a crash).
  struct VersionOpGuard {
    // Keeps the mutex alive even after the caller erases the VersionInfo that owns it
    // (Commit/Abort erase while still holding the lock). Declared before `lock` so the
    // lock is released before the mutex can be destroyed.
    std::shared_ptr<std::mutex> mu;
    std::unique_lock<std::mutex> lock;
    VersionInfo* info = nullptr;
  };
  Result<VersionOpGuard> AcquireVersionOp(BlockNo head);

  // --- capability helpers ---
  Capability SignFileCap(uint64_t file_id);
  Capability SignVersionCap(BlockNo head);
  Status VerifyFileCap(const Capability& cap, uint32_t rights, uint64_t* file_id);
  Status VerifyVersionCap(const Capability& cap, uint32_t rights, BlockNo* head);

  // --- file table ---
  // Mint a fresh file id (requires table_mu_). Sharded servers stripe the id space:
  // the result is always congruent to shard_id mod num_shards, and never 0.
  uint64_t MintFileIdLocked();
  // Re-seed the version index from the on-disk chains (heads only; signatures and root
  // snapshots cannot be recovered). Called after (re-)attaching to the store.
  void RebuildVersionIndex();
  // Repopulate prepared_ from on-disk in-doubt markers (crash recovery: a version staged
  // by Prepare whose decision never arrived). Called from AttachStore.
  void RecoverPreparedTips();
  Status LoadFileTable();
  Status PersistFileTableLocked();  // requires table_mu_
  Result<FileEntry> LookupFileLocked(uint64_t file_id);

  // --- version chain ---
  // Follow commit references from `from` to the chain's end; returns the current head.
  Result<BlockNo> FindCurrentHead(uint64_t file_id);
  Result<Page> LoadPage(BlockNo head);             // with committed-page cache
  Result<Page> LoadPageUncached(BlockNo head);
  // Vectored LoadPage: serves what it can from the committed-page cache and fetches the
  // misses with one batched PageStore read. result[i] corresponds to heads[i].
  Result<std::vector<Page>> LoadPagesCommitted(std::span<const BlockNo> heads);
  void CacheCommittedPage(BlockNo head, const Page& page);
  void UncachePage(BlockNo head);

  // --- tree operations ---
  struct WalkStep {
    BlockNo bno = kNilRef;
    Page page;
    bool dirty = false;  // needs persisting (flags or refs changed during the walk)
  };
  // Persist the dirty steps of a walk (all private copies; in-place overwrites).
  Status PersistSteps(std::vector<WalkStep>* steps);
  // Descend `path` in version `head`, copying shared pages on the way (COW + flag
  // bookkeeping). `final_access` is the flag(s) to set on the target's reference
  // (kRead/kWritten/kSearched/kModified); `materialize_target` controls whether a hole at
  // the final position is filled with a fresh page (writes) or reported (reads).
  // Returns the chain of pages from root to target; all returned pages are already
  // persisted with updated flags. `info` may be null for committed (read-only) walks, in
  // which case no mutation is permitted (kReadOnly if the walk would need to copy).
  Result<std::vector<WalkStep>> WalkPath(VersionInfo* info, BlockNo head, const PagePath& path,
                                         uint8_t final_access, bool materialize_target);
  // Mirror the flag updates a mutating walk made into the version's access signature.
  void RecordWalkSig(VersionInfo* info, const PagePath& path, uint8_t final_access);

  // Copy-on-first-access of the child at refs[index] of `parent` (whose own head is
  // parent_bno). Handles sub-file version pages: sets the inner lock on the shared current
  // sub-version page first (§5.3) and records the copy in `info`.
  Result<BlockNo> CopyChild(VersionInfo* info, WalkStep* parent, uint32_t index);

  // --- block-level critical sections ---
  // Mint a per-operation lock identity (a transaction port parent-linked to this server's
  // port, so it dies with the server) and take the block lock, spinning briefly on
  // contention. Every version-page read-modify-write goes through this.
  Result<Port> AcquireBlockLock(BlockNo bno);
  void ReleaseBlockLock(BlockNo bno, Port owner);

  // --- locks (§5.3) ---
  // Test the locking rules on the current version page and set the top lock.
  // May perform dead-holder recovery.
  Status AcquireUpdateLocks(uint64_t file_id, bool is_super, Port owner,
                            bool respect_soft_lock, BlockNo* current_head);
  Status SetInnerLock(BlockNo sub_head, Port owner);
  Status ClearInnerLock(BlockNo sub_head, Port owner);
  Status ClearTopLock(BlockNo head, Port owner);
  // §5.3 waiter recovery: the holder of `locked_head`'s top lock died. If its commit
  // reference is set, finish the crashed super-file commit; otherwise just clear the lock.
  Status RecoverDeadTopLock(BlockNo locked_head, const Page& locked_page);

  // --- commit (§5.2) ---
  // One test-and-set attempt on base_head's commit reference. Returns:
  //   ok(true)   — commit reference set, V.b is now current.
  //   ok(false)  — base already superseded; *successor receives the next version.
  Result<bool> TestAndSetCommitRef(BlockNo base_head, BlockNo new_head, BlockNo* successor);

  // --- group commit (docs/PERF.md §5a) ---
  // One Commit() or Prepare() request. A Commit() requester loads the root and parks in
  // the combiner; the group leader validates, links, persists and flips on its behalf,
  // then posts the result. Prepare() runs its own segment of one.
  struct PendingCommit {
    VersionInfo* info = nullptr;
    // Version page. Between attempts base_ref names the last committed head this request
    // has been validated against; the segment loop rewrites base/commit references.
    Page root;
    bool done = false;      // written only under commit_mu_; the follower's wake condition
    bool fast_path = true;  // no real merge ran: tree is this update's own, reshare is safe
    // Set aside from a multi-member segment (super-file update, or a signature test against
    // a mate that could not decide): commits afterwards as its own segment of one.
    bool deferred = false;
    Status validation = OkStatus();  // first validation failure (conflict or I/O)
    Result<BlockNo> result = InternalError("commit not processed");
    obs::Counter* outcome = nullptr;  // outcome counter for the requester's CommitScope
  };
  // Validate `req` against every committed successor of root.base_ref up to the chain end
  // (version index first when `use_index`, else or on a miss a commit-reference walk),
  // merging as it goes and advancing root.base_ref. An in-doubt successor is a conflict.
  Status ValidateToChainEnd(PendingCommit* req, bool use_index);
  // Validate `req` against ONE committed successor c and merge on success (signature fast
  // path first — version_index.h — then the serialiser walk). kConflict means not
  // serialisable; the caller aborts the version.
  Status ValidateAgainstSuccessor(PendingCommit* req, BlockNo c_head, const AccessSig* c_sig,
                                  const Page* c_root);
  // The §5.2 validate-and-flip loop over one segment: an ordered list of requests for one
  // file, all holding their version op locks. Validates every member to the chain end,
  // links the survivors, persists their roots in one write and publishes them with one
  // test-and-set on the tip; a lost flip re-validates and retries (at most 256 attempts).
  // Winners get result = head and, for a commit, FinishCommit; conflicts are aborted; a
  // flip that errors returns the error without aborting. prepare_txn != 0 stages a
  // segment of one as an in-doubt tip instead (the marker is persisted with the root).
  void CommitSegment(const std::vector<PendingCommit*>& segment, uint64_t prepare_txn);
  // Post-flip step of a committed member: index it, §5.3 completion, §5.1 reshare.
  void FinishCommit(PendingCommit* req);
  // Stage into the commit combiner; leader election + batch processing.
  Result<BlockNo> CommitGrouped(VersionInfo* info, Page root, obs::Counter** outcome_ctr);
  void ProcessCommitBatch(const std::vector<PendingCommit*>& batch);
  // Record a committed version in the index (+ current-version hint). `reshared` commits
  // cache no root snapshot (the reshare pass rewrites it after commit).
  void IndexCommitted(VersionInfo* info, BlockNo base, const Page& root, bool reshared);
  // After a super-file version committed: descend, commit the copied sub-files ("these
  // commits always succeed"), clear remaining inner locks.
  Status FinishSuperCommit(VersionInfo* info);
  // §5.1 GC rule applied eagerly: reshare copied-but-unchanged subtrees with the base.
  Status ReshareCleanPages(BlockNo head);
  // Post-order reshare helper; returns whether `page` changed, and reports via
  // `subtree_clean` whether the page's subtree contains no writes or modifications.
  Result<bool> ReshareSubtree(Page* page, bool* subtree_clean);
  // Abort with the version's op mutex already held.
  Status AbortLocked(VersionInfo* info);
  // Free the private (copied, unshared) pages of an uncommitted version.
  Status FreePrivatePages(BlockNo head);

  // --- cache validation (§5.4) ---
  // True if committed version `head`'s update wrote the page at `path` or restructured one
  // of its ancestors.
  Result<bool> VersionWrotePath(BlockNo head, const PagePath& path);
  Result<bool> VersionWrotePathFromRoot(const Page& root, const PagePath& path);

  // --- RPC plumbing ---
  Result<Message> Dispatch(const Message& request);

  BlockStore* blocks_;
  PageStore pages_;
  FileServerOptions options_;
  CapabilitySigner file_signer_;
  CapabilitySigner version_signer_;
  Rng rng_;

  mutable std::mutex table_mu_;
  BlockNo table_head_ = kNilRef;
  std::map<uint64_t, FileEntry> files_;
  std::unordered_map<uint64_t, BlockNo> current_cache_;  // file id -> last known current

  mutable std::mutex versions_mu_;
  std::unordered_map<BlockNo, VersionInfo> uncommitted_;

  // Prepared (in-doubt) cross-shard versions, by transaction id. An entry's version has
  // left uncommitted_ — ordinary ops on it fail "not managed" — but its head is still
  // reported by ListUncommitted() so the GC root set and pruning pins protect it until
  // the coordinator's decision arrives. Rebuilt from the on-disk prepare_txn markers on
  // AttachStore (allocated_blocks is then unknown; abort falls back to FreePrivatePages).
  struct PreparedRec {
    uint64_t file_id = 0;
    BlockNo head = kNilRef;
    BlockNo base_head = kNilRef;
    std::vector<BlockNo> allocated_blocks;
    bool know_allocations = false;  // false after restart: free by tree walk instead
    // Carried from the VersionInfo so a decide-commit can index the version with its
    // signature. Recovered entries set valid = false (the signature is unrecoverable).
    AccessSig sig;
  };
  std::unordered_map<uint64_t, PreparedRec> prepared_;  // guarded by versions_mu_

  // Commit combiner (group commit). Commit() stages a PendingCommit here; the first
  // stager becomes leader and drains the queue as one batch, followers park on the
  // condition variable until their result is posted (or they are elected leader for the
  // next batch). Same leader/followers shape as the journal's fsync group commit.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::vector<PendingCommit*> commit_queue_;
  bool commit_leader_active_ = false;

  // In-memory index over committed chains (cache only; see version_index.h).
  VersionIndex index_;

  // Held (shared) for the duration of every mutating op; see QuiesceOps(). Acquired
  // before any other lock and never while one is held.
  mutable std::shared_mutex ops_gate_;

  // Tier admin hooks; installed once at deployment setup, before serving (not guarded).
  TierAdminHooks tier_admin_;
  // Shard coordinator hooks; same installation discipline.
  ShardAdminHooks shard_admin_;

  mutable std::mutex cache_mu_;
  std::unordered_map<BlockNo, Page> committed_cache_;
  std::vector<BlockNo> cache_lru_;  // simple clock-ish eviction

  // Commit-outcome and cache metrics (Service's registry). Resolved once at construction;
  // the commit hot path touches them with relaxed atomic increments only — no mutex.
  obs::Counter* commit_fast_path_;
  obs::Counter* commit_validated_;   // won after >= 1 serialisability test
  obs::Counter* commit_merged_;      // successful TestAndMerge passes
  obs::Counter* commit_conflicts_;   // aborted: not serialisable (or starved)
  obs::Counter* serialise_tests_ctr_;
  obs::Counter* commit_sig_fast_;    // successor hops decided by signatures alone
  obs::Counter* index_hits_;         // commit.index_hit: chain/root served from the index
  obs::Counter* index_misses_;       // commit.index_miss: fell back to the chain walk
  obs::Counter* group_fallbacks_;    // segment flip lost and re-validated in the loop
  obs::Histogram* commit_group_size_;
  obs::Histogram* commit_rpcs_;      // transport calls issued by one Commit() call
  obs::Histogram* commit_latency_ns_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* cache_evictions_;
  // Cross-shard participant counters (shard.* namespace; docs/OBSERVABILITY.md).
  obs::Counter* shard_prepares_;          // shard.prepare: phase-1 validations staged
  obs::Counter* shard_prepare_conflicts_; // shard.prepare_conflict: phase-1 aborts
  obs::Counter* shard_decide_commits_;    // shard.decide_commit
  obs::Counter* shard_decide_aborts_;     // shard.decide_abort
  // The global SLO tracker's "commit" class: commit latency scored against declared
  // p50/p99/p999 targets (BENCH_slo.json). Resolved once, recorded with relaxed adds.
  obs::Histogram* slo_commit_;

  friend class Serialiser;
};

}  // namespace afs

#endif  // SRC_CORE_FILE_SERVER_H_
