#include "src/core/file_server.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "src/base/wire.h"
#include "src/core/protocol.h"
#include "src/core/serialise.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/rpc/client.h"

namespace afs {
namespace {

// Tag identifying the file-table page during a recovery scan (§4's recovery operation).
constexpr uint64_t kFileTableMagic = 0xaf57ab1e0f11e5ull;

// Bound on optimistic retry loops (chain walks, lock acquisition). Chains longer than this
// in one operation indicate livelock or corruption.
constexpr int kMaxChainSteps = 4096;

}  // namespace

FileServer::FileServer(Network* network, std::string name, BlockStore* blocks,
                       FileServerOptions options)
    : Service(network, std::move(name)),
      blocks_(blocks),
      pages_(blocks),
      options_(options),
      file_signer_(0, Mix64(options.group_secret ^ 0xf11e)),
      version_signer_(0, Mix64(options.group_secret ^ 0x7e55)),
      rng_(options.group_secret ^ 0x5eed),
      commit_fast_path_(metrics()->counter("commit.fast_path")),
      commit_validated_(metrics()->counter("commit.validated")),
      commit_merged_(metrics()->counter("commit.merged")),
      commit_conflicts_(metrics()->counter("commit.conflict_aborted")),
      serialise_tests_ctr_(metrics()->counter("commit.serialise_tests")),
      commit_sig_fast_(metrics()->counter("commit.sig_fast_path")),
      index_hits_(metrics()->counter("commit.index_hit")),
      index_misses_(metrics()->counter("commit.index_miss")),
      group_fallbacks_(metrics()->counter("commit.group_fallback")),
      commit_group_size_(metrics()->histogram("commit.group_size")),
      commit_rpcs_(metrics()->histogram("commit.rpcs")),
      commit_latency_ns_(metrics()->histogram("commit.latency_ns")),
      cache_hits_(metrics()->counter("cache.hit")),
      cache_misses_(metrics()->counter("cache.miss")),
      cache_evictions_(metrics()->counter("cache.eviction")),
      shard_prepares_(metrics()->counter("shard.prepare")),
      shard_prepare_conflicts_(metrics()->counter("shard.prepare_conflict")),
      shard_decide_commits_(metrics()->counter("shard.decide_commit")),
      shard_decide_aborts_(metrics()->counter("shard.decide_abort")),
      slo_commit_(obs::SloTracker::Global()->ClassHistogram("commit")) {
  if (options_.num_shards == 0) {
    options_.num_shards = 1;
  }
}

uint64_t FileServer::MintFileIdLocked() {
  uint64_t id = rng_.NextU64() | 1;
  const uint64_t n = options_.num_shards;
  if (n > 1) {
    id -= id % n;
    id += options_.shard_id;
    if (id == 0) {
      id = options_.shard_id == 0 ? n : options_.shard_id;
    }
  }
  return id;
}

FileServer::~FileServer() { Shutdown(); }

// ---------------------------------------------------------------------------
// Capabilities
// ---------------------------------------------------------------------------

Capability FileServer::SignFileCap(uint64_t file_id) {
  Capability cap = file_signer_.Sign(file_id, Rights::kAll);
  cap.port = port();  // routing hint only; any group member verifies the object signature
  return cap;
}

Capability FileServer::SignVersionCap(BlockNo head) {
  Capability cap = version_signer_.Sign(head, Rights::kAll);
  cap.port = port();  // versions are managed by the server that created them
  return cap;
}

Status FileServer::VerifyFileCap(const Capability& cap, uint32_t rights, uint64_t* file_id) {
  RETURN_IF_ERROR(file_signer_.VerifyObject(cap, rights));
  *file_id = cap.object;
  return OkStatus();
}

Status FileServer::VerifyVersionCap(const Capability& cap, uint32_t rights, BlockNo* head) {
  RETURN_IF_ERROR(version_signer_.VerifyObject(cap, rights));
  *head = static_cast<BlockNo>(cap.object);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// File table
// ---------------------------------------------------------------------------

Status FileServer::AttachStore() {
  // Look for an existing file table among the account's blocks — this is the §4 recovery
  // operation: "a file server can then use its redundancy information to restore its file
  // system after a severe crash."
  ASSIGN_OR_RETURN(std::vector<BlockNo> owned, blocks_->ListBlocks());
  std::sort(owned.begin(), owned.end());
  // Every owned block is tried as a candidate page head; most are chain tails or version
  // pages and fail the filter. The vectored read scans the whole account in a handful of
  // RPCs, tolerating per-block failures (tails often do not decode as pages).
  ASSIGN_OR_RETURN(std::vector<PageReadResult> scan, pages_.ReadPagesDetailed(owned));
  for (size_t i = 0; i < owned.size(); ++i) {
    if (!scan[i].status.ok()) {
      continue;
    }
    const Page& page = scan[i].page;
    if (page.kind != PageKind::kPlain || page.base_ref != kNilRef || !page.refs.empty() ||
        page.data.size() < 8) {
      continue;
    }
    WireDecoder dec(page.data);
    auto magic = dec.GetU64();
    if (magic.ok() && *magic == kFileTableMagic) {
      {
        std::lock_guard<std::mutex> lock(table_mu_);
        table_head_ = owned[i];
        RETURN_IF_ERROR(LoadFileTable());
      }
      RebuildVersionIndex();
      RecoverPreparedTips();
      return OkStatus();
    }
  }
  // Fresh store: create an empty table.
  Page table;
  table.kind = PageKind::kPlain;
  WireEncoder enc;
  enc.PutU64(kFileTableMagic);
  enc.PutU32(0);
  table.data = std::move(enc).Take();
  ASSIGN_OR_RETURN(BlockNo head, pages_.WritePage(table));
  std::lock_guard<std::mutex> lock(table_mu_);
  table_head_ = head;
  files_.clear();
  return OkStatus();
}

void FileServer::RebuildVersionIndex() {
  index_.Clear();
  // Heads only: signatures and root snapshots belong to the server instance that ran the
  // commits and are not recoverable. Validation against re-seeded records falls back to
  // the serialiser's tree walk, exactly as for another server's commits.
  for (const FileEntry& entry : SnapshotFileTable()) {
    auto chain = CommittedChain(entry.file_id);
    if (chain.ok()) {
      index_.SeedChain(entry.file_id, *chain);
    }
  }
}

void FileServer::OnVersionsPruned(uint64_t file_id, const std::vector<BlockNo>& pruned_heads) {
  index_.Forget(file_id, pruned_heads);
}

Status FileServer::LoadFileTable() {
  // Caller holds table_mu_.
  ASSIGN_OR_RETURN(Page table, pages_.ReadPage(table_head_));
  WireDecoder dec(table.data);
  ASSIGN_OR_RETURN(uint64_t magic, dec.GetU64());
  if (magic != kFileTableMagic) {
    return CorruptError("file table magic mismatch");
  }
  ASSIGN_OR_RETURN(uint32_t nfiles, dec.GetU32());
  files_.clear();
  for (uint32_t i = 0; i < nfiles; ++i) {
    FileEntry entry;
    ASSIGN_OR_RETURN(entry.file_id, dec.GetU64());
    ASSIGN_OR_RETURN(entry.oldest_head, dec.GetU32());
    ASSIGN_OR_RETURN(uint8_t is_super, dec.GetU8());
    entry.is_super = is_super != 0;
    files_[entry.file_id] = entry;
  }
  return OkStatus();
}

Status FileServer::PersistFileTableLocked() {
  Page table;
  table.kind = PageKind::kPlain;
  WireEncoder enc;
  enc.PutU64(kFileTableMagic);
  enc.PutU32(static_cast<uint32_t>(files_.size()));
  for (const auto& [id, entry] : files_) {
    enc.PutU64(entry.file_id);
    enc.PutU32(entry.oldest_head);
    enc.PutU8(entry.is_super ? 1 : 0);
  }
  table.data = std::move(enc).Take();
  return pages_.OverwritePage(table_head_, table);
}

Result<FileServer::FileEntry> FileServer::LookupFileLocked(uint64_t file_id) {
  auto it = files_.find(file_id);
  if (it == files_.end()) {
    // Another server may have created the file; reload the shared table once.
    RETURN_IF_ERROR(LoadFileTable());
    it = files_.find(file_id);
    if (it == files_.end()) {
      return NotFoundError("no such file");
    }
  }
  return it->second;
}

std::vector<FileServer::FileEntry> FileServer::SnapshotFileTable() {
  std::lock_guard<std::mutex> lock(table_mu_);
  (void)LoadFileTable();
  std::vector<FileEntry> out;
  out.reserve(files_.size());
  for (const auto& [id, entry] : files_) {
    (void)id;
    out.push_back(entry);
  }
  return out;
}

Status FileServer::SetOldestHead(uint64_t file_id, BlockNo new_oldest) {
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(table_head_));
  std::lock_guard<std::mutex> lock(table_mu_);
  Status st = LoadFileTable();
  if (st.ok()) {
    auto it = files_.find(file_id);
    if (it == files_.end()) {
      st = NotFoundError("no such file");
    } else {
      it->second.oldest_head = new_oldest;
      st = PersistFileTableLocked();
    }
  }
  ReleaseBlockLock(table_head_, block_lock);
  return st;
}

// ---------------------------------------------------------------------------
// Page loading and the committed-page cache
// ---------------------------------------------------------------------------

Result<Page> FileServer::LoadPageUncached(BlockNo head) { return pages_.ReadPage(head); }

Result<Page> FileServer::LoadPage(BlockNo head) {
  if (options_.cache_committed_pages) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = committed_cache_.find(head);
    if (it != committed_cache_.end()) {
      cache_hits_->Inc();
      obs::Trace(obs::TraceEvent::kCacheHit, head);
      return it->second;
    }
  }
  if (options_.cache_committed_pages) {
    cache_misses_->Inc();
    obs::Trace(obs::TraceEvent::kCacheMiss, head);
  }
  ASSIGN_OR_RETURN(Page page, pages_.ReadPage(head));
  // Version pages are mutable in place (commit reference, locks) and must never be served
  // stale; only plain pages are cached.
  if (options_.cache_committed_pages && page.kind == PageKind::kPlain) {
    CacheCommittedPage(head, page);
  }
  return page;
}

Result<std::vector<Page>> FileServer::LoadPagesCommitted(std::span<const BlockNo> heads) {
  std::vector<Page> out(heads.size());
  std::vector<size_t> miss_index;
  std::vector<BlockNo> miss_heads;
  if (options_.cache_committed_pages) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (size_t i = 0; i < heads.size(); ++i) {
      auto it = committed_cache_.find(heads[i]);
      if (it != committed_cache_.end()) {
        cache_hits_->Inc();
        obs::Trace(obs::TraceEvent::kCacheHit, heads[i]);
        out[i] = it->second;
      } else {
        miss_index.push_back(i);
        miss_heads.push_back(heads[i]);
      }
    }
  } else {
    for (size_t i = 0; i < heads.size(); ++i) {
      miss_index.push_back(i);
      miss_heads.push_back(heads[i]);
    }
  }
  if (miss_heads.empty()) {
    return out;
  }
  if (options_.cache_committed_pages) {
    cache_misses_->Inc(miss_heads.size());
  }
  ASSIGN_OR_RETURN(std::vector<Page> fetched, pages_.ReadPages(miss_heads));
  for (size_t j = 0; j < miss_index.size(); ++j) {
    if (options_.cache_committed_pages && fetched[j].kind == PageKind::kPlain) {
      CacheCommittedPage(miss_heads[j], fetched[j]);
    }
    out[miss_index[j]] = std::move(fetched[j]);
  }
  return out;
}

void FileServer::CacheCommittedPage(BlockNo head, const Page& page) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (committed_cache_.size() >= options_.committed_cache_capacity && !cache_lru_.empty()) {
    committed_cache_.erase(cache_lru_.front());
    cache_lru_.erase(cache_lru_.begin());
    cache_evictions_->Inc();
    obs::Trace(obs::TraceEvent::kCacheEvict, head);
  }
  if (committed_cache_.emplace(head, page).second) {
    cache_lru_.push_back(head);
  }
}

void FileServer::UncachePage(BlockNo head) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  committed_cache_.erase(head);
  cache_lru_.erase(std::remove(cache_lru_.begin(), cache_lru_.end(), head), cache_lru_.end());
}

// ---------------------------------------------------------------------------
// Version chains
// ---------------------------------------------------------------------------

Result<BlockNo> FileServer::FindCurrentHead(uint64_t file_id) {
  BlockNo head = kNilRef;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    auto hint = current_cache_.find(file_id);
    if (hint != current_cache_.end()) {
      head = hint->second;
    } else {
      ASSIGN_OR_RETURN(FileEntry entry, LookupFileLocked(file_id));
      head = entry.oldest_head;
    }
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    BlockNo cur = head;
    BlockNo prev = kNilRef;
    bool broken = false;
    for (int step = 0; step < kMaxChainSteps; ++step) {
      auto page = LoadPageUncached(cur);
      if (!page.ok()) {
        broken = true;  // stale hint (GC pruned it); fall back to the table
        break;
      }
      if (page->prepare_txn != 0) {
        // An in-doubt cross-shard tip (docs/SHARDING.md): staged at the chain's end but
        // not committed. Its predecessor stays current until the coordinator decides.
        // Never cached — the decision may publish the tip at any moment.
        if (prev == kNilRef) {
          broken = true;  // stale hint landed on the staged page itself; retry from table
          break;
        }
        return prev;
      }
      if (page->commit_ref == kNilRef) {
        std::lock_guard<std::mutex> lock(table_mu_);
        current_cache_[file_id] = cur;
        return cur;
      }
      // §5.3 waiter recovery: a superseded version page whose top lock holder died between
      // setting the commit reference and finishing the sub-file commits — finish its work.
      if (page->top_lock != kNullPort && !network()->IsPortAlive(page->top_lock)) {
        RETURN_IF_ERROR(RecoverDeadTopLock(cur, *page));
      }
      prev = cur;
      cur = page->commit_ref;
    }
    if (!broken) {
      return InternalError("version chain too long");
    }
    std::lock_guard<std::mutex> lock(table_mu_);
    current_cache_.erase(file_id);
    ASSIGN_OR_RETURN(FileEntry entry, LookupFileLocked(file_id));
    head = entry.oldest_head;
  }
  return NotFoundError("version chain unreadable");
}

Result<std::vector<BlockNo>> FileServer::FileTableBlocks() {
  BlockNo head;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    head = table_head_;
  }
  return pages_.ChainBlocks(head);
}

Result<std::vector<BlockNo>> FileServer::CommittedChain(uint64_t file_id) {
  BlockNo head;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    ASSIGN_OR_RETURN(FileEntry entry, LookupFileLocked(file_id));
    head = entry.oldest_head;
  }
  std::vector<BlockNo> chain;
  BlockNo cur = head;
  for (int step = 0; step < kMaxChainSteps && cur != kNilRef; ++step) {
    ASSIGN_OR_RETURN(Page page, LoadPageUncached(cur));
    if (page.prepare_txn != 0) {
      break;  // in-doubt cross-shard tip: not committed until the coordinator decides
    }
    chain.push_back(cur);
    cur = page.commit_ref;
  }
  return chain;
}

// ---------------------------------------------------------------------------
// Block-level critical sections
// ---------------------------------------------------------------------------

Result<Port> FileServer::AcquireBlockLock(BlockNo bno) {
  Port owner = network()->AllocatePort(port());
  // Block locks guard microsecond-scale read-modify-writes of single version pages; a
  // short bounded spin rides out contention. A holder that died is stolen by the block
  // server itself (locks made of ports). Yield first — the holder is typically another
  // worker finishing a microsecond critical section — and back off to short sleeps only
  // for genuinely congested locks.
  for (int attempt = 0; attempt < 20000; ++attempt) {
    Status st = pages_.LockBlock(bno, owner);
    if (st.ok()) {
      return owner;
    }
    if (st.code() != ErrorCode::kLocked) {
      network()->ClosePort(owner);
      return st;
    }
    if (attempt < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  network()->ClosePort(owner);
  return LockedError("block lock congested");
}

void FileServer::ReleaseBlockLock(BlockNo bno, Port owner) {
  (void)pages_.UnlockBlock(bno, owner);
  network()->ClosePort(owner);
}

// ---------------------------------------------------------------------------
// Locks (§5.3)
// ---------------------------------------------------------------------------

Status FileServer::SetInnerLock(BlockNo sub_head, Port owner) {
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(sub_head));
  Status st = OkStatus();
  auto page = LoadPageUncached(sub_head);
  if (!page.ok()) {
    st = page.status();
  } else {
    if (page->top_lock != kNullPort && network()->IsPortAlive(page->top_lock)) {
      // "If an update, while descending the page tree, discovers a top lock, it must wait
      // until the lock is cleared before that subtree can be entered."
      st = LockedError("sub-file update in progress (top lock set)");
    } else if (page->inner_lock != kNullPort && page->inner_lock != owner &&
               network()->IsPortAlive(page->inner_lock)) {
      st = LockedError("sub-file inner-locked by another super-file update");
    } else {
      if (page->top_lock != kNullPort && !network()->IsPortAlive(page->top_lock)) {
        page->top_lock = kNullPort;  // dead holder, commit ref unset (page is current)
      }
      page->inner_lock = owner;
      st = pages_.OverwritePage(sub_head, *page);
    }
  }
  ReleaseBlockLock(sub_head, block_lock);
  return st;
}

Status FileServer::ClearInnerLock(BlockNo sub_head, Port owner) {
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(sub_head));
  Status st = OkStatus();
  auto page = LoadPageUncached(sub_head);
  if (!page.ok()) {
    st = page.status();
  } else if (page->inner_lock == owner) {
    page->inner_lock = kNullPort;
    st = pages_.OverwritePage(sub_head, *page);
  }
  ReleaseBlockLock(sub_head, block_lock);
  return st;
}

Status FileServer::ClearTopLock(BlockNo head, Port owner) {
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(head));
  Status st = OkStatus();
  auto page = LoadPageUncached(head);
  if (!page.ok()) {
    st = page.status();
  } else if (page->top_lock == owner) {
    page->top_lock = kNullPort;
    st = pages_.OverwritePage(head, *page);
  }
  ReleaseBlockLock(head, block_lock);
  return st;
}

Status FileServer::RecoverDeadTopLock(BlockNo locked_head, const Page& locked_page) {
  // "If the commit reference is set, the version it refers to is current. The version with
  // the lock and the current version are traversed simultaneously, and the commit
  // references of the sub-files are set, finishing the work of the crashed server."
  if (locked_page.commit_ref == kNilRef) {
    return ClearTopLock(locked_head, locked_page.top_lock);
  }
  ASSIGN_OR_RETURN(Page new_current, LoadPageUncached(locked_page.commit_ref));

  // Traverse the new current version's tree; every copied sub-file version page found must
  // be linked as the successor of the page it was based on.
  struct Frame {
    BlockNo bno;
    Page page;
  };
  std::deque<Frame> frontier;
  frontier.push_back({locked_page.commit_ref, std::move(new_current)});
  int guard = 0;
  while (!frontier.empty()) {
    if (++guard > kMaxChainSteps) {
      return InternalError("super-commit recovery tree too large");
    }
    Frame frame = std::move(frontier.front());
    frontier.pop_front();
    if (frame.page.IsVersionPage() && frame.page.base_ref != kNilRef &&
        frame.bno != locked_page.commit_ref) {
      // A copied sub-file version page: finish its commit.
      ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(frame.page.base_ref));
      auto base = LoadPageUncached(frame.page.base_ref);
      if (base.ok() && base->commit_ref == kNilRef) {
        base->commit_ref = frame.bno;
        base->inner_lock = kNullPort;
        (void)pages_.OverwritePage(frame.page.base_ref, *base);
      }
      ReleaseBlockLock(frame.page.base_ref, block_lock);
    }
    for (const PageRef& ref : frame.page.refs) {
      if (!ref.copied() || ref.block == kNilRef) {
        continue;  // shared parts were not part of the crashed update
      }
      auto child = LoadPageUncached(ref.block);
      if (child.ok()) {
        frontier.push_back({ref.block, std::move(*child)});
      }
    }
  }
  // Finally clear the dead top lock itself.
  return ClearTopLock(locked_head, locked_page.top_lock);
}

Status FileServer::AcquireUpdateLocks(uint64_t file_id, bool is_super, Port owner,
                                      bool respect_soft_lock, BlockNo* current_head) {
  // Under a commit storm the current version moves between lookup and lock; ride it out —
  // each retry starts from the freshly observed current.
  for (int attempt = 0; attempt < 256; ++attempt) {
    ASSIGN_OR_RETURN(BlockNo cur, FindCurrentHead(file_id));
    ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(cur));
    auto page = LoadPageUncached(cur);
    Status st = page.ok() ? OkStatus() : page.status();
    bool retry = false;
    if (st.ok()) {
      if (page->commit_ref != kNilRef) {
        retry = true;  // superseded between lookup and lock
      } else {
        const bool top_alive =
            page->top_lock != kNullPort && network()->IsPortAlive(page->top_lock);
        const bool inner_alive =
            page->inner_lock != kNullPort && network()->IsPortAlive(page->inner_lock);
        if (inner_alive) {
          // Both small files and super-files must wait on a live inner lock.
          st = LockedError("file inner-locked by a super-file update");
        } else if (is_super && top_alive && !options_.relaxed_superfile_locking) {
          st = LockedError("super-file already being updated (top lock set)");
        } else if (!is_super && respect_soft_lock && top_alive && page->top_lock != owner) {
          // §5.3 soft locking: the top lock on a small file is a hint that the file "is
          // likely to change soon"; a cooperating large update defers.
          st = LockedError("small file soft-locked by another update");
        } else {
          if (page->inner_lock != kNullPort && !inner_alive) {
            page->inner_lock = kNullPort;  // dead holder cleanup
          }
          page->top_lock = owner;
          st = pages_.OverwritePage(cur, *page);
        }
      }
    }
    ReleaseBlockLock(cur, block_lock);
    if (retry) {
      continue;
    }
    if (st.ok()) {
      *current_head = cur;
    }
    return st;
  }
  return ConflictError("could not pin the current version (commit storm)");
}

// ---------------------------------------------------------------------------
// Tree walking with copy-on-write (§5.1)
// ---------------------------------------------------------------------------

Result<BlockNo> FileServer::CopyChild(VersionInfo* info, WalkStep* parent, uint32_t index) {
  ASSIGN_OR_RETURN(PageRef ref, parent->page.RefAt(index));
  // The shared child may itself be a sub-file version page; resolve it to the sub-file's
  // *current* version first (small-file updates may have advanced it since our base
  // committed), then inner-lock it for the duration of this super-file update.
  ASSIGN_OR_RETURN(Page shared, LoadPage(ref.block));
  BlockNo shared_bno = ref.block;
  if (shared.IsVersionPage()) {
    int guard = 0;
    while (shared.commit_ref != kNilRef) {
      if (++guard > kMaxChainSteps) {
        return InternalError("sub-file version chain too long");
      }
      shared_bno = shared.commit_ref;
      ASSIGN_OR_RETURN(shared, LoadPageUncached(shared_bno));
    }
    RETURN_IF_ERROR(SetInnerLock(shared_bno, info->owner));
    info->locked_subfiles.push_back(shared_bno);
    info->is_super_update = true;
    // Sub-file flags live in the sub-file's own version pages; the flat path signature
    // cannot represent them, so this update's signature stops being usable.
    info->sig.valid = false;
    // Re-read under the lock to pick up a racing commit.
    ASSIGN_OR_RETURN(shared, LoadPageUncached(shared_bno));
  }

  // "When a page is first read, the C, R, W, S and M flags it contains for its child pages
  // must be initialised to zero."
  Page copy = shared;
  for (PageRef& child_ref : copy.refs) {
    child_ref.flags = 0;
  }
  copy.base_ref = shared_bno;
  if (copy.IsVersionPage()) {
    copy.commit_ref = kNilRef;
    copy.top_lock = kNullPort;
    copy.inner_lock = kNullPort;
    copy.prepare_txn = 0;
    copy.parent_ref = info->head;
    copy.root_flags = RefFlag::kCopied;
  }
  ASSIGN_OR_RETURN(BlockNo new_bno, pages_.WritePage(copy));
  if (copy.IsVersionPage()) {
    // The version capability embeds the head block; sign it now that the block is known.
    copy.version_cap = SignVersionCap(new_bno);
    RETURN_IF_ERROR(pages_.OverwritePage(new_bno, copy));
    info->copied_subfiles.emplace_back(shared_bno, new_bno);
  }
  info->allocated_blocks.push_back(new_bno);

  ref.block = new_bno;
  ref.flags = NormalizeFlags(ref.flags | RefFlag::kCopied);
  RETURN_IF_ERROR(parent->page.SetRef(index, ref));
  return new_bno;
}

Result<std::vector<FileServer::WalkStep>> FileServer::WalkPath(VersionInfo* info, BlockNo head,
                                                               const PagePath& path,
                                                               uint8_t final_access,
                                                               bool materialize_target) {
  std::vector<WalkStep> steps;
  {
    WalkStep root;
    root.bno = head;
    ASSIGN_OR_RETURN(root.page, LoadPageUncached(head));
    steps.push_back(std::move(root));
  }

  const bool mutating = info != nullptr;
  if (mutating) {
    Page& root = steps[0].page;
    const uint8_t before = root.root_flags;
    if (path.IsRoot()) {
      root.root_flags = NormalizeFlags(root.root_flags | final_access);
    } else {
      root.root_flags = NormalizeFlags(root.root_flags | RefFlag::kSearched);
    }
    steps[0].dirty = root.root_flags != before;
  }

  for (size_t depth = 0; depth < path.depth(); ++depth) {
    const uint32_t index = path.at(depth);
    WalkStep& parent = steps.back();
    const bool last = depth + 1 == path.depth();
    if (index >= parent.page.refs.size()) {
      return NotFoundError("path index beyond reference table");
    }
    PageRef ref = parent.page.refs[index];

    if (ref.block == kNilRef) {
      // A hole. Writes materialize a fresh page in it; reads fail.
      if (!mutating || !last || !materialize_target) {
        return NotFoundError("path crosses a hole");
      }
      Page fresh;
      fresh.kind = PageKind::kPlain;
      ASSIGN_OR_RETURN(BlockNo bno, pages_.WritePage(fresh));
      info->allocated_blocks.push_back(bno);
      ref.block = bno;
      ref.flags = RefFlag::kCopied;
      parent.page.refs[index] = ref;
      parent.dirty = true;
    } else if (mutating && !ref.copied()) {
      ASSIGN_OR_RETURN(BlockNo new_bno, CopyChild(info, &parent, index));
      ref = parent.page.refs[index];
      parent.dirty = true;
      (void)new_bno;
    }

    if (mutating) {
      uint8_t access = last ? final_access : RefFlag::kSearched;
      PageRef updated = parent.page.refs[index];
      updated.flags = NormalizeFlags(updated.flags | access | RefFlag::kCopied);
      if (!(updated == parent.page.refs[index])) {
        parent.page.refs[index] = updated;
        parent.dirty = true;
      }
      ref = updated;
    }

    WalkStep child;
    child.bno = ref.block;
    if (mutating) {
      // Copied children are private to this version; never serve them from the cache.
      ASSIGN_OR_RETURN(child.page, LoadPageUncached(ref.block));
    } else {
      ASSIGN_OR_RETURN(child.page, LoadPage(ref.block));
    }
    steps.push_back(std::move(child));
  }

  if (mutating) {
    RETURN_IF_ERROR(PersistSteps(&steps));
    RecordWalkSig(info, path, final_access);
  }
  return steps;
}

void FileServer::RecordWalkSig(VersionInfo* info, const PagePath& path, uint8_t final_access) {
  AccessSig& sig = info->sig;
  if (!sig.valid) {
    return;
  }
  // Mirror the flag ORs the walk just persisted, keyed by path prefix. The root reference
  // carries the file's root_flags; deeper prefixes carry the parent-table entry flags.
  const auto record = [&sig](std::string key, uint8_t flags) {
    uint8_t& slot = sig.refs[std::move(key)];
    slot = NormalizeFlags(slot | flags);
    if (slot & RefFlag::kModified) {
      sig.has_modified = true;
    }
  };
  record(std::string(), path.IsRoot() ? final_access : RefFlag::kSearched);
  for (size_t depth = 0; depth < path.depth(); ++depth) {
    const bool last = depth + 1 == path.depth();
    record(SigKey(path, depth + 1),
           static_cast<uint8_t>((last ? final_access : RefFlag::kSearched) | RefFlag::kCopied));
  }
  if (sig.refs.size() > kMaxSigEntries) {
    sig.valid = false;
    sig.refs.clear();
  }
}

Status FileServer::PersistSteps(std::vector<WalkStep>* steps) {
  // All dirty pages are private copies, so in-place overwrite is safe; uncommitted trees
  // need no crash-ordering ("uncommitted versions need not be salvaged in a server crash").
  for (size_t i = steps->size(); i-- > 0;) {
    WalkStep& step = (*steps)[i];
    if (step.dirty) {
      RETURN_IF_ERROR(pages_.OverwritePage(step.bno, step.page));
      step.dirty = false;
    }
  }
  return OkStatus();
}

}  // namespace afs
