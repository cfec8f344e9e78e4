// FileServer participant side of the cross-shard optimistic two-phase commit
// (docs/SHARDING.md). Prepare runs the §5.2 Kung–Robinson validation and stages the
// version at the end of its file's chain with an on-disk in-doubt marker; Decide applies
// the coordinator's verdict. The marker is persisted BEFORE the base's commit reference
// flips, so a crash anywhere in between leaves a chain whose tip is visibly in doubt —
// never a half-committed transaction.

#include <mutex>
#include <utility>

#include "src/core/file_server.h"
#include "src/obs/span.h"

namespace afs {

Result<BlockNo> FileServer::Prepare(const Capability& version, uint64_t txn_id) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  if (txn_id == 0) {
    return InvalidArgumentError("prepare needs a non-zero transaction id");
  }
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  obs::ScopedSpan span("shard.prepare", obs::SpanKind::kPhase, head, txn_id);
  {
    // Idempotence: a retransmitted prepare of the same transaction re-answers with the
    // staged head; re-using a txn_id for a different version is a protocol error.
    std::lock_guard<std::mutex> lock(versions_mu_);
    auto it = prepared_.find(txn_id);
    if (it != prepared_.end()) {
      if (it->second.head != head) {
        return InvalidArgumentError("transaction id already prepared another version");
      }
      return head;
    }
  }
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return AbortedError("version is not managed by this server (already finished?)");
  }
  VersionInfo* info = op.info;
  if (info->is_super_update) {
    // Super-file commit completion (§5.3) cannot be held in doubt: its sub-file flips
    // are not covered by the single in-doubt marker.
    return InvalidArgumentError("super-file updates cannot join a cross-shard commit");
  }
  // The §5.2 loop as a segment of one, staging instead of committing: the in-doubt marker
  // is persisted with the root before the flip that makes the root reachable, so readers
  // can never see the staged version without the marker.
  PendingCommit req;
  req.info = info;
  ASSIGN_OR_RETURN(req.root, LoadPageUncached(head));
  CommitSegment({&req}, txn_id);
  if (!req.result.ok()) {
    if (req.result.status().code() == ErrorCode::kConflict) {
      shard_prepare_conflicts_->Inc();
    }
    span.set_status(static_cast<uint8_t>(req.result.status().code()));
    return req.result.status();
  }

  shard_prepares_->Inc();
  std::lock_guard<std::mutex> lock(versions_mu_);
  PreparedRec rec;
  rec.file_id = info->file_id;
  rec.head = head;
  rec.base_head = req.root.base_ref;
  rec.allocated_blocks = std::move(info->allocated_blocks);
  rec.know_allocations = true;
  rec.sig = std::move(info->sig);
  prepared_.emplace(txn_id, std::move(rec));
  uncommitted_.erase(head);  // destroys *info; ordinary ops now fail "not managed"
  return head;
}

Status FileServer::Decide(uint64_t txn_id, bool commit) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  obs::ScopedSpan span("shard.decide", obs::SpanKind::kPhase, txn_id, commit ? 1 : 0);
  PreparedRec rec;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    auto it = prepared_.find(txn_id);
    if (it == prepared_.end()) {
      return OkStatus();  // already decided (retransmission), or never prepared here
    }
    rec = std::move(it->second);
    prepared_.erase(it);
  }

  if (commit) {
    // Clear the on-disk marker; the staged version becomes a normal chain element and
    // FindCurrentHead publishes it.
    ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(rec.head));
    auto page = LoadPageUncached(rec.head);
    Status st = page.ok() ? OkStatus() : page.status();
    if (st.ok() && page->prepare_txn != 0) {
      page->prepare_txn = 0;
      st = pages_.OverwritePage(rec.head, *page);
    }
    ReleaseBlockLock(rec.head, block_lock);
    RETURN_IF_ERROR(st);
    {
      std::lock_guard<std::mutex> lock(table_mu_);
      current_cache_[rec.file_id] = rec.head;
    }
    if (page.ok()) {
      VersionIndex::CommittedRec vrec;
      vrec.head = rec.head;
      if (rec.sig.valid) {
        vrec.sig = std::make_shared<const AccessSig>(rec.sig);
      }
      // Cross-shard commits never reshare, so the root snapshot stays trustworthy.
      vrec.root = std::make_shared<const Page>(*page);
      index_.OnCommit(rec.file_id, rec.base_head, std::move(vrec));
    }
    shard_decide_commits_->Inc();
    return OkStatus();
  }

  // Abort: unlink the staged version from its chain. The base's commit reference still
  // names rec.head — no §5.2 commit can chain behind an in-doubt tip — so resetting it to
  // nil under the block lock restores the base as current. When several servers of one
  // group rediscovered the same tip after a restart, only the one that actually unlinks
  // it frees the staged pages; the others find the reference already reset and stand down.
  bool unlinked = false;
  {
    ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(rec.base_head));
    auto base = LoadPageUncached(rec.base_head);
    Status st = base.ok() ? OkStatus() : base.status();
    if (st.ok() && base->commit_ref == rec.head) {
      base->commit_ref = kNilRef;
      st = pages_.OverwritePage(rec.base_head, *base);
      unlinked = st.ok();
    }
    ReleaseBlockLock(rec.base_head, block_lock);
    RETURN_IF_ERROR(st);
  }
  if (rec.know_allocations) {
    for (BlockNo bno : rec.allocated_blocks) {
      (void)pages_.FreePage(bno);
    }
  } else if (unlinked) {
    // Recovered after a restart: the allocation list died with the process. The staged
    // tree is unreachable now, so freeing its private (copied) pages by walk is safe.
    (void)FreePrivatePages(rec.head);
  }
  shard_decide_aborts_->Inc();
  return OkStatus();
}

std::vector<FileServer::InDoubtEntry> FileServer::ListInDoubt() const {
  std::lock_guard<std::mutex> lock(versions_mu_);
  std::vector<InDoubtEntry> out;
  out.reserve(prepared_.size());
  for (const auto& [txn, rec] : prepared_) {
    out.push_back(InDoubtEntry{rec.head, txn});
  }
  return out;
}

void FileServer::RecoverPreparedTips() {
  // A prepared version whose decision never arrived survives a crash as an on-disk chain
  // tip with prepare_txn set. Re-discover those so ListInDoubt/GC protection work and a
  // recovering coordinator can resolve them.
  for (const FileEntry& entry : SnapshotFileTable()) {
    auto chain = CommittedChain(entry.file_id);  // stops short of an in-doubt tip
    if (!chain.ok() || chain->empty()) {
      continue;
    }
    auto last = LoadPageUncached(chain->back());
    if (!last.ok() || last->commit_ref == kNilRef) {
      continue;
    }
    auto tip = LoadPageUncached(last->commit_ref);
    if (!tip.ok() || tip->prepare_txn == 0) {
      continue;
    }
    PreparedRec rec;
    rec.file_id = entry.file_id;
    rec.head = last->commit_ref;
    rec.base_head = chain->back();
    rec.know_allocations = false;
    rec.sig.valid = false;  // the in-memory signature died with the old process
    std::lock_guard<std::mutex> lock(versions_mu_);
    prepared_.emplace(tip->prepare_txn, std::move(rec));
  }
}

}  // namespace afs
