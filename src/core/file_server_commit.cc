// FileServer commit path (§5.2), super-file commit completion (§5.3), abort, the §5.1
// reshare rule, cache validation (§5.4), and the RPC surface.

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "src/base/wire.h"
#include "src/core/file_server.h"
#include "src/core/protocol.h"
#include "src/core/serialise.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"

namespace afs {

// ---------------------------------------------------------------------------
// Commit (§5.2)
// ---------------------------------------------------------------------------

Result<bool> FileServer::TestAndSetCommitRef(BlockNo base_head, BlockNo new_head,
                                             BlockNo* successor) {
  // "This is the only critical section in version commit: test and set the commit
  // reference." Realised exactly as §4 prescribes: lock the version page's block, read it,
  // examine and modify it, write and unlock.
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(base_head));
  bool won = false;
  Status st = OkStatus();
  auto base = LoadPageUncached(base_head);
  if (!base.ok()) {
    st = base.status();
  } else if (base->commit_ref == kNilRef) {
    base->commit_ref = new_head;
    st = pages_.OverwritePage(base_head, *base);
    won = st.ok();
  } else {
    *successor = base->commit_ref;
  }
  ReleaseBlockLock(base_head, block_lock);
  RETURN_IF_ERROR(st);
  return won;
}

Result<BlockNo> FileServer::Commit(const Capability& version) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  const auto commit_start = std::chrono::steady_clock::now();
  const uint64_t rpcs_before = Transport::ThreadCalls();
  // The whole-commit span: phase spans below it (commit.begin / commit.flip /
  // commit.validate / commit.merge / commit.finish / commit.wait) tile its duration, so the
  // critical-path analyzer can attribute commit.latency_ns to phases. Lives exactly as long
  // as the CommitScope latency measurement.
  obs::ScopedSpan commit_span("commit", obs::SpanKind::kPhase, head, 0);
  // Record outcome + latency + RPC cost on every exit path (including early error returns
  // past this point). Relaxed atomics only — the commit hot path takes no statistics mutex.
  // commit.rpcs counts transport calls issued by THIS thread; work a group leader performs
  // on a parked follower's behalf lands in the leader's own sample.
  struct CommitScope {
    FileServer* fs;
    std::chrono::steady_clock::time_point start;
    uint64_t rpcs_before;
    obs::Counter* outcome = nullptr;
    ~CommitScope() {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
      fs->commit_latency_ns_->Record(static_cast<uint64_t>(ns));
      fs->slo_commit_->Record(static_cast<uint64_t>(ns));
      fs->commit_rpcs_->Record(Transport::ThreadCalls() - rpcs_before);
      if (outcome != nullptr) {
        outcome->Inc();
      }
    }
  } scope{this, commit_start, rpcs_before};
  obs::Trace(obs::TraceEvent::kCommitBegin, head);

  // commit.begin: admission (version-op guard) plus the root page read.
  obs::ScopedSpan begin_span("commit.begin", obs::SpanKind::kPhase, head, 0);
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return AbortedError("version is not managed by this server (already finished?)");
  }
  ASSIGN_OR_RETURN(Page root, LoadPageUncached(head));
  begin_span.End();

  Result<BlockNo> result = CommitGrouped(op.info, std::move(root), &scope.outcome);
  if (!result.ok()) {
    commit_span.set_status(static_cast<uint8_t>(result.status().code()));
  }
  return result;
}

Status FileServer::ValidateToChainEnd(PendingCommit* req, bool use_index) {
  const uint64_t file_id = req->info->file_id;
  const BlockNo from = req->root.base_ref;
  std::vector<VersionIndex::CommittedRec> recs;
  if (use_index && index_.SuccessorsAfter(file_id, from, &recs)) {
    index_hits_->Inc();
  } else {
    index_misses_->Inc();
    // Walk the commit references. The page just read doubles as the successor's root for
    // the serialiser, so each hop costs one read.
    BlockNo cur = from;
    for (int step = 0; step < 4096; ++step) {
      ASSIGN_OR_RETURN(Page page, LoadPageUncached(cur));
      if (page.prepare_txn != 0) {
        // In-doubt cross-shard tip: not committed, so nothing may validate against it or
        // chain behind it. Conflict-abort; the client redoes the update after the decision.
        return ConflictError("file has an in-doubt cross-shard commit in progress");
      }
      if (cur != from) {
        recs.push_back(
            VersionIndex::CommittedRec{cur, nullptr, std::make_shared<const Page>(page)});
      }
      if (page.commit_ref == kNilRef) {
        break;
      }
      cur = page.commit_ref;
    }
  }
  for (const VersionIndex::CommittedRec& rec : recs) {
    RETURN_IF_ERROR(ValidateAgainstSuccessor(req, rec.head, rec.sig.get(), rec.root.get()));
    req->root.base_ref = rec.head;
  }
  return OkStatus();
}

Status FileServer::ValidateAgainstSuccessor(PendingCommit* req, BlockNo c_head,
                                            const AccessSig* c_sig, const Page* c_root) {
  serialise_tests_ctr_->Inc();
  obs::Trace(obs::TraceEvent::kCommitSerialise, req->info->head, c_head);
  if (c_sig != nullptr) {
    switch (TestSigs(req->info->sig, *c_sig)) {
      case SigVerdict::kConflict:
        return ConflictError("update not serialisable with committed version");
      case SigVerdict::kNoopMerge:
        // Serialisable, and the merge adopts nothing: V.b's tree is already the merged
        // tree. The successor hop costs zero page I/O.
        commit_sig_fast_->Inc();
        return OkStatus();
      case SigVerdict::kUnknown:
        break;
    }
  }
  Serialiser serialiser(
      &pages_, [this](BlockNo bno) { return LoadPage(bno); },
      [this](std::span<const BlockNo> bnos) { return LoadPagesCommitted(bnos); });
  auto mergeable = serialiser.TestAndMerge(req->info->head, &req->root, c_head, c_root);
  if (!mergeable.ok()) {
    return mergeable.status();
  }
  if (!*mergeable) {
    return ConflictError("update not serialisable with committed version");
  }
  commit_merged_->Inc();
  obs::Trace(obs::TraceEvent::kCommitMerge, req->info->head, c_head);
  req->fast_path = false;  // merged trees contain grafted content; never reshared
  return OkStatus();
}

void FileServer::CommitSegment(const std::vector<PendingCommit*>& segment,
                               uint64_t prepare_txn) {
  // No wrapping span here: the serialiser's commit.validate / commit.merge spans must stay
  // DIRECT children of the leader's commit span (the critical-path analyzer sums direct
  // children only).
  const uint64_t file_id = segment.front()->info->file_id;
  std::vector<PendingCommit*> live = segment;
  // The index lags any commit it never saw; once a round shows that, validate from disk.
  bool use_index = true;
  for (int attempt = 1; !live.empty(); ++attempt) {
    if (attempt > 256) {
      for (PendingCommit* req : live) {
        req->validation = ConflictError("commit starved by concurrent committers");
      }
      break;
    }
    // Validate every member against the committed successors of its base, up to the
    // chain end. Each member's base reference advances to the last successor it covered.
    std::vector<PendingCommit*> validated;
    for (PendingCommit* req : live) {
      req->validation = ValidateToChainEnd(req, use_index);
      if (req->validation.ok()) {
        validated.push_back(req);
      }
    }
    if (validated.empty()) {
      break;
    }
    // The segment is based on one tip, so every member must have covered the chain up to
    // the same head. A disagreement means the chain grew mid-round or the index lags a
    // commit it never saw: validate the stragglers again.
    const BlockNo tip = validated.front()->root.base_ref;
    if (std::any_of(validated.begin(), validated.end(),
                    [tip](PendingCommit* req) { return req->root.base_ref != tip; })) {
      use_index = false;
      live = std::move(validated);
      continue;
    }

    // Test each member against the mates accepted before it — they will be serialised
    // between its base and its commit. Signatures decide in memory; kConflict is exact
    // (abort), kUnknown sets the member aside to run as its own segment once this one is
    // published (a mate-merge here would graft references to still-uncommitted pages).
    live.clear();
    for (PendingCommit* req : validated) {
      SigVerdict verdict = SigVerdict::kNoopMerge;
      for (PendingCommit* mate : live) {
        serialise_tests_ctr_->Inc();
        verdict = TestSigs(req->info->sig, mate->info->sig);
        if (verdict != SigVerdict::kNoopMerge) {
          break;
        }
        commit_sig_fast_->Inc();
      }
      if (verdict == SigVerdict::kConflict) {
        req->validation = ConflictError("update not serialisable with committed version");
      } else if (verdict == SigVerdict::kUnknown) {
        req->deferred = true;
      } else {
        if (!live.empty()) {
          req->fast_path = false;  // group predecessors exist; skip reshare conservatively
        }
        live.push_back(req);
      }
    }

    // Link the members into one chain segment m1 -> ... -> mn (base references forward,
    // commit references backward), persist every root in one vectored write, then publish
    // the WHOLE segment with a single test-and-set on the tip. Before the flip the segment
    // is unreachable from the chain, so a failure here only leaves garbage for the GC.
    std::vector<PageStore::PendingOverwrite> writes;
    writes.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      Page& root = live[i]->root;
      root.base_ref = i == 0 ? tip : live[i - 1]->info->head;
      root.commit_ref = i + 1 < live.size() ? live[i + 1]->info->head : kNilRef;
      root.prepare_txn = prepare_txn;
      PageStore::PendingOverwrite po;
      po.head = live[i]->info->head;
      po.page = root;
      writes.push_back(std::move(po));
    }
    Status persisted = pages_.OverwritePages(std::move(writes));
    if (!persisted.ok()) {
      for (PendingCommit* req : live) {
        req->validation = persisted;
      }
      break;
    }
    obs::ScopedSpan flip_span("commit.flip", obs::SpanKind::kPhase, tip, live.size());
    BlockNo foreign = kNilRef;
    Result<bool> won = TestAndSetCommitRef(tip, live.front()->info->head, &foreign);
    flip_span.End();
    if (!won.ok()) {
      // Over a lossy transport the commit-reference write may have been APPLIED even though
      // the call reported failure, so the segment could already be published. Do NOT abort
      // — that would free blocks a committed chain might reference. Return the error to
      // each member and leave cleanup to explicit abort/GC.
      index_.ForgetFile(file_id);
      for (PendingCommit* req : live) {
        req->result = won.status();
      }
      break;
    }
    if (*won) {
      obs::ScopedSpan finish_span("commit.finish", obs::SpanKind::kPhase, file_id, live.size());
      for (PendingCommit* req : live) {
        req->result = req->info->head;
        if (prepare_txn == 0) {
          FinishCommit(req);
        }
      }
      break;
    }
    // Lost to a committer the index never saw (another server, or an in-doubt prepare):
    // un-link and validate the members against the new successors. The suffix stays; the
    // next commit of the file restarts it (VersionIndex::OnCommit).
    group_fallbacks_->Inc();
    use_index = false;
    for (PendingCommit* req : live) {
      req->root.base_ref = tip;
      req->root.commit_ref = kNilRef;
    }
  }

  // The one conflict exit: "When serialise returns FALSE, the concurrent updates are not
  // serialisable, and V.b is removed, and its owner notified."
  for (PendingCommit* req : segment) {
    if (req->validation.ok()) {
      continue;
    }
    req->outcome = req->validation.code() == ErrorCode::kConflict ? commit_conflicts_ : nullptr;
    obs::Trace(obs::TraceEvent::kCommitConflict, req->info->head, 0);
    obs::ScopedSpan abort_span("commit.abort", obs::SpanKind::kPhase, req->info->head, 0);
    (void)AbortLocked(req->info);
    req->result = req->validation;
  }
}

void FileServer::FinishCommit(PendingCommit* req) {
  VersionInfo* info = req->info;
  const BlockNo head = info->head;
  // Current-version bookkeeping, §5.3 sub-file commit completion, and the §5.1 reshare
  // pass.
  const bool reshare = options_.reshare_on_commit && req->fast_path;
  IndexCommitted(info, req->root.base_ref, req->root, reshare);
  if (info->is_super_update) {
    Status st = FinishSuperCommit(info);
    if (!st.ok()) {
      req->result = st;
      return;
    }
  }
  if (reshare) {
    (void)ReshareCleanPages(head);  // best effort; failures leave extra garbage for the GC
  }
  req->outcome = req->fast_path ? commit_fast_path_ : commit_validated_;
  if (req->fast_path) {
    obs::Trace(obs::TraceEvent::kCommitFastPath, head);
  }
  std::lock_guard<std::mutex> lock(versions_mu_);
  uncommitted_.erase(head);  // destroys req->info; nothing touches it past here
}

void FileServer::IndexCommitted(VersionInfo* info, BlockNo base, const Page& root,
                                bool reshared) {
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    current_cache_[info->file_id] = info->head;
  }
  VersionIndex::CommittedRec rec;
  rec.head = info->head;
  if (info->sig.valid) {
    // The signature stays sound even when the commit merged or reshares: it records this
    // update's OWN flags, which is exactly what the on-disk tree keeps (grafts enter
    // flags-cleared; reshare only drops flags, making signature tests conservative).
    rec.sig = std::make_shared<const AccessSig>(info->sig);
  }
  if (!reshared) {
    // Reshared commits get no root snapshot: the §5.1 pass rewrites the reference table
    // right after commit and the superseded copies become garbage, so a stale snapshot
    // could point at freed blocks.
    rec.root = std::make_shared<const Page>(root);
  }
  index_.OnCommit(info->file_id, base, std::move(rec));
}

Result<BlockNo> FileServer::CommitGrouped(VersionInfo* info, Page root,
                                          obs::Counter** outcome_ctr) {
  PendingCommit req;
  req.info = info;
  req.root = std::move(root);
  std::unique_lock<std::mutex> lock(commit_mu_);
  commit_queue_.push_back(&req);
  for (;;) {
    if (!req.done && commit_leader_active_) {
      // Follower: park until the leader posts our result — or hands leadership over, in
      // which case a not-yet-done waiter becomes the next leader.
      obs::ScopedSpan wait_span("commit.wait", obs::SpanKind::kPhase, info->head, 0);
      commit_cv_.wait(lock, [&] { return req.done || !commit_leader_active_; });
    }
    if (req.done) {
      break;
    }
    // Leader: drain everything staged so far (including our own request) as one batch.
    commit_leader_active_ = true;
    std::vector<PendingCommit*> batch;
    batch.swap(commit_queue_);
    lock.unlock();
    ProcessCommitBatch(batch);
    lock.lock();
    for (PendingCommit* staged : batch) {
      staged->done = true;
    }
    commit_leader_active_ = false;
    commit_cv_.notify_all();
  }
  lock.unlock();
  *outcome_ctr = req.outcome;
  return req.result;
}

void FileServer::ProcessCommitBatch(const std::vector<PendingCommit*>& batch) {
  // Group by file, preserving arrival order within each file.
  std::vector<std::pair<uint64_t, std::vector<PendingCommit*>>> groups;
  for (PendingCommit* req : batch) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == req->info->file_id; });
    if (it == groups.end()) {
      groups.emplace_back(req->info->file_id, std::vector<PendingCommit*>{req});
    } else {
      it->second.push_back(req);
    }
  }
  for (auto& [file_id, group] : groups) {
    commit_group_size_->Record(group.size());
    // Super-file updates always commit as a segment of one: their §5.3 sub-file commit
    // completion is a post-flip step of their own.
    std::vector<PendingCommit*> segment;
    for (PendingCommit* req : group) {
      req->deferred = req->info->is_super_update;
      if (!req->deferred) {
        segment.push_back(req);
      }
    }
    if (!segment.empty()) {
      CommitSegment(segment, /*prepare_txn=*/0);
    }
    for (PendingCommit* req : group) {
      if (req->deferred) {
        CommitSegment({req}, /*prepare_txn=*/0);
      }
    }
  }
}

Status FileServer::FinishSuperCommit(VersionInfo* info) {
  // "After commit on a super-file, the page tree must be descended to commit the sub-files
  // of the super-file, and clear the locks. These commits always succeed, because the
  // locks prevent access by other clients during the update to the super-file."
  std::unordered_set<BlockNo> superseded;
  for (const auto& [old_head, new_head] : info->copied_subfiles) {
    ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(old_head));
    auto base = LoadPageUncached(old_head);
    Status st = base.ok() ? OkStatus() : base.status();
    if (st.ok() && base->commit_ref == kNilRef) {
      base->commit_ref = new_head;
      base->inner_lock = kNullPort;
      st = pages_.OverwritePage(old_head, *base);
    }
    ReleaseBlockLock(old_head, block_lock);
    RETURN_IF_ERROR(st);
    superseded.insert(old_head);
    // Keep the current-version hint warm for the sub-file.
    auto new_page = LoadPageUncached(new_head);
    if (new_page.ok()) {
      {
        std::lock_guard<std::mutex> lock(table_mu_);
        current_cache_[new_page->file_cap.object] = new_head;
      }
      // Index the sub-file commit too, so later commits of the sub-file find their
      // successors in memory. No signature (the super update's signature covers the super
      // tree, not this sub-file); the root snapshot is safe because sub-file version pages
      // are never reshared.
      VersionIndex::CommittedRec rec;
      rec.head = new_head;
      rec.root = std::make_shared<const Page>(*new_page);
      index_.OnCommit(new_page->file_cap.object, old_head, std::move(rec));
    }
  }
  for (BlockNo sub_head : info->locked_subfiles) {
    if (superseded.count(sub_head) == 0) {
      (void)ClearInnerLock(sub_head, info->owner);
    }
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Abort
// ---------------------------------------------------------------------------

Status FileServer::AbortLocked(VersionInfo* info) {
  // Release §5.3 locks first.
  for (BlockNo sub_head : info->locked_subfiles) {
    (void)ClearInnerLock(sub_head, info->owner);
  }
  (void)ClearTopLock(info->base_head, info->owner);

  // Unregister files created inside this aborted update.
  if (!info->created_subfiles.empty()) {
    auto block_lock = AcquireBlockLock(table_head_);
    if (block_lock.ok()) {
      {
        std::lock_guard<std::mutex> lock(table_mu_);
        if (LoadFileTable().ok()) {
          for (uint64_t sub_id : info->created_subfiles) {
            files_.erase(sub_id);
            current_cache_.erase(sub_id);
          }
          (void)PersistFileTableLocked();
        }
      }
      ReleaseBlockLock(table_head_, *block_lock);
    }
  }

  // Free exactly the chains this version allocated; merged trees may reference committed
  // pages of other versions, which must survive.
  for (BlockNo bno : info->allocated_blocks) {
    (void)pages_.FreePage(bno);
  }

  BlockNo head = info->head;
  std::lock_guard<std::mutex> lock(versions_mu_);
  uncommitted_.erase(head);
  return OkStatus();
}

Status FileServer::Abort(const Capability& version) {
  std::shared_lock<std::shared_mutex> ops_gate(ops_gate_);
  BlockNo head;
  RETURN_IF_ERROR(VerifyVersionCap(version, Rights::kWrite, &head));
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return OkStatus();  // already gone; abort is idempotent
  }
  return AbortLocked(op.info);
}

// ---------------------------------------------------------------------------
// Reshare (§5.1's GC rule, applied at commit)
// ---------------------------------------------------------------------------

Result<bool> FileServer::ReshareSubtree(Page* page, bool* subtree_clean) {
  // Post-order: try to reshare each copied child, then report whether this page's whole
  // subtree is free of writes and modifications.
  bool changed = false;
  bool clean = true;
  for (PageRef& ref : page->refs) {
    if (!ref.copied() || ref.block == kNilRef) {
      continue;
    }
    auto child = LoadPageUncached(ref.block);
    if (!child.ok()) {
      clean = false;
      continue;
    }
    if (child->IsVersionPage()) {
      clean = false;  // sub-file version pages are never reshared
      continue;
    }
    bool child_clean = true;
    ASSIGN_OR_RETURN(bool child_changed, ReshareSubtree(&*child, &child_clean));
    if (child_changed) {
      UncachePage(ref.block);
      RETURN_IF_ERROR(pages_.OverwritePage(ref.block, *child));
      changed = true;
    }
    if (child_clean && !ref.written() && !ref.modified() && child->base_ref != kNilRef) {
      // "The garbage collector may remove pages that were copied but not written or
      // modified and reshare the corresponding page from the version on which it was
      // based." The copy is left for the background GC to sweep (it is unreachable once
      // the reference is redirected); freeing it here could pull blocks out from under a
      // concurrent serialisability test.
      ref.block = child->base_ref;
      ref.flags = 0;
      changed = true;
    } else if (!child_clean || ref.written() || ref.modified()) {
      clean = false;
    }
  }
  *subtree_clean = clean;
  return changed;
}

Status FileServer::ReshareCleanPages(BlockNo head) {
  ASSIGN_OR_RETURN(Page root, LoadPageUncached(head));
  bool clean = true;
  ASSIGN_OR_RETURN(bool changed, ReshareSubtree(&root, &clean));
  if (!changed) {
    return OkStatus();
  }
  // The version page is shared mutable state: a successor may set our commit reference at
  // any moment. Re-read under the block lock and only replace the reference table, keeping
  // the freshly observed header (commit reference, locks).
  ASSIGN_OR_RETURN(Port block_lock, AcquireBlockLock(head));
  Status st;
  auto fresh = LoadPageUncached(head);
  if (fresh.ok()) {
    fresh->refs = root.refs;
    st = pages_.OverwritePage(head, *fresh);
  } else {
    st = fresh.status();
  }
  ReleaseBlockLock(head, block_lock);
  return st;
}

Status FileServer::FreePrivatePages(BlockNo head) {
  // Orphan cleanup (tests, and aborting a prepared cross-shard version recovered after a
  // restart, where allocated_blocks is unknown); normal aborts free via allocated_blocks.
  ASSIGN_OR_RETURN(Page root, LoadPageUncached(head));
  std::deque<PageRef> frontier(root.refs.begin(), root.refs.end());
  while (!frontier.empty()) {
    PageRef ref = frontier.front();
    frontier.pop_front();
    if (!ref.copied() || ref.block == kNilRef) {
      continue;
    }
    auto child = LoadPageUncached(ref.block);
    if (child.ok()) {
      frontier.insert(frontier.end(), child->refs.begin(), child->refs.end());
    }
    (void)pages_.FreePage(ref.block);
  }
  return pages_.FreePage(head);
}

// ---------------------------------------------------------------------------
// Cache validation (§5.4)
// ---------------------------------------------------------------------------

Result<bool> FileServer::VersionWrotePath(BlockNo head, const PagePath& path) {
  ASSIGN_OR_RETURN(Page root, LoadPageUncached(head));
  return VersionWrotePathFromRoot(root, path);
}

Result<bool> FileServer::VersionWrotePathFromRoot(const Page& root, const PagePath& path) {
  Page page = root;
  uint8_t flags = page.root_flags;
  for (size_t depth = 0;; ++depth) {
    const bool last = depth == path.depth();
    if (last) {
      return (flags & (RefFlag::kWritten | RefFlag::kModified)) != 0;
    }
    // An ancestor whose references were modified may have moved the page; conservative.
    if ((flags & RefFlag::kModified) != 0) {
      return true;
    }
    if ((flags & RefFlag::kCopied) == 0) {
      return false;  // untouched subtree — cannot contain writes
    }
    if (path.at(depth) >= page.refs.size()) {
      return true;  // structure differs from the cached view; be conservative
    }
    PageRef ref = page.refs[path.at(depth)];
    flags = ref.flags;
    if ((flags & RefFlag::kCopied) == 0 || ref.block == kNilRef) {
      // Deeper pages were never copied in this version: no writes below. The final
      // verdict for this path is just this reference's own W/M bits.
      return (flags & (RefFlag::kWritten | RefFlag::kModified)) != 0;
    }
    if (depth + 1 < path.depth()) {
      ASSIGN_OR_RETURN(page, LoadPage(ref.block));
    }
  }
}

Result<FileServer::CacheCheck> FileServer::ValidateCache(
    const Capability& file, BlockNo cached_head, const std::vector<PagePath>& cached_paths) {
  uint64_t file_id;
  RETURN_IF_ERROR(VerifyFileCap(file, Rights::kRead, &file_id));
  ASSIGN_OR_RETURN(BlockNo current, FindCurrentHead(file_id));

  CacheCheck out;
  out.current_version = SignVersionCap(current);
  if (cached_head == current) {
    // "For files that are not shared, the cache entry will always be the most recent
    // version of the file, so the serialisability test is a null operation."
    return out;
  }

  // Collect the committed versions after the cached one by following commit references.
  std::vector<BlockNo> newer;
  BlockNo cursor = cached_head;
  for (int step = 0; step < 4096; ++step) {
    auto page = LoadPageUncached(cursor);
    if (!page.ok() || (cursor == cached_head && page->file_cap.object != file_id)) {
      // The cached version was pruned (or never belonged to this file): discard everything.
      out.invalid = cached_paths;
      return out;
    }
    if (page->commit_ref == kNilRef) {
      break;
    }
    cursor = page->commit_ref;
    newer.push_back(cursor);
  }

  // "The serialisability test can be made in time proportional to the size of the
  // intersection of the set of pages of the version in the cache and the union of the sets
  // of pages in the versions since then." Each intervening version's root is read once;
  // per-path work then descends only parts that version actually wrote.
  ASSIGN_OR_RETURN(std::vector<Page> roots, pages_.ReadPages(newer));
  for (const PagePath& path : cached_paths) {
    for (const Page& root : roots) {
      ASSIGN_OR_RETURN(bool wrote, VersionWrotePathFromRoot(root, path));
      if (wrote) {
        out.invalid.push_back(path);
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<FileServer::FileStatInfo> FileServer::FileStat(const Capability& file) {
  uint64_t file_id;
  RETURN_IF_ERROR(VerifyFileCap(file, Rights::kRead, &file_id));
  FileStatInfo info;
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    ASSIGN_OR_RETURN(FileEntry entry, LookupFileLocked(file_id));
    info.is_super = entry.is_super;
  }
  ASSIGN_OR_RETURN(std::vector<BlockNo> chain, CommittedChain(file_id));
  info.committed_versions = static_cast<uint32_t>(chain.size());
  info.current_head = chain.empty() ? kNilRef : chain.back();
  return info;
}

std::vector<BlockNo> FileServer::ListUncommitted() const {
  std::lock_guard<std::mutex> lock(versions_mu_);
  std::vector<BlockNo> out;
  out.reserve(uncommitted_.size() + prepared_.size());
  for (const auto& [head, info] : uncommitted_) {
    (void)info;
    out.push_back(head);
  }
  // Prepared cross-shard versions are no longer in uncommitted_ but their pages must stay
  // protected (GC root set, pruning pins) until the coordinator's decision arrives.
  for (const auto& [txn, rec] : prepared_) {
    (void)txn;
    out.push_back(rec.head);
  }
  return out;
}

void FileServer::OnRestart() {
  // A crashed file server loses its uncommitted versions ("clients must be prepared to
  // redo the updates in a version") and rebuilds its view of the shared store.
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    uncommitted_.clear();
    prepared_.clear();  // AttachStore re-discovers in-doubt tips from their disk markers
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    committed_cache_.clear();
    cache_lru_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    current_cache_.clear();
  }
  index_.Clear();  // AttachStore re-seeds it (heads only) from the on-disk chains
  (void)AttachStore();
}

}  // namespace afs
