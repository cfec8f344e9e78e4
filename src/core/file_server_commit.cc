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
  std::vector<BlockNo> tail;
  auto base = LoadPageUncached(base_head, &tail);
  if (!base.ok()) {
    st = base.status();
  } else if (base->commit_ref == kNilRef) {
    base->commit_ref = new_head;
    st = pages_.OverwritePage(base_head, *base, &tail);
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

  // commit.begin: admission (the version-op guard; the root is in memory).
  obs::ScopedSpan begin_span("commit.begin", obs::SpanKind::kPhase, head, 0);
  ASSIGN_OR_RETURN(VersionOpGuard op, AcquireVersionOp(head));
  if (op.info == nullptr) {
    return AbortedError("version is not managed by this server (already finished?)");
  }
  begin_span.End();

  Result<BlockNo> result = CommitGrouped(op.info, &scope.outcome);
  if (!result.ok()) {
    commit_span.set_status(static_cast<uint8_t>(result.status().code()));
  }
  return result;
}

Status FileServer::ValidateToChainEnd(PendingCommit* req, bool use_index) {
  const uint64_t file_id = req->info->file_id;
  const BlockNo from = req->info->root.base_ref;
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
        req->failed_against = cur;
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
    Status st = ValidateAgainstSuccessor(req, rec.head, rec.sig.get(), rec.root.get());
    if (!st.ok()) {
      req->failed_against = rec.head;
      return st;
    }
    req->info->root.base_ref = rec.head;
  }
  return OkStatus();
}

Status FileServer::ValidateAgainstSuccessor(PendingCommit* req, BlockNo c_head,
                                            const AccessSig* c_sig, const Page* c_root) {
  serialise_tests_ctr_->Inc();
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
  VersionInfo* info = req->info;
  Serialiser serialiser(
      [info](BlockNo bno) -> Result<Page*> {
        auto it = info->pages.find(bno);
        if (it == info->pages.end()) {
          return InternalError("copied reference outside the version's private pages");
        }
        return &it->second;
      },
      [this](BlockNo bno) { return LoadPage(bno); },
      [this](std::span<const BlockNo> bnos) { return LoadPagesCommitted(bnos); });
  auto mergeable = serialiser.TestAndMerge(info->head, &info->root, c_head, c_root);
  if (!mergeable.ok()) {
    return mergeable.status();
  }
  if (!*mergeable) {
    return ConflictError("update not serialisable with committed version");
  }
  commit_merged_->Inc();
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
    const BlockNo tip = validated.front()->info->root.base_ref;
    if (std::any_of(validated.begin(), validated.end(),
                    [tip](PendingCommit* req) { return req->info->root.base_ref != tip; })) {
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
        if (verdict == SigVerdict::kConflict) {
          req->failed_against = mate->info->head;
        }
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
    // commit references backward), write every tree — children and roots — in one flush,
    // then publish the WHOLE segment with a single test-and-set on the tip. Before the flip
    // the segment is unreachable from the chain, so a failure here only leaves garbage for
    // the GC.
    for (size_t i = 0; i < live.size(); ++i) {
      Page& root = live[i]->info->root;
      root.base_ref = i == 0 ? tip : live[i - 1]->info->head;
      root.commit_ref = i + 1 < live.size() ? live[i + 1]->info->head : kNilRef;
      root.prepare_txn = prepare_txn;
    }
    obs::ScopedSpan flush_span("commit.merge", obs::SpanKind::kPhase, tip, live.size());
    Status persisted = FlushTrees(live);
    flush_span.End();
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
      req->info->root.base_ref = tip;
      req->info->root.commit_ref = kNilRef;
    }
  }

  // The one conflict exit: "When serialise returns FALSE, the concurrent updates are not
  // serialisable, and V.b is removed, and its owner notified."
  for (PendingCommit* req : segment) {
    if (req->validation.ok()) {
      continue;
    }
    req->outcome = req->validation.code() == ErrorCode::kConflict ? commit_conflicts_ : nullptr;
    obs::ScopedSpan abort_span("commit.abort", obs::SpanKind::kPhase, req->info->head,
                               req->failed_against);
    abort_span.set_status(static_cast<uint8_t>(req->validation.code()));
    (void)AbortLocked(req->info);
    req->result = req->validation;
  }
}

void FileServer::ImageTree(PendingCommit* req,
                           std::vector<std::pair<BlockNo, Page>>* sub_roots) {
  VersionInfo* info = req->info;
  req->written_root = info->root;
  req->written_pages.clear();
  sub_roots->clear();

  // §5.1: "The garbage collector may remove pages that were copied but not written or
  // modified and reshare the corresponding page from the version on which it was based."
  // Applied here, before anything is written, and to fast-path members only: a merged tree
  // holds content its flags do not mark as written. Sub-file version pages and everything
  // below them are never reshared.
  const bool reshare = options_.reshare_on_commit && req->fast_path;
  std::unordered_map<BlockNo, bool> clean_memo;
  std::function<bool(BlockNo)> subtree_clean = [&](BlockNo bno) {
    auto memo = clean_memo.find(bno);
    if (memo != clean_memo.end()) {
      return memo->second;
    }
    bool clean = true;
    for (const PageRef& ref : info->pages.at(bno).refs) {
      auto child = info->pages.find(ref.block);
      if (child != info->pages.end() &&
          (child->second.IsVersionPage() || ref.written() || ref.modified() ||
           !subtree_clean(ref.block))) {
        clean = false;
        break;
      }
    }
    clean_memo[bno] = clean;
    return clean;
  };

  // Breadth-first from the root over private pages. Queue entries name a page of the
  // image: the root (index npos), a fresh page, or a created sub-file root.
  struct Entry {
    bool sub_root;
    size_t index;
    bool may_reshare;
  };
  constexpr size_t kRoot = static_cast<size_t>(-1);
  std::vector<Entry> queue = {{false, kRoot, reshare}};
  std::unordered_set<BlockNo> seen;
  for (size_t q = 0; q < queue.size(); ++q) {
    const Entry entry = queue[q];
    const auto page_of = [&]() -> Page& {
      if (entry.index == kRoot) {
        return req->written_root;
      }
      return entry.sub_root ? (*sub_roots)[entry.index].second
                            : req->written_pages[entry.index].second;
    };
    for (size_t r = 0; r < page_of().refs.size(); ++r) {
      PageRef& ref = page_of().refs[r];
      auto child = info->pages.find(ref.block);
      if (child == info->pages.end() || !seen.insert(ref.block).second) {
        continue;  // shared with committed versions (or nil)
      }
      const Page& child_page = child->second;
      if (entry.may_reshare && !child_page.IsVersionPage() && !ref.written() &&
          !ref.modified() && child_page.base_ref != kNilRef && subtree_clean(ref.block)) {
        ref = PageRef{child_page.base_ref, 0};  // the copy is dropped, never written
        continue;
      }
      const bool may_reshare = entry.may_reshare && !child_page.IsVersionPage();
      if (ref.block >= kFirstProvisionalBlock) {
        req->written_pages.emplace_back(ref.block, child_page);
        queue.push_back({false, req->written_pages.size() - 1, may_reshare});
      } else {
        sub_roots->emplace_back(ref.block, child_page);
        queue.push_back({true, sub_roots->size() - 1, may_reshare});
      }
    }
  }
}

Status FileServer::FlushTrees(const std::vector<PendingCommit*>& live) {
  // Each member's image: its root and the private pages its tree still reaches, copied out
  // of the private page table, which stays untouched — after a lost flip the next round
  // validates against the full flags and flushes afresh.
  std::vector<std::vector<std::pair<BlockNo, Page>>> sub_roots(live.size());
  std::vector<std::vector<size_t>> lengths(live.size());  // root first, then fresh pages
  uint32_t blocks_needed = 0;
  for (size_t m = 0; m < live.size(); ++m) {
    ImageTree(live[m], &sub_roots[m]);
    ASSIGN_OR_RETURN(size_t root_blocks, pages_.ChainLength(live[m]->written_root));
    lengths[m].push_back(root_blocks);
    blocks_needed += static_cast<uint32_t>(root_blocks - 1);
    for (const auto& [bno, page] : live[m]->written_pages) {
      ASSIGN_OR_RETURN(size_t n, pages_.ChainLength(page));
      lengths[m].push_back(n);
      blocks_needed += static_cast<uint32_t>(n);
    }
  }

  // One AllocMulti for the whole segment: the fresh chains and any new root tails.
  ASSIGN_OR_RETURN(std::vector<BlockNo> blocks, pages_.AllocBlocks(blocks_needed));
  size_t next = 0;
  const auto take = [&](size_t n) {
    std::vector<BlockNo> chain(blocks.begin() + static_cast<ptrdiff_t>(next),
                               blocks.begin() + static_cast<ptrdiff_t>(next + n));
    next += n;
    return chain;
  };
  std::vector<PageStore::ChainWrite> writes;
  std::vector<std::vector<BlockNo>> root_tails(live.size());
  for (size_t m = 0; m < live.size(); ++m) {
    PendingCommit* req = live[m];
    root_tails[m] = take(lengths[m][0] - 1);
    std::vector<std::vector<BlockNo>> chains;
    req->real_of.clear();
    for (size_t i = 0; i < req->written_pages.size(); ++i) {
      chains.push_back(take(lengths[m][i + 1]));
      req->real_of[req->written_pages[i].first] = chains.back().front();
    }
    // Point every reference at its real block; a copied sub-file version page gets the
    // capability of its new head.
    const auto relink = [req](Page* page) {
      for (PageRef& ref : page->refs) {
        if (ref.block >= kFirstProvisionalBlock && ref.block != kNilRef) {
          ref.block = req->real_of.at(ref.block);
        }
      }
    };
    relink(&req->written_root);
    for (auto& [bno, page] : sub_roots[m]) {
      relink(&page);
    }
    for (size_t i = 0; i < req->written_pages.size(); ++i) {
      auto& [bno, page] = req->written_pages[i];
      relink(&page);
      bno = chains[i].front();
      if (page.IsVersionPage()) {
        page.version_cap = SignVersionCap(bno);
      }
      writes.push_back({page, std::move(chains[i])});
    }
    std::vector<BlockNo> root_chain = {req->info->head};
    root_chain.insert(root_chain.end(), root_tails[m].begin(), root_tails[m].end());
    writes.push_back({req->written_root, std::move(root_chain)});
  }
  // Children and roots in one WriteBatch: nothing in it is reachable before the flip.
  Status written = pages_.WriteChains(writes);
  if (!written.ok()) {
    if (!blocks.empty()) {
      (void)pages_.blocks()->FreeMulti(blocks);
    }
    return written;
  }

  // The heads now link this flush's chains in place of the previous ones: record that at
  // once, so an abort frees exactly what the on-disk heads link.
  std::vector<BlockNo> stale;
  next = 0;
  for (size_t m = 0; m < live.size(); ++m) {
    VersionInfo* info = live[m]->info;
    stale.insert(stale.end(), info->linked_blocks.begin(), info->linked_blocks.end());
    size_t linked = 0;
    for (size_t n : lengths[m]) {
      linked += n;
    }
    linked -= 1;  // the head itself
    info->linked_blocks.assign(blocks.begin() + static_cast<ptrdiff_t>(next),
                               blocks.begin() + static_cast<ptrdiff_t>(next + linked));
    next += linked;
  }
  // Sub-file roots created in this update are named by the file table, so they are
  // overwritten in place, after the pages they now link.
  Status st = OkStatus();
  for (size_t m = 0; m < live.size() && st.ok(); ++m) {
    for (const auto& [bno, page] : sub_roots[m]) {
      st = pages_.OverwritePage(bno, page);
      if (!st.ok()) {
        break;
      }
    }
  }
  if (!stale.empty()) {
    (void)pages_.blocks()->FreeMulti(stale);
  }
  return st;
}

void FileServer::FinishCommit(PendingCommit* req) {
  VersionInfo* info = req->info;
  const BlockNo head = info->head;
  // Current-version bookkeeping, the written pages into the committed-page cache (a
  // published plain page never changes), §5.3 sub-file commit completion.
  IndexCommitted(info, info->root.base_ref, req->written_root);
  if (options_.cache_committed_pages) {
    // Each written page replaces its copy source in the current version; only readers of
    // older snapshots still reach the source, so it gives up its cache slot.
    std::vector<BlockNo> superseded;
    for (const auto& [bno, page] : req->written_pages) {
      if (page.kind == PageKind::kPlain) {
        CacheCommittedPage(bno, page);
      }
      if (page.base_ref != kNilRef) {
        superseded.push_back(page.base_ref);
      }
    }
    UncachePages(superseded);
  }
  if (info->is_super_update) {
    // Sub-file copies the tree no longer reaches were never written; their inner locks
    // are cleared with the others.
    std::vector<std::pair<BlockNo, BlockNo>> copied;
    for (const auto& [old_head, provisional] : info->copied_subfiles) {
      auto it = req->real_of.find(provisional);
      if (it != req->real_of.end()) {
        copied.emplace_back(old_head, it->second);
      }
    }
    info->copied_subfiles = std::move(copied);
    Status st = FinishSuperCommit(info);
    if (!st.ok()) {
      req->result = st;
      return;
    }
  }
  req->outcome = req->fast_path ? commit_fast_path_ : commit_validated_;
  std::lock_guard<std::mutex> lock(versions_mu_);
  uncommitted_.erase(head);  // destroys req->info; nothing touches it past here
}

void FileServer::IndexCommitted(VersionInfo* info, BlockNo base, const Page& root) {
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    current_cache_[info->file_id] = info->head;
  }
  VersionIndex::CommittedRec rec;
  rec.head = info->head;
  if (info->sig.valid) {
    // The signature stays sound even when the commit merged or reshared: it records this
    // update's OWN flags, which is exactly what the written tree keeps (grafts enter
    // flags-cleared; reshare only drops flags, making signature tests conservative).
    rec.sig = std::make_shared<const AccessSig>(info->sig);
  }
  rec.root = std::make_shared<const Page>(root);
  index_.OnCommit(info->file_id, base, std::move(rec));
}

Result<BlockNo> FileServer::CommitGrouped(VersionInfo* info, obs::Counter** outcome_ctr) {
  PendingCommit req;
  req.info = info;
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
    std::vector<BlockNo> tail;
    auto base = LoadPageUncached(old_head, &tail);
    Status st = base.ok() ? OkStatus() : base.status();
    if (st.ok() && base->commit_ref == kNilRef) {
      base->commit_ref = new_head;
      base->inner_lock = kNullPort;
      st = pages_.OverwritePage(old_head, *base, &tail);
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

  // Free exactly the blocks this version owns; its tree shares committed pages of other
  // versions, which must survive. Pages never flushed never had a block.
  for (BlockNo bno : info->allocated_blocks) {
    (void)pages_.FreePage(bno);
  }
  if (!info->linked_blocks.empty()) {
    (void)pages_.blocks()->FreeMulti(info->linked_blocks);
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
// Orphan cleanup
// ---------------------------------------------------------------------------

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
  // A cache further behind than the walk's bound cannot be validated: discard everything,
  // as for a pruned version, rather than trust a truncated chain.
  constexpr int kMaxValidatedVersions = 4096;
  std::vector<BlockNo> newer;
  BlockNo cursor = cached_head;
  for (int step = 0;; ++step) {
    auto page = LoadPageUncached(cursor);
    if (!page.ok() || (cursor == cached_head && page->file_cap.object != file_id) ||
        step == kMaxValidatedVersions) {
      // The cached version was pruned (or never belonged to this file), or is too far
      // behind: discard everything.
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
