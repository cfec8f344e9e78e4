#include "src/core/gc.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace afs {

GarbageCollector::GarbageCollector(std::vector<FileServer*> servers, GcOptions options)
    : servers_(std::move(servers)), options_(options) {
  if (options_.keep_versions == 0) {
    options_.keep_versions = 1;
  }
}

GarbageCollector::~GarbageCollector() { Stop(); }

Status WalkVersionTree(PageStore* pages, BlockNo head, std::unordered_set<BlockNo>* visited,
                       const std::function<void(const Page& page,
                                                const std::vector<BlockNo>& chain)>& visit) {
  // Level-synchronous BFS: each wave reads every frontier page in one vectored call, and
  // the chains output hands each page's chain blocks from the same reads that decode the
  // pages — a tree of depth d costs O(d) batched RPCs instead of one per page.
  std::vector<BlockNo> wave;
  std::unordered_set<BlockNo> queued;
  auto enqueue = [&](BlockNo h) {
    if (h != kNilRef && visited->count(h) == 0 && queued.insert(h).second) {
      wave.push_back(h);
    }
  };
  enqueue(head);
  while (!wave.empty()) {
    std::vector<BlockNo> batch = std::move(wave);
    wave.clear();
    std::vector<std::vector<BlockNo>> chains;
    ASSIGN_OR_RETURN(std::vector<PageReadResult> results,
                     pages->ReadPagesDetailed(batch, &chains));
    for (size_t i = 0; i < batch.size(); ++i) {
      RETURN_IF_ERROR(results[i].status);
      for (BlockNo bno : chains[i]) {
        visited->insert(bno);
      }
      visit(results[i].page, chains[i]);
      for (const PageRef& ref : results[i].page.refs) {
        // Follow every reference, copied or shared: a retained version may share pages
        // with a pruned predecessor, and those shared pages must stay reachable.
        enqueue(ref.block);
      }
    }
  }
  return OkStatus();
}

Status GarbageCollector::MarkVersionTree(BlockNo head, std::unordered_set<BlockNo>* marked) {
  return WalkVersionTree(servers_[0]->page_store(), head, marked,
                         [](const Page&, const std::vector<BlockNo>&) {});
}

Status GarbageCollector::PruneOldVersions() {
  FileServer* fs = servers_[0];
  PageStore* pages = fs->page_store();

  // Versions pinned as the base of a live uncommitted update (and everything after them)
  // must be retained: the committer will run serialisability tests along that chain.
  std::unordered_set<BlockNo> pinned_bases;
  for (FileServer* server : servers_) {
    for (BlockNo head : server->ListUncommitted()) {
      auto page = pages->ReadPage(head);
      if (page.ok() && page->base_ref != kNilRef) {
        pinned_bases.insert(page->base_ref);
      }
    }
  }

  for (const FileServer::FileEntry& entry : fs->SnapshotFileTable()) {
    auto chain = fs->CommittedChain(entry.file_id);
    if (!chain.ok() || chain->size() <= options_.keep_versions) {
      continue;
    }
    size_t cut = chain->size() - options_.keep_versions;
    for (size_t i = 0; i < cut; ++i) {
      if (pinned_bases.count((*chain)[i]) > 0) {
        cut = i;
        break;
      }
    }
    if (cut == 0) {
      continue;
    }
    BlockNo new_oldest = (*chain)[cut];
    // Maintain Figure 4's invariant: "the oldest version's base reference [is] nil."
    RETURN_IF_ERROR(pages->LockBlock(new_oldest, fs->port()));
    std::vector<BlockNo> tail;
    auto page = pages->ReadPage(new_oldest, &tail);
    Status st = page.ok() ? OkStatus() : page.status();
    if (st.ok()) {
      page->base_ref = kNilRef;
      st = pages->OverwritePage(new_oldest, *page, &tail);
    }
    RETURN_IF_ERROR(pages->UnlockBlock(new_oldest, fs->port()));
    RETURN_IF_ERROR(st);
    RETURN_IF_ERROR(fs->SetOldestHead(entry.file_id, new_oldest));
    // Every server's in-memory version index must drop the pruned records before the sweep
    // can free their pages (a stale cached root could otherwise reference freed blocks).
    std::vector<BlockNo> pruned_heads(chain->begin(),
                                      chain->begin() + static_cast<ptrdiff_t>(cut));
    for (FileServer* server : servers_) {
      server->OnVersionsPruned(entry.file_id, pruned_heads);
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.versions_pruned += cut;
  }
  return OkStatus();
}

Status GarbageCollector::RunCycle() {
  FileServer* fs = servers_[0];
  PageStore* pages = fs->page_store();

  RETURN_IF_ERROR(PruneOldVersions());

  // Ordering is load-bearing (see header): candidate snapshot FIRST, then roots. Any block
  // allocated after this snapshot is not a sweep candidate, so concurrent updates can never
  // lose pages; the allocators hand out fresh block numbers cursor-wise, so a candidate
  // freed and reallocated within one cycle does not occur at these scales.
  pages->BeginAllocationEpoch();
  ASSIGN_OR_RETURN(std::vector<BlockNo> candidates, pages->blocks()->ListBlocks());

  // Drain in-flight ops: a mutator may have allocated a block just before the epoch
  // opened but not yet linked it anywhere (a half-built version head, a copy-on-write
  // page). Such a block is a candidate, is reachable from no root, and would be swept
  // while live. After the fence every pre-epoch allocation is either published into a
  // root read below or already freed; ops starting after the epoch only allocate
  // born-during-mark blocks, which are never swept this cycle.
  for (FileServer* server : servers_) {
    server->QuiesceOps();
  }

  // Snapshot the uncommitted heads BEFORE walking the committed chains. A version that
  // commits mid-cycle is then covered either way: one that commits before its file's
  // chain walk appears in the chain; one that commits after was in this snapshot and is
  // walked as root set 2 (tolerating kNotFound if it aborted instead). Taking this
  // snapshot after the chain walk leaves a window where a commit is in neither root set
  // and its pre-epoch blocks would be swept while live.
  std::vector<BlockNo> uncommitted_heads;
  for (FileServer* server : servers_) {
    if (!server->running()) {
      continue;  // a crashed server's uncommitted versions are garbage by design
    }
    for (BlockNo head : server->ListUncommitted()) {
      uncommitted_heads.push_back(head);
    }
  }

  std::unordered_set<BlockNo> marked;
  Status mark_status = OkStatus();

  // Root set 1: every retained committed version of every file (walk the chains), plus the
  // file table page itself (marked via its chain below).
  for (const FileServer::FileEntry& entry : fs->SnapshotFileTable()) {
    auto chain = fs->CommittedChain(entry.file_id);
    if (!chain.ok()) {
      mark_status = chain.status();
      break;
    }
    for (BlockNo head : *chain) {
      mark_status = MarkVersionTree(head, &marked);
      if (!mark_status.ok()) {
        break;
      }
    }
    if (!mark_status.ok()) {
      break;
    }
  }
  // Root set 2: the uncommitted versions snapshotted above.
  if (mark_status.ok()) {
    for (BlockNo head : uncommitted_heads) {
      Status st = MarkVersionTree(head, &marked);
      if (!st.ok() && st.code() != ErrorCode::kNotFound) {
        mark_status = st;
        break;
      }
      // kNotFound: the version committed or aborted while we walked; its blocks are
      // covered by the chain roots or are legitimately garbage.
    }
  }

  std::unordered_set<BlockNo> born_during_mark = pages->EndAllocationEpoch();
  if (!mark_status.ok()) {
    // Conservative abort: a racing mutation invalidated the walk. Garbage survives to the
    // next cycle; nothing live was freed.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cycles_aborted;
    return mark_status;
  }

  // Mark the file table page chain itself.
  auto table_blocks = fs->FileTableBlocks();
  if (table_blocks.ok()) {
    for (BlockNo bno : *table_blocks) {
      marked.insert(bno);
    }
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cycles_aborted;
    return table_blocks.status();
  }

  std::vector<BlockNo> to_free;
  for (BlockNo bno : candidates) {
    if (marked.count(bno) == 0 && born_during_mark.count(bno) == 0) {
      to_free.push_back(bno);
    }
  }
  uint64_t swept = 0;
  if (!to_free.empty() && pages->blocks()->FreeMulti(to_free).ok()) {
    swept = to_free.size();
  } else {
    // Fallback: free one at a time so a single bad block cannot stall the sweep.
    for (BlockNo bno : to_free) {
      if (pages->blocks()->Free(bno).ok()) {
        ++swept;
      }
    }
  }
  // A swept number is handed out again: no server may keep serving its old page from the
  // committed-page cache. After the free, so a load that read the old page before it
  // cannot insert it afterwards.
  for (FileServer* server : servers_) {
    server->ForgetFreedPages(to_free);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.cycles;
  stats_.blocks_swept += swept;
  return OkStatus();
}

void GarbageCollector::Start(std::chrono::milliseconds interval) {
  Stop();
  stop_.store(false);
  background_ = std::thread([this, interval] {
    while (!stop_.load()) {
      (void)RunCycle();
      for (int i = 0; i < 100 && !stop_.load(); ++i) {
        std::this_thread::sleep_for(interval / 100);
      }
    }
  });
}

void GarbageCollector::Stop() {
  stop_.store(true);
  if (background_.joinable()) {
    background_.join();
  }
}

GcStats GarbageCollector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace afs
