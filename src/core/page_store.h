// PageStore: atomic page I/O over fixed-size blocks (paper §5.1 and its footnote).
//
// "Pages are stored by the block server in such a way that they can be read and written as
// atomic actions. ... Arbitrarily long pages can be written atomically by writing them
// back-to-front as a linked list, whereby the head block is (over)written last, and the
// other blocks in the list are allocated from the pool of free disk blocks. After writing,
// the blocks making up the previous linked list can be freed."
//
// Chain block payload format: u32 next_block (kNilRef terminates) | u16 chunk_len | chunk.
// A page whose serialized form fits one block uses a single block with next == kNilRef.
//
// WritePage allocates a fresh chain (new page identity = new head block).
// OverwritePage keeps the head block number (used only for version pages, the one page kind
// that is written in place): new tail blocks are written first, then the head atomically
// switches the page to its new contents, then the old tail blocks are freed.
//
// Vectored I/O: multi-block chains are built with one AllocMulti + one WriteBatch instead
// of one AllocWrite per block (safe: a fresh chain is unreachable until its head is linked,
// and an overwrite's head block is still written last, alone, as the atomic commit point).
// ReadPages fetches many pages with one ReadMulti per chain *level* — the workhorse of
// tree and recovery scans. The commit flush writes a whole private tree with
// AllocBlocks + WriteChains (one AllocMulti, one WriteBatch).

#ifndef SRC_CORE_PAGE_STORE_H_
#define SRC_CORE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/block/block_store.h"
#include "src/core/page.h"

namespace afs {

// Block numbers from here up to kNilRef never reach a block server: a file server numbers
// the private pages of an uncommitted version from this range until its commit flush gives
// them real blocks. PageStore refuses a store that allocates a block in it.
inline constexpr BlockNo kFirstProvisionalBlock = 0x0f000000;

// One element of a vectored page read; status is per page so scans can tolerate holes.
struct PageReadResult {
  Status status;
  Page page;  // valid iff status.ok()
};

class PageStore {
 public:
  explicit PageStore(BlockStore* blocks);

  // Write a new page; returns the head block number.
  Result<BlockNo> WritePage(const Page& page);

  // Atomically replace the contents of the page whose head is `head`. A caller that has
  // just read the page passes its tail chain (ReadPage's `tail`) in `old_tail`, sparing the
  // store a re-read of the chain only to learn which blocks to free.
  Status OverwritePage(BlockNo head, const Page& page,
                       const std::vector<BlockNo>* old_tail = nullptr);

  // --- Writes into caller-numbered chains -------------------------------------
  // A page's block numbers are known before it is written, so references to it can be
  // set first: ChainLength says how many blocks a page takes, AllocBlocks reserves them
  // with one AllocMulti, WriteChains fills them with one WriteBatch.

  // Blocks `page` occupies once serialised (its head plus its tail chain).
  Result<size_t> ChainLength(const Page& page) const;

  // Reserve `n` fresh blocks with one AllocMulti, recorded in the GC allocation epoch.
  Result<std::vector<BlockNo>> AllocBlocks(uint32_t n);

  // A page and the blocks it is written into, head first; chain.size() must equal
  // ChainLength(page).
  struct ChainWrite {
    Page page;
    std::vector<BlockNo> chain;
  };

  // Serialise every page into its chain and write them all with ONE WriteBatch. Nothing
  // orders one block of the batch before another, so use it only for chains no reader can
  // reach yet (fresh chains, the head of an uncommitted version) or for single-block pages
  // (a block write is atomic).
  Status WriteChains(std::span<const ChainWrite> writes);

  // Read the page whose head is `head`; `tail`, if non-null, receives the rest of its chain.
  Result<Page> ReadPage(BlockNo head, std::vector<BlockNo>* tail = nullptr);

  // Read many pages, batching the underlying block reads level-by-level across all chains.
  // result[i] corresponds to heads[i]; per-page failures do not fail the batch. If `chains`
  // is non-null it receives each page's full chain (head first) — the GC mark phase marks
  // chain blocks from the same reads it uses to decode the pages.
  Result<std::vector<PageReadResult>> ReadPagesDetailed(
      std::span<const BlockNo> heads, std::vector<std::vector<BlockNo>>* chains = nullptr);

  // Strict wrapper: every page must read cleanly.
  Result<std::vector<Page>> ReadPages(std::span<const BlockNo> heads);

  // Free the whole chain.
  Status FreePage(BlockNo head);

  // All blocks of the chain starting at `head` (head first). Used by the GC mark phase.
  Result<std::vector<BlockNo>> ChainBlocks(BlockNo head);

  // Block-level lock passthroughs (the commit critical section locks the version page's
  // head block).
  Status LockBlock(BlockNo head, Port owner) { return blocks_->Lock(head, owner); }
  Status UnlockBlock(BlockNo head, Port owner) { return blocks_->Unlock(head, owner); }

  BlockStore* blocks() const { return blocks_; }

  // --- GC epoch support -----------------------------------------------------
  // While an epoch is open, every block allocated through this store is recorded; the GC
  // opens an epoch before marking so that blocks born during a concurrent mark are never
  // swept (DESIGN.md §3).
  void BeginAllocationEpoch();
  std::unordered_set<BlockNo> EndAllocationEpoch();

 private:
  Result<BlockNo> AllocBlock(std::span<const uint8_t> payload);
  // Records fresh blocks in an open allocation epoch; fails (freeing them) if the store
  // handed out a number in the provisional range.
  Status RecordEpochAllocations(std::span<const BlockNo> bnos);
  // Allocate and fill a chain for `payload` whose head points at `next_after_head`...
  // actually: builds the TAIL chain for chunks [1, n) and returns the head's `next`
  // pointer (kNilRef for single-chunk pages). The head block itself is left to the caller
  // (WritePage allocates it; OverwritePage overwrites it in place last).
  Result<BlockNo> WriteTailChain(std::span<const uint8_t> payload, uint32_t chunk_cap,
                                 size_t num_chunks);

  BlockStore* blocks_;
  std::mutex epoch_mu_;
  bool epoch_open_ = false;
  std::unordered_set<BlockNo> epoch_allocations_;
};

}  // namespace afs

#endif  // SRC_CORE_PAGE_STORE_H_
