// In-memory version index (docs/PERF.md §5b): a per-FileServer cache over the committed
// version chains it has observed, so Kung–Robinson condition checks and the §5.2 one-pass
// merge stop re-walking page chains through PageStore RPCs.
//
// Two things are indexed per committed version:
//
//   * Access signature (AccessSig) — the exact map from page-tree path to the C/R/W/S/M
//     flags this version's update set on that path's reference. WalkPath records it as it
//     ORs the same flags into the on-disk reference tables, so (for versions committed by
//     this server, with no Modified flag anywhere) the signature IS the on-disk flag state
//     and two signatures can run the conflict rule of serialise.h entirely in memory.
//     Paths are exact packed-index keys, never hashes: a collision would merge two page
//     sets and could silently skip an adoption the merge needed.
//
//   * Root page snapshot — the version page as persisted at commit, so the serialiser's
//     committed-root read costs no RPC. Header fields that mutate after commit (commit
//     reference, locks) must never be trusted from the snapshot; the serialiser only uses
//     flags, references and data. Commits that ran the §5.1 reshare pass are cached
//     WITHOUT a root snapshot — reshare rewrites the reference table after commit and the
//     superseded copies become garbage, so a stale snapshot could point at freed blocks.
//
// The index is a CACHE, never an arbiter: the §5.2 test-and-set on the on-disk commit
// reference stays the single source of truth. Every entry records a contiguous suffix of
// one file's committed chain as THIS server saw it; a commit by another server shows up as
// a lost flip, after which that commit validates by chain walk and restarts the file's
// suffix when it lands (OnCommit). The index is rebuilt (heads only) when the server
// re-attaches to the store after a crash, and fsck verifies it against the on-disk chains
// (fsck.h, invariant I7).

#ifndef SRC_CORE_VERSION_INDEX_H_
#define SRC_CORE_VERSION_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/page.h"
#include "src/core/path.h"

namespace afs {

// Exact page-set signature of one uncommitted update. `refs` maps a packed path (see
// SigKey; "" is the root) to the access flags the update set on that path's reference.
// `valid` drops to false when the update exceeds the entry cap or enters a super-file
// sub-tree — consumers must then fall back to the on-disk tree walk.
struct AccessSig {
  std::unordered_map<std::string, uint8_t> refs;
  bool valid = true;
  bool has_modified = false;  // any M anywhere: path alignment below it is lost
};

// Signatures above this many touched paths stop being tracked (valid = false); such an
// update re-walks trees like the baseline. Bounds combiner memory under huge updates.
inline constexpr size_t kMaxSigEntries = 4096;

// Packed key for the path prefix of length `depth` (0 = root = "").
std::string SigKey(const PagePath& path, size_t depth);

// Outcome of testing to-commit signature `b` against committed signature `c` in place of
// the serialiser's tree walk.
enum class SigVerdict {
  kConflict,   // the walk would find a serialisability conflict: abort without I/O
  kNoopMerge,  // serialisable AND the merge would adopt nothing: b's tree is already the
               // correct merged tree, so the successor hop costs zero page I/O
  kUnknown,    // signatures can't decide (missing, invalid, M present, or a real merge
               // is needed) — run Serialiser::TestAndMerge
};
SigVerdict TestSigs(const AccessSig& b, const AccessSig& c);

class VersionIndex {
 public:
  struct CommittedRec {
    BlockNo head = kNilRef;
    // Signature of the update that produced this version; null for versions committed by
    // another server or re-seeded from disk after a crash.
    std::shared_ptr<const AccessSig> sig;
    // Root page as persisted at commit; null when not snapshotted (reshared, recovered).
    std::shared_ptr<const Page> root;
  };

  // Record a commit: `base` is the on-disk predecessor the flip succeeded. If `base` is
  // not the newest indexed head of the file, the suffix is no longer contiguous (another
  // server committed in between) and is restarted at this record.
  void OnCommit(uint64_t file_id, BlockNo base, CommittedRec rec);

  // Re-seed a file's suffix from an on-disk chain walk (oldest first); heads only.
  void SeedChain(uint64_t file_id, const std::vector<BlockNo>& chain);

  // Newest indexed head of the file — the current version, as far as this index knows.
  std::optional<BlockNo> CurrentHint(uint64_t file_id) const;

  // The committed successors strictly after `base`, oldest first. True = `base` is in the
  // suffix (the records are exactly the on-disk chain from `base` to the indexed tip).
  // False = index miss; the caller walks commit references instead.
  bool SuccessorsAfter(uint64_t file_id, BlockNo base,
                       std::vector<CommittedRec>* out) const;

  // Drop records whose pages the GC pruned / whose file is gone / everything (restart).
  void Forget(uint64_t file_id, const std::vector<BlockNo>& pruned_heads);
  void ForgetFile(uint64_t file_id);
  void Clear();

  // fsck view: every indexed file's suffix, oldest first.
  struct FileSnapshot {
    uint64_t file_id = 0;
    std::vector<CommittedRec> suffix;
  };
  std::vector<FileSnapshot> Snapshot() const;

 private:
  // Suffix window per file; old records beyond this are trimmed (they are only useful as
  // validation bases, and a base that old has long been superseded).
  static constexpr size_t kMaxRecordsPerFile = 64;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::deque<CommittedRec>> files_;
};

}  // namespace afs

#endif  // SRC_CORE_VERSION_INDEX_H_
