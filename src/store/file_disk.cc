#include "src/store/file_disk.h"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/base/crc32.h"

namespace afs {
namespace {

// Sectors a checkpoint applies between block-file syncs (1 MB of 4 KB blocks).
constexpr size_t kCheckpointSliceSectors = 256;

constexpr uint32_t kSuperblockVersion = 1;
constexpr uint32_t kSuperblockPayloadBytes = 40;  // fields covered by the superblock CRC

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

struct Superblock {
  uint32_t block_size = 0;
  uint32_t num_blocks = 0;
  uint64_t epoch = 0;
  uint64_t seqno = 0;
  uint64_t checkpoint_lsn = 0;
};

void EncodeSuperblock(std::span<uint8_t> slot, const Superblock& sb) {
  std::memset(slot.data(), 0, slot.size());
  StoreU32(slot.data(), kSuperblockMagic);
  StoreU32(slot.data() + 4, kSuperblockVersion);
  StoreU32(slot.data() + 8, sb.block_size);
  StoreU32(slot.data() + 12, sb.num_blocks);
  StoreU64(slot.data() + 16, sb.epoch);
  StoreU64(slot.data() + 24, sb.seqno);
  StoreU64(slot.data() + 32, sb.checkpoint_lsn);
  StoreU32(slot.data() + kSuperblockPayloadBytes,
           Crc32c(slot.data(), kSuperblockPayloadBytes));
}

bool DecodeSuperblock(std::span<const uint8_t> slot, Superblock* out) {
  if (LoadU32(slot.data()) != kSuperblockMagic ||
      LoadU32(slot.data() + 4) != kSuperblockVersion ||
      LoadU32(slot.data() + kSuperblockPayloadBytes) !=
          Crc32c(slot.data(), kSuperblockPayloadBytes)) {
    return false;
  }
  out->block_size = LoadU32(slot.data() + 8);
  out->num_blocks = LoadU32(slot.data() + 12);
  out->epoch = LoadU64(slot.data() + 16);
  out->seqno = LoadU64(slot.data() + 24);
  out->checkpoint_lsn = LoadU64(slot.data() + 32);
  return out->block_size > 0 && out->num_blocks > 0;
}

}  // namespace

FileDisk::FileDisk(std::string path, FileDiskOptions options, CrashInjector<CrashPoint>* injector)
    : path_(std::move(path)), options_(options), injector_(injector) {
  latency_.BindMetrics(metrics_.counter("disk.charged_ops"),
                       metrics_.histogram("disk.charged_ns"));
}

Result<std::unique_ptr<FileDisk>> FileDisk::Open(const std::string& path,
                                                 const FileDiskOptions& options,
                                                 CrashInjector<CrashPoint>* injector) {
  std::unique_ptr<FileDisk> disk(new FileDisk(path, options, injector));
  RETURN_IF_ERROR(disk->Mount());
  return disk;
}

FileDisk::~FileDisk() { (void)Close(); }

Status FileDisk::Mount() {
  ASSIGN_OR_RETURN(block_file_, StableFile::Open(path_));
  ASSIGN_OR_RETURN(journal_file_, StableFile::Open(path_ + ".journal"));

  if (block_file_->size() == 0) {
    // Fresh disk: geometry from the options, epoch 1.
    geometry_ = {options_.block_size, options_.num_blocks, /*writes_share_flush=*/true};
    epoch_ = 1;
    superblock_seqno_ = 1;
    checkpoint_lsn_ = 0;
    RETURN_IF_ERROR(WriteSuperblock());
    RETURN_IF_ERROR(block_file_->Sync());
  } else {
    // Existing disk: the newer valid superblock copy wins; a torn superblock write left
    // the other copy intact.
    std::vector<uint8_t> slot(kSuperblockSlotBytes);
    Superblock best;
    bool found = false;
    for (int i = 0; i < 2; ++i) {
      RETURN_IF_ERROR(block_file_->ReadAt(static_cast<uint64_t>(i) * kSuperblockSlotBytes,
                                          slot));
      Superblock sb;
      if (DecodeSuperblock(slot, &sb) && (!found || sb.seqno > best.seqno)) {
        best = sb;
        found = true;
      }
    }
    if (!found) {
      return CorruptError("no valid superblock in " + path_);
    }
    geometry_ = {best.block_size, best.num_blocks, /*writes_share_flush=*/true};
    checkpoint_lsn_ = best.checkpoint_lsn;
    epoch_ = best.epoch + 1;
    superblock_seqno_ = best.seqno + 1;
    RETURN_IF_ERROR(WriteSuperblock());
    RETURN_IF_ERROR(block_file_->Sync());
  }

  journal_ = std::make_unique<Journal>(
      journal_file_.get(), JournalOptions{options_.group_commit_window}, &metrics_,
      injector_);
  // A power cut fired inside the journal takes the whole device with it.
  journal_->set_on_power_cut([this] {
    block_file_->PowerCut(0);
    crashed_.store(true, std::memory_order_release);
  });

  // Replay: complete records rebuild the newest-copy index; the torn tail is truncated.
  uint64_t torn = 0;
  ASSIGN_OR_RETURN(std::vector<Journal::ReplayedRecord> records,
                   journal_->Recover(geometry_.block_size, &torn));
  for (const Journal::ReplayedRecord& rec : records) {
    if (rec.bno < geometry_.num_blocks && rec.payload_len == geometry_.block_size) {
      journal_index_[rec.bno] = JournalEntry{rec.lsn, rec.payload_offset, rec.payload_crc};
      ++recovered_records_;
    }
  }
  torn_bytes_ = torn;
  recovery_replayed_->Inc(recovered_records_);
  recovery_torn_->Inc(torn_bytes_);

  journal_->Start();
  return OkStatus();
}

Status FileDisk::WriteSuperblock() {
  std::vector<uint8_t> slot(kSuperblockSlotBytes);
  EncodeSuperblock(slot, Superblock{geometry_.block_size, geometry_.num_blocks, epoch_,
                                    superblock_seqno_, checkpoint_lsn_});
  return block_file_->WriteAt((superblock_seqno_ % 2) * kSuperblockSlotBytes, slot);
}

Status FileDisk::CheckAccess(BlockNo bno, size_t len) const {
  if (crashed_.load(std::memory_order_acquire)) {
    return UnavailableError("disk lost power");
  }
  if (bno >= geometry_.num_blocks) {
    return InvalidArgumentError("block number out of range");
  }
  if (len != geometry_.block_size) {
    return InvalidArgumentError("buffer size != block size");
  }
  return OkStatus();
}

uint32_t FileDisk::SectorCrc(std::span<const uint8_t> payload, BlockNo bno, uint64_t epoch,
                             uint64_t lsn) const {
  uint32_t crc = Crc32c(payload.data(), payload.size());
  uint8_t trailer[20];
  StoreU32(trailer, bno);
  StoreU64(trailer + 4, epoch);
  StoreU64(trailer + 12, lsn);
  return Crc32c(trailer, sizeof(trailer), crc);
}

Status FileDisk::ReadSector(BlockNo bno, std::span<uint8_t> out) {
  std::vector<uint8_t> sector(kSectorHeaderBytes + geometry_.block_size);
  RETURN_IF_ERROR(block_file_->ReadAt(SectorOffset(bno), sector));
  const uint32_t magic = LoadU32(sector.data());
  const uint32_t stored_bno = LoadU32(sector.data() + 4);
  const uint64_t epoch = LoadU64(sector.data() + 8);
  const uint64_t lsn = LoadU64(sector.data() + 16);
  const uint32_t crc = LoadU32(sector.data() + 24);
  if (magic == 0 && stored_bno == 0 && lsn == 0 && crc == 0) {
    // Never written: zero-fill, matching MemDisk's virgin-block semantics.
    std::memset(out.data(), 0, out.size());
    return OkStatus();
  }
  if (magic != kSectorMagic) {
    return CorruptError("bad sector magic");
  }
  std::span<const uint8_t> payload(sector.data() + kSectorHeaderBytes,
                                   geometry_.block_size);
  if (SectorCrc(payload, stored_bno, epoch, lsn) != crc) {
    return CorruptError("sector CRC mismatch (torn write?)");
  }
  if (stored_bno != bno) {
    return CorruptError("misdirected write: sector carries another block's data");
  }
  std::memcpy(out.data(), payload.data(), payload.size());
  return OkStatus();
}

Status FileDisk::Read(BlockNo bno, std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckAccess(bno, out.size()));
  latency_.Charge();
  std::shared_lock<std::shared_mutex> lk(io_mu_);
  if (crashed_.load(std::memory_order_acquire)) {
    return UnavailableError("disk lost power");
  }
  JournalEntry entry;
  bool in_journal = false;
  {
    std::lock_guard<std::mutex> ilock(index_mu_);
    auto it = journal_index_.find(bno);
    if (it != journal_index_.end()) {
      entry = it->second;
      in_journal = true;
    }
  }
  if (in_journal) {
    RETURN_IF_ERROR(journal_file_->ReadAt(entry.payload_offset, out));
    if (Crc32c(out.data(), out.size()) != entry.payload_crc) {
      return CorruptError("journal copy CRC mismatch");
    }
  } else {
    RETURN_IF_ERROR(ReadSector(bno, out));
  }
  reads_->Inc();
  return OkStatus();
}

Status FileDisk::Write(BlockNo bno, std::span<const uint8_t> data) {
  RETURN_IF_ERROR(CheckAccess(bno, data.size()));
  latency_.Charge();
  {
    std::shared_lock<std::shared_mutex> lk(io_mu_);
    if (crashed_.load(std::memory_order_acquire)) {
      return UnavailableError("disk lost power");
    }
    ASSIGN_OR_RETURN(Journal::ReplayedRecord rec, journal_->Append(bno, data));
    std::lock_guard<std::mutex> ilock(index_mu_);
    journal_index_[bno] = JournalEntry{rec.lsn, rec.payload_offset, rec.payload_crc};
  }
  writes_->Inc();
  // The write is durable and acknowledged; fold the journal down if it has grown large.
  // try_to_lock: if a checkpoint is already running, this journal growth is its problem.
  if (journal_->tail_bytes() > options_.checkpoint_threshold_bytes) {
    std::unique_lock<std::shared_mutex> lk(io_mu_, std::try_to_lock);
    if (lk.owns_lock()) {
      (void)CheckpointLocked();
    }
  }
  return OkStatus();
}

bool FileDisk::MaybeCrash(CrashPoint point, uint64_t block_keep) {
  if (injector_ == nullptr || !injector_->Fire(point)) {
    return false;
  }
  block_file_->PowerCut(block_keep);
  journal_file_->PowerCut(0);
  journal_->Kill();
  crashed_.store(true, std::memory_order_release);
  return true;
}

Status FileDisk::Checkpoint() {
  std::unique_lock<std::shared_mutex> lk(io_mu_);
  return CheckpointLocked();
}

Status FileDisk::CheckpointLocked() {
  if (crashed_.load(std::memory_order_acquire)) {
    return UnavailableError("disk lost power");
  }
  std::vector<std::pair<BlockNo, JournalEntry>> items;
  {
    std::lock_guard<std::mutex> ilock(index_mu_);
    items.assign(journal_index_.begin(), journal_index_.end());
  }
  if (items.empty()) {
    return OkStatus();
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  if (MaybeCrash(CrashPoint::kBeforeCheckpointApply, 0)) {
    return UnavailableError("simulated power failure before checkpoint apply");
  }

  const uint64_t sector_size = kSectorHeaderBytes + geometry_.block_size;
  std::vector<uint8_t> sector(sector_size);
  uint64_t max_lsn = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const auto& [bno, entry] = items[i];
    std::span<uint8_t> payload(sector.data() + kSectorHeaderBytes, geometry_.block_size);
    RETURN_IF_ERROR(journal_file_->ReadAt(entry.payload_offset, payload));
    if (Crc32c(payload.data(), payload.size()) != entry.payload_crc) {
      return CorruptError("journal copy CRC mismatch during checkpoint");
    }
    StoreU32(sector.data(), kSectorMagic);
    StoreU32(sector.data() + 4, bno);
    StoreU64(sector.data() + 8, epoch_);
    StoreU64(sector.data() + 16, entry.lsn);
    StoreU32(sector.data() + 24, SectorCrc(payload, bno, epoch_, entry.lsn));
    StoreU32(sector.data() + 28, 0);
    RETURN_IF_ERROR(block_file_->WriteAt(SectorOffset(bno), sector));
    max_lsn = std::max(max_lsn, entry.lsn);
    // Tear the most recent sector in half: the classic mid-checkpoint power cut.
    if (i + 1 == (items.size() + 1) / 2 &&
        MaybeCrash(CrashPoint::kMidCheckpointApply,
                   block_file_->pending_bytes() - sector_size / 2)) {
      return UnavailableError("simulated power failure mid-checkpoint");
    }
    // Apply in slices: the block file stages every unsynced sector in memory, and a
    // threshold's worth from each disk at once is a needless peak. Syncing a slice early is
    // always safe — the journal still holds every record until the superblock moves.
    if ((i + 1) % kCheckpointSliceSectors == 0) {
      RETURN_IF_ERROR(block_file_->Sync());
    }
  }
  RETURN_IF_ERROR(block_file_->Sync());
  if (MaybeCrash(CrashPoint::kAfterCheckpointApply, 0)) {
    return UnavailableError("simulated power failure before superblock update");
  }

  checkpoint_lsn_ = max_lsn;
  ++superblock_seqno_;
  RETURN_IF_ERROR(WriteSuperblock());
  if (MaybeCrash(CrashPoint::kAfterSuperblockWrite, 0)) {
    return UnavailableError("simulated power failure before superblock sync");
  }
  RETURN_IF_ERROR(block_file_->Sync());
  if (MaybeCrash(CrashPoint::kBeforeJournalTruncate, 0)) {
    return UnavailableError("simulated power failure before journal truncate");
  }
  RETURN_IF_ERROR(journal_->Reset());
  {
    std::lock_guard<std::mutex> ilock(index_mu_);
    for (const auto& [bno, entry] : items) {
      auto it = journal_index_.find(bno);
      if (it != journal_index_.end() && it->second.lsn == entry.lsn) {
        journal_index_.erase(it);
      }
    }
  }
  checkpoints_->Inc();
  checkpoint_blocks_->Inc(items.size());
#if defined(__GLIBC__)
  // The apply's staged sectors were allocated and freed on whichever writer thread crossed
  // the threshold; glibc keeps such memory in that thread's arena. Hand it back, or every
  // thread that ever checkpointed keeps its share resident.
  malloc_trim(0);
#endif
  return OkStatus();
}

Status FileDisk::Close() {
  if (closed_) {
    return OkStatus();
  }
  closed_ = true;
  Status st = OkStatus();
  if (!crashed_.load(std::memory_order_acquire)) {
    st = Checkpoint();
  }
  if (journal_ != nullptr) {
    journal_->Stop();
  }
  return st;
}

void FileDisk::CorruptBlock(BlockNo bno) {
  std::unique_lock<std::shared_mutex> lk(io_mu_);
  if (crashed_.load(std::memory_order_acquire) || bno >= geometry_.num_blocks) {
    return;
  }
  uint64_t offset = 0;
  StableFile* file = nullptr;
  {
    std::lock_guard<std::mutex> ilock(index_mu_);
    auto it = journal_index_.find(bno);
    if (it != journal_index_.end()) {
      file = journal_file_.get();
      offset = it->second.payload_offset;
    } else {
      file = block_file_.get();
      offset = SectorOffset(bno) + kSectorHeaderBytes;
    }
  }
  uint8_t byte = 0;
  if (!file->ReadAt(offset, std::span<uint8_t>(&byte, 1)).ok()) {
    return;
  }
  byte ^= 0xff;
  (void)file->RawWriteAt(offset, std::span<const uint8_t>(&byte, 1));
}

}  // namespace afs
