#include "src/store/journal.h"

#include <cstring>

#include "src/base/crc32.h"
#include "src/obs/span.h"

namespace afs {
namespace {

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

}  // namespace

Journal::Journal(StableFile* file, JournalOptions options, obs::MetricRegistry* metrics,
                 CrashInjector<CrashPoint>* injector)
    : file_(file),
      options_(options),
      injector_(injector),
      append_ctr_(metrics->counter("journal.append")),
      fsync_ctr_(metrics->counter("journal.fsync")),
      queue_depth_(metrics->gauge("journal.queue_depth")),
      flush_batch_hist_(metrics->histogram("journal.flush.batch_size")),
      batch_bytes_hist_(metrics->histogram("journal.batch_bytes")),
      commit_ns_hist_(metrics->histogram("journal.commit_ns")) {}

Journal::~Journal() { Stop(); }

Result<std::vector<Journal::ReplayedRecord>> Journal::Recover(uint32_t max_payload_len,
                                                              uint64_t* torn_bytes_out) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t size = file_->size();
  std::vector<ReplayedRecord> records;
  uint64_t offset = 0;
  uint64_t last_lsn = 0;
  uint8_t header[kJournalRecordHeaderBytes];
  while (offset + kJournalRecordHeaderBytes <= size) {
    RETURN_IF_ERROR(file_->ReadAt(offset, header));
    const uint32_t magic = LoadU32(header);
    const uint32_t bno = LoadU32(header + 4);
    const uint64_t lsn = LoadU64(header + 8);
    const uint32_t len = LoadU32(header + 16);
    const uint32_t payload_crc = LoadU32(header + 20);
    const uint32_t header_crc = LoadU32(header + 24);
    if (magic != kJournalMagic || Crc32c(header, 24) != header_crc || len > max_payload_len ||
        lsn <= last_lsn || offset + kJournalRecordHeaderBytes + len > size) {
      break;  // torn or corrupt tail: nothing past this point is trustworthy
    }
    std::vector<uint8_t> payload(len);
    RETURN_IF_ERROR(file_->ReadAt(offset + kJournalRecordHeaderBytes, payload));
    if (Crc32c(payload.data(), payload.size()) != payload_crc) {
      break;
    }
    records.push_back(ReplayedRecord{lsn, bno, offset + kJournalRecordHeaderBytes, len,
                                     payload_crc});
    last_lsn = lsn;
    offset += kJournalRecordHeaderBytes + len;
  }
  const uint64_t torn = size - offset;
  if (torn > 0) {
    RETURN_IF_ERROR(file_->Truncate(offset));
  }
  if (torn_bytes_out != nullptr) {
    *torn_bytes_out = torn;
  }
  next_lsn_ = last_lsn + 1;
  staged_lsn_ = durable_lsn_ = last_lsn;
  end_offset_ = durable_end_ = offset;
  return records;
}

void Journal::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return;
  }
  started_ = true;
  stop_ = false;
  flusher_ = std::thread([this] { FlusherLoop(); });
}

bool Journal::MaybeCrashLocked(CrashPoint point, uint64_t keep_bytes) {
  if (injector_ == nullptr || !injector_->Fire(point)) {
    return false;
  }
  file_->PowerCut(keep_bytes);
  dead_ = true;
  flusher_cv_.notify_all();
  waiters_cv_.notify_all();
  if (on_power_cut_) {
    on_power_cut_();
  }
  return true;
}

Result<Journal::ReplayedRecord> Journal::Append(BlockNo bno,
                                                std::span<const uint8_t> payload) {
  const auto start = std::chrono::steady_clock::now();
  obs::ScopedSpan append_span("journal.append", obs::SpanKind::kStore, bno, payload.size());
  std::unique_lock<std::mutex> lk(mu_);
  if (dead_) {
    return UnavailableError("journal device lost power");
  }
  const uint64_t lsn = next_lsn_++;
  const uint64_t record_offset = end_offset_;
  std::vector<uint8_t> record(kJournalRecordHeaderBytes + payload.size());
  StoreU32(record.data(), kJournalMagic);
  StoreU32(record.data() + 4, bno);
  StoreU64(record.data() + 8, lsn);
  StoreU32(record.data() + 16, static_cast<uint32_t>(payload.size()));
  const uint32_t payload_crc = Crc32c(payload.data(), payload.size());
  StoreU32(record.data() + 20, payload_crc);
  StoreU32(record.data() + 24, Crc32c(record.data(), 24));
  std::memcpy(record.data() + kJournalRecordHeaderBytes, payload.data(), payload.size());
  RETURN_IF_ERROR(file_->WriteAt(record_offset, record));
  end_offset_ += record.size();
  staged_lsn_ = lsn;
  append_ctr_->Inc();
  // Published under mu_, like the LSNs it derives from: how many records are waiting for
  // the flusher right now (its max is the deepest group commit ever coalesced).
  queue_depth_->Set(static_cast<int64_t>(staged_lsn_ - durable_lsn_));

  // A power cut here tears the record in half...
  if (MaybeCrashLocked(CrashPoint::kMidJournalAppend,
                       file_->pending_bytes() - (record.size() + 1) / 2)) {
    return UnavailableError("simulated power failure mid-append");
  }
  // ...and here loses the whole un-fsynced tail.
  if (MaybeCrashLocked(CrashPoint::kAfterJournalAppend, 0)) {
    return UnavailableError("simulated power failure before fsync");
  }

  flusher_cv_.notify_one();
  waiters_cv_.wait(lk, [&] { return dead_ || stop_ || durable_lsn_ >= lsn; });
  if (durable_lsn_ < lsn) {
    return UnavailableError("power failed before the write was durable");
  }
  commit_ns_hist_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count()));
  return ReplayedRecord{lsn, bno, record_offset + kJournalRecordHeaderBytes,
                        static_cast<uint32_t>(payload.size()), payload_crc};
}

void Journal::FlusherLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    flusher_cv_.wait(lk, [&] { return stop_ || dead_ || staged_lsn_ > durable_lsn_; });
    if (stop_ || dead_) {
      return;
    }
    if (options_.group_commit_window.count() > 0) {
      // Linger so concurrent writers can join this batch; one fsync covers them all.
      lk.unlock();
      std::this_thread::sleep_for(options_.group_commit_window);
      lk.lock();
      if (stop_ || dead_) {
        return;
      }
    }
    const uint64_t target_lsn = staged_lsn_;
    const uint64_t target_end = end_offset_;
    const uint64_t batch_records = target_lsn - durable_lsn_;
    // The bytes had already left for the platter; only the acknowledgements are lost.
    if (MaybeCrashLocked(CrashPoint::kBeforeJournalFsync, file_->pending_bytes())) {
      return;
    }
    lk.unlock();
    Status st;
    {
      obs::ScopedSpan fsync_span("journal.fsync", obs::SpanKind::kStore, batch_records,
                                 target_end - durable_end_);
      st = file_->Sync();
    }
    lk.lock();
    if (!st.ok()) {
      dead_ = true;
      waiters_cv_.notify_all();
      return;
    }
    if (MaybeCrashLocked(CrashPoint::kAfterJournalFsync, 0)) {
      return;  // batch durable, but no writer ever hears the acknowledgement
    }
    fsync_ctr_->Inc();
    flush_batch_hist_->Record(batch_records);
    batch_bytes_hist_->Record(target_end - durable_end_);
    durable_lsn_ = target_lsn;
    durable_end_ = target_end;
    queue_depth_->Set(static_cast<int64_t>(staged_lsn_ - durable_lsn_));
    waiters_cv_.notify_all();
  }
}

Status Journal::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) {
    return UnavailableError("journal device lost power");
  }
  RETURN_IF_ERROR(file_->Truncate(0));
  end_offset_ = durable_end_ = 0;
  return OkStatus();
}

void Journal::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    flusher_cv_.notify_all();
    waiters_cv_.notify_all();
  }
  if (flusher_.joinable()) {
    flusher_.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
}

void Journal::Kill() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
  flusher_cv_.notify_all();
  waiters_cv_.notify_all();
}

bool Journal::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

uint64_t Journal::tail_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_offset_;
}

}  // namespace afs
