#include "lib/workloads.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "lib/payload.h"
#include "lib/stats.h"
#include "src/client/transaction.h"
#include "src/core/fsck.h"
#include "src/obs/span.h"
#include "src/shard/shard_fsck.h"

namespace perfbench {

using afs::Capability;
using afs::FileClient;
using afs::PagePath;
using afs::Status;

void Checker::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok_.exchange(false)) {
    first_ = what;
  }
}

std::string Checker::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

void Samples::AddTxn(uint64_t start_ns) {
  const uint64_t end = NowNs();
  txn_ns.push_back(end - start_ns);
  txn_end_ns.push_back(end);
}

void Samples::AddRead(uint64_t start_ns) {
  const uint64_t end = NowNs();
  read_ns.push_back(end - start_ns);
  read_end_ns.push_back(end);
}

void Samples::Merge(const Samples& o) {
  auto append = [](std::vector<uint64_t>* to, const std::vector<uint64_t>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&txn_ns, o.txn_ns);
  append(&txn_end_ns, o.txn_end_ns);
  append(&read_ns, o.read_ns);
  append(&read_end_ns, o.read_end_ns);
  append(&create_version_ns, o.create_version_ns);
  append(&write_page_ns, o.write_page_ns);
  append(&commit_ns, o.commit_ns);
  append(&read_page_ns, o.read_page_ns);
  append(&cross_commit_ns, o.cross_commit_ns);
  ops += o.ops;
  txns += o.txns;
  attempts += o.attempts;
  failed += o.failed;
  bytes_committed += o.bytes_committed;
}

// ---------------------------------------------------------------------------
// Shared machinery

Status Workload::Populate(Deployment* d) {
  committed_.store(0);
  const uint32_t num_files = d->num_shards() * files_per_shard_;
  files_.assign(num_files, FileSpec{});
  expected_ = std::make_unique<std::atomic<uint64_t>[]>(num_files * pages_per_file_);
  // Files are independent, so a few threads fill them (their block writes then share
  // journal fsyncs on durable stacks).
  std::atomic<uint32_t> next{0};
  std::mutex mu;
  Status first_error = afs::OkStatus();
  auto fill = [&] {
    for (uint32_t i = next++; i < num_files; i = next++) {
      Status st = PopulateFile(d->file_server(i / files_per_shard_), i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        first_error = st;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::clamp(std::thread::hardware_concurrency(), 1u, 4u); ++t) {
    threads.emplace_back(fill);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return first_error;
}

Status Workload::PopulateFile(afs::FileServer* fs, uint32_t index) {
  FileSpec& spec = files_[index];
  spec.index = index;
  spec.shard = index / files_per_shard_;
  ASSIGN_OR_RETURN(spec.cap, fs->CreateFile());
  ASSIGN_OR_RETURN(Capability v, fs->CreateVersion(spec.cap, afs::kNullPort, false));
  for (uint32_t p = 0; p < pages_per_file_; ++p) {
    RETURN_IF_ERROR(fs->InsertRef(v, PagePath::Root(), p));
    RETURN_IF_ERROR(
        fs->WritePage(v, PagePath({p}), EncodePayload({index, p, 0, 0}, page_bytes_)));
  }
  return fs->Commit(v).status();
}

void Workload::Connect(Deployment* d, ClientSlot* c) const {
  c->transport = d->Connect(1000 + c->id);
  if (d->num_shards() > 1) {
    auto router = afs::ShardRouter::Make(d->shard_map(), c->transport.get());
    if (router.ok()) {
      c->router = std::move(router).value();
    }
  } else {
    c->client = std::make_unique<FileClient>(c->transport.get(),
                                             std::vector<afs::Port>{d->file_server(0)->port()});
  }
}

FileClient* Workload::ClientFor(ClientSlot* c, const FileSpec& file) {
  if (c->client != nullptr) {
    return c->client.get();
  }
  auto client = c->router->ClientFor(file.shard);
  return client.ok() ? client->get() : nullptr;  // the router keeps the client alive
}

std::vector<uint8_t> Workload::Stamp(ClientSlot* c, const FileSpec& file, uint32_t page,
                                     uint64_t seq) const {
  return EncodePayload({file.index, page, c->id + 1, seq}, page_bytes_);
}

std::vector<uint32_t> Workload::PickPages(afs::Rng* rng, uint32_t n) const {
  std::vector<uint32_t> all(pages_per_file_);
  for (uint32_t i = 0; i < pages_per_file_; ++i) {
    all[i] = i;
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::swap(all[i], all[i + rng->NextBelow(pages_per_file_ - i)]);
  }
  all.resize(n);
  return all;
}

bool Workload::ReadStamp(FileClient* client, const Capability& version, const FileSpec& file,
                         uint32_t page, uint64_t* seq, std::vector<uint64_t>* latency) {
  const uint64_t start = NowNs();
  auto read = client->ReadPage(version, PagePath({page}));
  if (latency != nullptr) {
    latency->push_back(NowNs() - start);
  }
  if (!read.ok()) {
    return false;
  }
  PageStamp stamp;
  std::string error;
  if (!DecodePayload(read->data, file.index, page, &stamp, &error)) {
    checker_.Fail("file " + std::to_string(file.index) + " page " + std::to_string(page) +
                  ": " + error);
  }
  *seq = stamp.seq;
  return true;
}

bool Workload::SnapshotRead(ClientSlot* c, const FileSpec& file,
                            const std::vector<uint32_t>& pages, bool exact) {
  afs::obs::ScopedSpan span("pb.read", afs::obs::SpanKind::kClient);
  FileClient* client = ClientFor(c, file);
  const uint64_t start = NowNs();
  auto current = client != nullptr ? client->GetCurrentVersion(file.cap)
                                   : afs::Result<Capability>(afs::UnavailableError("no route"));
  if (!current.ok()) {
    return false;
  }
  for (uint32_t page : pages) {
    uint64_t seq = 0;
    if (!ReadStamp(client, *current, file, page, &seq, &c->samples.read_page_ns)) {
      return false;
    }
    if (exact && seq != expected(file, page).load()) {
      checker_.Fail("file " + std::to_string(file.index) + " page " + std::to_string(page) +
                    " reads seq " + std::to_string(seq) + ", the last acknowledged write was " +
                    std::to_string(expected(file, page).load()));
    }
  }
  c->samples.AddRead(start);
  return true;
}

void Workload::ReadBack(ClientSlot* c, int passes, uint32_t clients) {
  for (int pass = 0; pass < passes; ++pass) {
    uint32_t unit = 0;
    for (const FileSpec& file : files_) {
      for (uint32_t first = 0; first < pages_per_file_; first += 4) {
        if (unit++ % clients != c->id) {
          continue;
        }
        std::vector<uint32_t> pages;
        for (uint32_t p = first; p < std::min(first + 4, pages_per_file_); ++p) {
          pages.push_back(p);
        }
        c->samples.ops += 1;
        if (!SnapshotRead(c, file, pages, /*exact=*/true)) {
          c->samples.failed += 1;
        }
      }
    }
  }
}

namespace {

afs::TransactionOptions TxnOptions(ClientSlot* c) {
  afs::TransactionOptions options;
  options.backoff_seed = c->rng.NextU64();
  return options;
}

// ---------------------------------------------------------------------------
// update-8p

class Update8p : public Workload {
 public:
  Update8p() : Workload(/*files=*/64, /*pages=*/16, /*page_bytes=*/2048) {}

  int threads() const override { return 1; }
  DeploymentOptions deployment() const override {
    DeploymentOptions o;
    o.durable = true;
    // Device sizes below leave several times the blocks a 15 s run was measured to use
    // (no collector runs while the clients are measured). This one: ~6k.
    o.num_blocks = 1 << 15;
    return o;
  }
  uint64_t warmup_ops() const override { return 16; }

  void Op(ClientSlot* c) override {
    const FileSpec& file = files_[c->rng.NextBelow(files_.size())];
    const std::vector<uint32_t> pages = PickPages(&c->rng, 8);
    const uint64_t seq = c->next_seq++;
    Samples& s = c->samples;
    afs::obs::ScopedSpan span("pb.txn", afs::obs::SpanKind::kClient);
    const uint64_t start = NowNs();
    s.ops += 1;
    for (int attempt = 1; attempt <= 16; ++attempt) {
      uint64_t t = NowNs();
      auto version = c->client->CreateVersion(file.cap);
      s.create_version_ns.push_back(NowNs() - t);
      if (!version.ok()) {
        continue;
      }
      bool wrote = true;
      for (uint32_t page : pages) {
        std::vector<uint8_t> data = Stamp(c, file, page, seq);
        t = NowNs();
        wrote = c->client->WritePage(*version, PagePath({page}), data).ok();
        s.write_page_ns.push_back(NowNs() - t);
        if (!wrote) {
          break;
        }
      }
      if (wrote) {
        t = NowNs();
        auto committed = c->client->Commit(*version);
        s.commit_ns.push_back(NowNs() - t);
        if (committed.ok()) {
          for (uint32_t page : pages) {
            expected(file, page).store(seq);
          }
          s.AddTxn(start);
          s.txns += 1;
          s.attempts += attempt;
          s.bytes_committed += pages.size() * page_bytes_;
          return;
        }
      } else {
        (void)c->client->Abort(*version);
      }
    }
    s.failed += 1;
  }
};

// ---------------------------------------------------------------------------
// read-mostly

class ReadMostly : public Workload {
 public:
  ReadMostly() : Workload(/*files=*/128, /*pages=*/64, /*page_bytes=*/1024) {
    // Zipfian CDF over file ranks.
    double sum = 0;
    for (uint32_t i = 0; i < 128; ++i) {
      sum += 1.0 / std::pow(i + 1.0, 0.99);
      cdf_.push_back(sum);
    }
    for (double& x : cdf_) {
      x /= sum;
    }
  }

  int threads() const override { return 2; }
  DeploymentOptions deployment() const override {
    DeploymentOptions o;
    o.num_blocks = 3 << 15;  // ~36k used
    return o;
  }
  uint64_t warmup_ops() const override { return 1500; }
  bool reads_in_mix() const override { return true; }

  void Op(ClientSlot* c) override {
    // Rank r maps to file (r * 37) mod 128, so the hot files are spread over the id space.
    const double u = c->rng.NextDouble();
    const uint32_t rank = static_cast<uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const FileSpec& file = files_[(std::min<uint32_t>(rank, 127) * 37) % 128];
    const std::vector<uint32_t> pages = PickPages(&c->rng, 4);
    Samples& s = c->samples;
    s.ops += 1;
    if (c->rng.NextDouble() < 0.9) {
      if (!SnapshotRead(c, file, pages, /*exact=*/false)) {
        s.failed += 1;
      }
      return;
    }
    // Read 4 pages, increment the first.
    afs::obs::ScopedSpan span("pb.txn", afs::obs::SpanKind::kClient);
    const uint64_t start = NowNs();
    auto stats = afs::RunTransaction(
        c->client.get(), file.cap,
        [&](FileClient& client, const Capability& v) -> Status {
          uint64_t first_seq = 0;
          for (uint32_t page : pages) {
            uint64_t seq = 0;
            if (!ReadStamp(&client, v, file, page, &seq)) {
              return afs::UnavailableError("read failed");
            }
            if (page == pages[0]) {
              first_seq = seq;
            }
          }
          return client.WritePage(v, PagePath({pages[0]}),
                                  Stamp(c, file, pages[0], first_seq + 1));
        },
        TxnOptions(c));
    if (!stats.ok()) {
      s.failed += 1;
      return;
    }
    expected(file, pages[0]).fetch_add(1);
    s.AddTxn(start);
    s.txns += 1;
    s.attempts += stats->attempts;
    s.bytes_committed += page_bytes_;
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// contended

class Contended : public Workload {
 public:
  Contended() : Workload(/*files=*/2, /*pages=*/8, /*page_bytes=*/2048) {}

  int threads() const override { return 4; }
  DeploymentOptions deployment() const override {
    DeploymentOptions o;
    o.num_blocks = 1 << 17;  // ~65k used
    return o;
  }
  uint64_t warmup_ops() const override { return 50; }

  void Op(ClientSlot* c) override {
    const FileSpec& file = files_[c->rng.NextBelow(files_.size())];
    const std::vector<uint32_t> pages = PickPages(&c->rng, 2);
    Samples& s = c->samples;
    s.ops += 1;
    afs::obs::ScopedSpan span("pb.txn", afs::obs::SpanKind::kClient);
    const uint64_t start = NowNs();
    auto stats = afs::RunTransaction(
        c->client.get(), file.cap,
        [&](FileClient& client, const Capability& v) -> Status {
          uint64_t seqs[2] = {0, 0};
          for (int i = 0; i < 2; ++i) {
            if (!ReadStamp(&client, v, file, pages[i], &seqs[i])) {
              return afs::UnavailableError("read failed");
            }
          }
          for (int i = 0; i < 2; ++i) {
            RETURN_IF_ERROR(
                client.WritePage(v, PagePath({pages[i]}), Stamp(c, file, pages[i], seqs[i] + 1)));
          }
          return afs::OkStatus();
        },
        TxnOptions(c));
    if (!stats.ok()) {
      s.failed += 1;
      return;
    }
    for (uint32_t page : pages) {
      expected(file, page).fetch_add(1);
    }
    committed_.fetch_add(1);
    s.AddTxn(start);
    s.txns += 1;
    s.attempts += stats->attempts;
    s.bytes_committed += 2 * page_bytes_;
  }

  void CheckFinal(Deployment* d) override {
    // Every committed transaction incremented two counters: the pages' sum must be exactly
    // twice the commits (the read-back already matched each page to its own count).
    uint64_t sum = 0;
    for (const FileSpec& file : files_) {
      for (uint32_t p = 0; p < pages_per_file_; ++p) {
        sum += expected(file, p).load();
      }
    }
    if (sum != 2 * committed_.load()) {
      checker_.Fail("counter sum " + std::to_string(sum) + " != 2 x " +
                    std::to_string(committed_.load()) + " committed increments");
    }
    afs::FsckReport report = afs::RunFsck(d->file_server(0));
    if (!report.clean) {
      checker_.Fail("fsck: " + report.ToString());
    }
  }
};

// ---------------------------------------------------------------------------
// cross-shard

class CrossShard : public Workload {
 public:
  CrossShard() : Workload(/*files=*/16, /*pages=*/4, /*page_bytes=*/1024) {}

  int threads() const override { return 2; }
  DeploymentOptions deployment() const override {
    DeploymentOptions o;
    o.num_shards = 2;
    o.num_blocks = 3 << 14;  // ~20k used per shard
    return o;
  }
  uint64_t warmup_ops() const override { return 50; }

  void Op(ClientSlot* c) override {
    const FileSpec* file[2] = {&files_[c->rng.NextBelow(files_per_shard_)],
                               &files_[files_per_shard_ + c->rng.NextBelow(files_per_shard_)]};
    const uint32_t page[2] = {static_cast<uint32_t>(c->rng.NextBelow(pages_per_file_)),
                              static_cast<uint32_t>(c->rng.NextBelow(pages_per_file_))};
    Samples& s = c->samples;
    s.ops += 1;
    afs::obs::ScopedSpan span("pb.txn", afs::obs::SpanKind::kClient);
    const uint64_t start = NowNs();
    for (int attempt = 1; attempt <= 64; ++attempt) {
      afs::CrossTransaction xt(c->router.get());
      Status step = afs::OkStatus();
      for (int i = 0; i < 2 && step.ok(); ++i) {
        auto version = xt.CreateVersion(file[i]->cap);
        FileClient* client = ClientFor(c, *file[i]);
        uint64_t seq = 0;
        if (!version.ok()) {
          step = version.status();
        } else if (!ReadStamp(client, *version, *file[i], page[i], &seq)) {
          step = afs::UnavailableError("read failed");
        } else {
          step = client->WritePage(*version, PagePath({page[i]}),
                                   Stamp(c, *file[i], page[i], seq + 1));
        }
      }
      if (step.ok()) {
        const uint64_t t = NowNs();
        auto committed = xt.Commit();
        s.cross_commit_ns.push_back(NowNs() - t);
        if (committed.ok()) {
          for (int i = 0; i < 2; ++i) {
            expected(*file[i], page[i]).fetch_add(1);
          }
          committed_.fetch_add(1);
          s.AddTxn(start);
          s.txns += 1;
          s.attempts += attempt;
          s.bytes_committed += 2 * page_bytes_;
          return;
        }
        step = committed.status();
      }
      (void)xt.Abort();
      if (step.code() != afs::ErrorCode::kConflict && step.code() != afs::ErrorCode::kLocked) {
        break;
      }
      // Jittered exponential backoff, as RunTransaction does between redos.
      const uint64_t wait = 100ull << std::min(attempt - 1, 8);
      std::this_thread::sleep_for(std::chrono::microseconds(c->rng.NextInRange(wait / 2, wait)));
    }
    s.failed += 1;
  }

  void CheckFinal(Deployment* d) override {
    // Atomicity: each shard's counters sum to the number of committed cross transactions.
    for (uint32_t shard = 0; shard < 2; ++shard) {
      uint64_t sum = 0;
      for (uint32_t f = 0; f < files_per_shard_; ++f) {
        for (uint32_t p = 0; p < pages_per_file_; ++p) {
          sum += expected(files_[shard * files_per_shard_ + f], p).load();
        }
      }
      if (sum != committed_.load()) {
        checker_.Fail("shard " + std::to_string(shard) + " counters sum to " +
                      std::to_string(sum) + ", " + std::to_string(committed_.load()) +
                      " cross transactions committed");
      }
    }
    std::vector<afs::FileServer*> servers = d->file_servers();
    afs::ShardFsckReport report = afs::RunShardFsck(servers, d->decision_log());
    if (!report.clean || report.in_doubt != 0) {
      checker_.Fail("shard fsck: " + report.ToString());
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "update-8p") {
    return std::make_unique<Update8p>();
  }
  if (name == "read-mostly") {
    return std::make_unique<ReadMostly>();
  }
  if (name == "contended") {
    return std::make_unique<Contended>();
  }
  if (name == "cross-shard") {
    return std::make_unique<CrossShard>();
  }
  return nullptr;
}

}  // namespace perfbench
