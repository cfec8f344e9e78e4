// The four workloads. Each is a closed loop: a client thread sends its next request only
// after the previous reply, as every FileClient caller does. A workload builds its files,
// runs one operation per Op() call, and knows the exact value every page must hold at the
// end, which the run checks by reading every page back after recovery.
//
//   update-8p    1 client, durable FileDisk pair. Each transaction writes 8 of the 16
//                2 KB pages of one of 64 files, chosen uniformly, then commits.
//   read-mostly  2 clients, MemDisk. 90% committed-snapshot reads of 4 pages, 10%
//                transactions that read 4 pages and increment 1; files zipfian
//                (theta 0.99) over 128 files x 64 pages x 1 KB, twice the committed cache.
//   contended    4 clients, MemDisk. RunTransaction reads 2 of the 8 2 KB pages of one of
//                2 hot files and increments both.
//   cross-shard  2 clients, two MemDisk shards behind one TcpServer. A CrossTransaction
//                increments one page of one file on each shard (16 files per shard) and
//                commits through the two-phase protocol.

#ifndef PERFBENCH_LIB_WORKLOADS_H_
#define PERFBENCH_LIB_WORKLOADS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lib/deployment.h"
#include "src/base/rng.h"
#include "src/client/file_client.h"

namespace perfbench {

// First wrong result seen by any thread; a run with one is not correct.
class Checker {
 public:
  void Fail(const std::string& what);
  bool ok() const { return ok_.load(); }
  std::string first_error() const;

 private:
  std::atomic<bool> ok_{true};
  mutable std::mutex mu_;
  std::string first_;
};

// What one client observed during one measured window.
struct Samples {
  std::vector<uint64_t> txn_ns;            // one logical transaction, redos included
  std::vector<uint64_t> txn_end_ns;        // when each of them completed
  std::vector<uint64_t> read_ns;           // one committed-snapshot read
  std::vector<uint64_t> read_end_ns;
  std::vector<uint64_t> create_version_ns;
  std::vector<uint64_t> write_page_ns;
  std::vector<uint64_t> commit_ns;
  std::vector<uint64_t> read_page_ns;
  std::vector<uint64_t> cross_commit_ns;  // 2-participant CrossTransaction::Commit
  uint64_t ops = 0;
  uint64_t txns = 0;       // committed transactions
  uint64_t attempts = 0;   // transaction attempts, committed ones only
  uint64_t failed = 0;     // operations that failed after all retries
  uint64_t bytes_committed = 0;

  // Record a transaction or read that started at `start_ns` and completed now.
  void AddTxn(uint64_t start_ns);
  void AddRead(uint64_t start_ns);
  void Merge(const Samples& other);
};

// One simulated client process: its own TCP transport and stub.
struct ClientSlot {
  uint32_t id = 0;
  afs::Rng rng{1};
  std::unique_ptr<afs::net::TcpTransport> transport;
  std::unique_ptr<afs::FileClient> client;   // unsharded deployments
  std::unique_ptr<afs::ShardRouter> router;  // sharded deployments
  uint64_t next_seq = 1;
  Samples samples;
};

struct FileSpec {
  afs::Capability cap;
  uint32_t index = 0;  // position in files(); the "file" field of page stamps
  uint32_t shard = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int threads() const = 0;
  virtual DeploymentOptions deployment() const = 0;
  // Operations each client runs at the end of set-up, untimed, to fill caches.
  virtual uint64_t warmup_ops() const = 0;
  // True if committed-snapshot reads are part of the timed mix (read latency is then
  // measured there; otherwise on the read-back after recovery).
  virtual bool reads_in_mix() const { return false; }
  // One closed-loop operation on `c`.
  virtual void Op(ClientSlot* c) = 0;
  // Checks beyond the page read-back, on the recovered deployment.
  virtual void CheckFinal(Deployment*) {}

  // Create and fill the files (resets all expected state).
  afs::Status Populate(Deployment* d);
  // Give `c` a transport and stub on `d`.
  void Connect(Deployment* d, ClientSlot* c) const;
  // Read back `passes` times the share of the pages that client `c` of `clients` owns (4
  // pages per snapshot read), requiring each page to hold exactly its expected stamp.
  void ReadBack(ClientSlot* c, int passes, uint32_t clients);

  const std::vector<FileSpec>& files() const { return files_; }
  uint32_t pages_per_file() const { return pages_per_file_; }
  Checker& checker() { return checker_; }

 protected:
  Workload(uint32_t files_per_shard, uint32_t pages_per_file, size_t page_bytes)
      : files_per_shard_(files_per_shard), pages_per_file_(pages_per_file),
        page_bytes_(page_bytes) {}

  afs::Status PopulateFile(afs::FileServer* fs, uint32_t index);
  afs::FileClient* ClientFor(ClientSlot* c, const FileSpec& file);
  // GetCurrentVersion + one ReadPage per page, each verified; records read samples.
  // Returns false if an RPC failed.
  bool SnapshotRead(ClientSlot* c, const FileSpec& file, const std::vector<uint32_t>& pages,
                    bool exact);
  // Read one page of `version` and verify its stamp; false on RPC failure.
  bool ReadStamp(afs::FileClient* client, const afs::Capability& version, const FileSpec& file,
                 uint32_t page, uint64_t* seq, std::vector<uint64_t>* latency = nullptr);
  std::vector<uint8_t> Stamp(ClientSlot* c, const FileSpec& file, uint32_t page,
                             uint64_t seq) const;
  // `n` distinct pages of one file, in random order.
  std::vector<uint32_t> PickPages(afs::Rng* rng, uint32_t n) const;
  std::atomic<uint64_t>& expected(const FileSpec& file, uint32_t page) {
    return expected_[static_cast<size_t>(file.index) * pages_per_file_ + page];
  }

  const uint32_t files_per_shard_;
  const uint32_t pages_per_file_;
  const size_t page_bytes_;
  std::vector<FileSpec> files_;
  // Per page: the sequence number its last committed write stamped (every workload's
  // writes make it exact — blind single-writer writes store it, increments count it).
  std::unique_ptr<std::atomic<uint64_t>[]> expected_;
  std::atomic<uint64_t> committed_{0};  // transactions committed since Populate
  Checker checker_;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_WORKLOADS_H_
