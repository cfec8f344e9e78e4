// afs_perfbench: one run of one workload of the end-to-end benchmark.
//
//   afs_perfbench --workload <update-8p|read-mostly|contended|cross-shard> --seed <n>
//                 --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Untraced (--trace 0): set the deployment up three times (setup_s is the median), run the
// closed loop for --seconds, then collect garbage, recover the deployment from its devices
// (recover_s), read every page back and check it, and print the end-to-end metrics.
//
// Traced (--trace 1): set up once, run half of --seconds untraced (counts and timings) and
// half with span recording on (per-layer self times and the tracing overhead), then recover
// and check the same way, and print the per-layer metrics.
//
// The last line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
// A line starting with "# provenance" before it records host, build and store facts.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lib/deployment.h"
#include "lib/ledger.h"
#include "lib/stats.h"
#include "lib/workloads.h"
#include "src/block/protocol.h"
#include "src/core/gc.h"
#include "src/obs/span.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string FsTypeName(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%" PRIx64, static_cast<uint64_t>(st.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Us(double ns) { return ns / 1000.0; }

// Progress on stderr, so a run that stalls shows where.
void Stage(const char* what, int i = -1) {
  static const uint64_t start = NowNs();
  std::fprintf(stderr, "perfbench: +%.1fs %s", static_cast<double>(NowNs() - start) / 1e9, what);
  std::fprintf(stderr, i >= 0 ? " %d\n" : "\n", i);
}

// Counters read at the start and end of a measured window.
struct Counters {
  uint64_t client_calls = 0;
  uint64_t retransmits = 0;
  uint64_t inner_calls = 0;
  uint64_t coord_calls = 0;
  BlockStoreTotals store;
  DeviceTotals dev;
  JournalTotals journal;
  std::map<std::string, uint64_t> fs;   // file-server counters, summed over shards
  std::map<std::string, uint64_t> rpc;  // requests handled by block servers, by op
};

// Block-server opcodes (src/block/protocol.h) by ledger name. Requests a file server
// sends are "bs.*"; the ones a block server sends its companion are "companion.*".
const std::vector<std::pair<afs::BlockOp, std::string>>& BlockServerOps() {
  static const std::vector<std::pair<afs::BlockOp, std::string>> kOps = {
      {afs::BlockOp::kRead, "bs.read"},
      {afs::BlockOp::kReadMulti, "bs.read_multi"},
      {afs::BlockOp::kWrite, "bs.write"},
      {afs::BlockOp::kWriteMulti, "bs.write_multi"},
      {afs::BlockOp::kAllocWrite, "bs.alloc_write"},
      {afs::BlockOp::kAllocMulti, "bs.alloc_multi"},
      {afs::BlockOp::kAllocate, "bs.allocate"},
      {afs::BlockOp::kFree, "bs.free"},
      {afs::BlockOp::kFreeMulti, "bs.free_multi"},
      {afs::BlockOp::kLock, "bs.lock"},
      {afs::BlockOp::kUnlock, "bs.unlock"},
      {afs::BlockOp::kRecover, "bs.list"},
      {afs::BlockOp::kCompanionWrite, "companion.write"},
      {afs::BlockOp::kCompanionWriteMulti, "companion.write_multi"},
      {afs::BlockOp::kCompanionFree, "companion.free"},
      {afs::BlockOp::kCompanionRead, "companion.read"},
  };
  return kOps;
}

const char* const kFsCounters[] = {
    "commit.serialise_tests", "commit.sig_fast_path", "commit.index_hit", "commit.index_miss",
    "cache.hit",              "cache.miss",           "cache.eviction",   "shard.prepare_conflict",
};

Counters Snapshot(Deployment* d, const std::vector<std::unique_ptr<ClientSlot>>& slots) {
  Counters c;
  for (const auto& slot : slots) {
    c.client_calls += slot->transport->total_calls();
    c.retransmits += slot->transport->retransmits();
  }
  c.inner_calls = d->inner_calls();
  c.coord_calls = d->coordinator_calls();
  c.retransmits += d->inner_retransmits();
  c.store = d->store_totals();
  c.dev = d->device_totals();
  c.journal = d->journal_totals();
  for (afs::FileServer* fs : d->file_servers()) {
    afs::obs::MetricRegistry* m = fs->metrics();
    for (const char* name : kFsCounters) {
      c.fs[name] += m->counter(name)->value();
    }
    c.fs["commit.rpcs"] += fs->commit_rpcs_total();
    c.fs["commit.latency_ns.sum"] += m->histogram("commit.latency_ns")->sum_ns();
    c.fs["commit.latency_ns.count"] += m->histogram("commit.latency_ns")->count();
    c.fs["commit.group_size.sum"] += m->histogram("commit.group_size")->sum_ns();
    c.fs["commit.group_size.count"] += m->histogram("commit.group_size")->count();
  }
  for (afs::BlockServer* bs : d->block_servers()) {
    for (const auto& [op, name] : BlockServerOps()) {
      const std::string metric = "rpc.op." + std::to_string(static_cast<uint32_t>(op)) + ".count";
      c.rpc[name] += bs->metrics()->counter(metric)->value();
    }
  }
  return c;
}

// Rate and latency percentiles of one kind of operation in a measured window. The window
// is cut into five equal parts by completion time and each figure is the median of its
// five per-part values, so a host stall that hits one or two parts does not move it.
struct WindowStats {
  double per_s = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

WindowStats PartMedians(const std::vector<uint64_t>& latency_ns,
                        const std::vector<uint64_t>& end_ns, uint64_t start_ns,
                        double elapsed_s) {
  constexpr int kParts = 5;
  const double part_ns = elapsed_s * 1e9 / kParts;
  std::vector<std::vector<uint64_t>> parts(kParts);
  for (size_t i = 0; i < latency_ns.size(); ++i) {
    const double offset = static_cast<double>(end_ns[i] - start_ns);
    parts[std::min(kParts - 1, static_cast<int>(offset / part_ns))].push_back(latency_ns[i]);
  }
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::vector<uint64_t>& part : parts) {
    rates.push_back(static_cast<double>(part.size()) / (part_ns / 1e9));
    p50s.push_back(Percentile(&part, 0.50));
    p99s.push_back(Percentile(&part, 0.99));
  }
  return {Median(rates), Median(p50s), Median(p99s)};
}

// What happens after the measured window: recovery and the checked read-back.
struct AfterRun {
  double recover_s = 0;  // median of the recoveries
  // Medians over the timed read-back rounds of each round's read p50 / p99, in ns.
  double read_p50_ns = 0;
  double read_p99_ns = 0;
  size_t reads = 0;  // timed reads
  std::vector<uint64_t> read_page_ns;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

class Runner {
 public:
  Runner(Args args, std::unique_ptr<Workload> workload)
      : args_(std::move(args)), wl_(std::move(workload)) {}

  int Run();

 private:
  // Build the deployment, populate it, connect the clients and warm up. Returns seconds.
  double Setup();
  void TearDown();
  // One client slot (transport and stub) per workload thread.
  void ConnectClients();
  // Run `fn` on every client slot, one thread each, and wait for all of them.
  void ForEachClient(const std::function<void(ClientSlot*)>& fn);
  // Run every client's closed loop until `deadline` or `max_ops` operations each.
  void RunClients(uint64_t max_ops, uint64_t deadline_ns);
  Samples TakeSamples();
  // An untraced window of `seconds`; returns the samples, the counter delta endpoints, and
  // when the window started and how long it ran.
  Samples Window(double seconds, Counters* before, Counters* after, uint64_t* start_ns,
                 double* elapsed);
  // A window with span recording on, in epochs small enough for the span ring.
  Samples TracedWindow(double seconds, SpanLedger* ledger);
  // Collect garbage, recover from the devices five times, then read every page back with
  // the workload's client count and check it.
  AfterRun RecoverAndCheck();

  void EndToEnd(MetricList* out);
  void PerLayer(MetricList* out);

  const Args args_;
  std::unique_ptr<Workload> wl_;
  std::unique_ptr<Deployment> dep_;
  std::vector<std::unique_ptr<ClientSlot>> slots_;
  std::string store_dir_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool setup_ok_ = true;
};

double Runner::Setup() {
  const uint64_t start = NowNs();
  DeploymentOptions options = wl_->deployment();
  if (options.durable) {
    options.store_dir = store_dir_;
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }
  auto built = Deployment::Build(options);
  if (!built.ok()) {
    std::fprintf(stderr, "deployment: %s\n", built.status().ToString().c_str());
    setup_ok_ = false;
    return 0;
  }
  dep_ = std::move(built).value();
  if (afs::Status st = wl_->Populate(dep_.get()); !st.ok()) {
    std::fprintf(stderr, "populate: %s\n", st.ToString().c_str());
    setup_ok_ = false;
    return 0;
  }
  ConnectClients();
  RunClients(wl_->warmup_ops(), UINT64_MAX);
  TakeSamples();
  return static_cast<double>(NowNs() - start) / 1e9;
}

void Runner::TearDown() {
  slots_.clear();
  dep_.reset();
}

void Runner::ConnectClients() {
  slots_.clear();
  for (int i = 0; i < wl_->threads(); ++i) {
    auto slot = std::make_unique<ClientSlot>();
    slot->id = static_cast<uint32_t>(i);
    slot->rng = afs::Rng(args_.seed * 7919 + static_cast<uint64_t>(i) + 1);
    wl_->Connect(dep_.get(), slot.get());
    slots_.push_back(std::move(slot));
  }
}

void Runner::ForEachClient(const std::function<void(ClientSlot*)>& fn) {
  std::vector<std::thread> threads;
  for (auto& slot : slots_) {
    threads.emplace_back(fn, slot.get());
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

void Runner::RunClients(uint64_t max_ops, uint64_t deadline_ns) {
  ForEachClient([&](ClientSlot* s) {
    for (uint64_t n = 0; n < max_ops && NowNs() < deadline_ns; ++n) {
      wl_->Op(s);
    }
  });
}

Samples Runner::TakeSamples() {
  Samples all;
  for (auto& slot : slots_) {
    all.Merge(slot->samples);
    slot->samples = Samples();
  }
  return all;
}

Samples Runner::Window(double seconds, Counters* before, Counters* after, uint64_t* start_ns,
                       double* elapsed) {
  Stage("measure");
  dep_->TakeDeviceWriteLatencies();
  *before = Snapshot(dep_.get(), slots_);
  const uint64_t start = NowNs();
  RunClients(UINT64_MAX, start + static_cast<uint64_t>(seconds * 1e9));
  *start_ns = start;
  *elapsed = static_cast<double>(NowNs() - start) / 1e9;
  *after = Snapshot(dep_.get(), slots_);
  return TakeSamples();
}

Samples Runner::TracedWindow(double seconds, SpanLedger* ledger) {
  Stage("measure traced");
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  // Epochs: every client runs `ops_each` operations, then the ring is drained and cleared.
  // Each epoch is sized from the last so its spans fill about 60% of the ring; an epoch
  // that came near the ring's capacity may have lost spans and is not attributed.
  const double target = afs::obs::kSpanRingCapacity * 0.6;
  uint64_t ops_each = 1;
  afs::obs::ClearSpans();
  afs::obs::SetSpanEnabled(true);
  while (NowNs() < deadline) {
    RunClients(ops_each, deadline);
    std::vector<afs::obs::Span> spans = afs::obs::SnapshotSpans();
    afs::obs::ClearSpans();
    if (spans.size() < afs::obs::kSpanRingCapacity * 9 / 10) {
      ledger->Add(spans);
    }
    const double scale = target / static_cast<double>(std::max<size_t>(1, spans.size()));
    ops_each = std::max<uint64_t>(
        1, std::min(ops_each * 4, static_cast<uint64_t>(static_cast<double>(ops_each) * scale)));
  }
  afs::obs::SetSpanEnabled(false);
  afs::obs::ClearSpans();
  return TakeSamples();
}

AfterRun Runner::RecoverAndCheck() {
  AfterRun out;
  // No collector runs while the clients are measured, so chains only grow. Prune them
  // first: a chain longer than the file server's walk cap (4096 versions) cannot be
  // re-found once a restart has dropped the current-version hints.
  Stage("collect garbage");
  for (afs::FileServer* fs : dep_->file_servers()) {
    afs::GarbageCollector gc({fs});
    for (int cycle = 0; cycle < 8; ++cycle) {
      const uint64_t pruned = gc.stats().versions_pruned;
      if (afs::Status st = gc.RunCycle(); !st.ok()) {
        std::fprintf(stderr, "gc: %s\n", st.ToString().c_str());
        break;
      }
      if (gc.stats().versions_pruned == pruned) {
        break;
      }
    }
  }
  slots_.clear();  // every client transport is gone before the services close
  dep_->WaitIdle();
  // Recover five times and keep the median; the first also folds the window's journal.
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    Stage("recover", i);
    const uint64_t start = NowNs();
    const afs::Status st = dep_->Recover();
    times.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "recover: %s\n", st.ToString().c_str());
      setup_ok_ = false;
      return out;
    }
  }
  out.recover_s = Median(times);
  // The workload's clients split the read-back. One untimed pass checks every page and
  // warms the caches; then five timed rounds of at least 1000 reads each (ten beyond a
  // round's p99), whose medians damp a host hiccup that lands in one round.
  ConnectClients();
  const uint32_t clients = static_cast<uint32_t>(slots_.size());
  const size_t reads_per_pass = wl_->files().size() * ((wl_->pages_per_file() + 3) / 4);
  const int passes = static_cast<int>((1000 + reads_per_pass - 1) / reads_per_pass);
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (int round = 0; round <= 5; ++round) {
    Stage("read back", round);
    ForEachClient([&](ClientSlot* s) { wl_->ReadBack(s, round == 0 ? 1 : passes, clients); });
    Samples rs = TakeSamples();
    out.ops += rs.ops;
    out.failed += rs.failed;
    if (round > 0) {
      out.reads += rs.read_ns.size();
      p50s.push_back(Percentile(&rs.read_ns, 0.50));
      p99s.push_back(Percentile(&rs.read_ns, 0.99));
      out.read_page_ns.insert(out.read_page_ns.end(), rs.read_page_ns.begin(),
                              rs.read_page_ns.end());
    }
  }
  out.read_p50_ns = Median(p50s);
  out.read_p99_ns = Median(p99s);
  Stage("final checks");
  wl_->CheckFinal(dep_.get());
  return out;
}

void Runner::EndToEnd(MetricList* out) {
  std::vector<double> setups;
  for (int i = 0; i < 3 && setup_ok_; ++i) {
    TearDown();
    Stage("set up", i);
    setups.push_back(Setup());
  }
  if (!setup_ok_) {
    return;
  }
  Counters before;
  Counters after;
  uint64_t start_ns = 0;
  double elapsed = 0;
  Samples w = Window(args_.seconds, &before, &after, &start_ns, &elapsed);
  const WindowStats txn = PartMedians(w.txn_ns, w.txn_end_ns, start_ns, elapsed);
  const WindowStats reads = PartMedians(w.read_ns, w.read_end_ns, start_ns, elapsed);
  const AfterRun rb = RecoverAndCheck();
  if (!setup_ok_) {
    return;
  }
  attempted_ = w.ops + rb.ops;
  failed_ = w.failed + rb.failed;
  const bool mix = wl_->reads_in_mix();
  const double txns = static_cast<double>(w.txns);
  const double rpcs = static_cast<double>((after.client_calls - before.client_calls) +
                                          (after.inner_calls - before.inner_calls) +
                                          (after.coord_calls - before.coord_calls));
  const double device_bytes =
      static_cast<double>((after.dev - before.dev).writes) * afs::kDefaultBlockSize;
  std::printf("# samples txn=%zu read=%zu; device high water %u of %u blocks\n",
              w.txn_ns.size(), mix ? w.read_ns.size() : rb.reads, after.dev.high_water,
              wl_->deployment().num_blocks);
  out->Add("setup_s", Median(setups), "s");
  out->Add("txn_per_s", txn.per_s, "1/s");
  out->Add("txn_p50_us", Us(txn.p50_ns), "us");
  out->Add("txn_p99_us", Us(txn.p99_ns), "us");
  out->Add("read_p50_us", Us(mix ? reads.p50_ns : rb.read_p50_ns), "us");
  out->Add("read_p99_us", Us(mix ? reads.p99_ns : rb.read_p99_ns), "us");
  out->Add("rpcs_per_txn", Ratio(rpcs, txns), "count");
  out->Add("write_amp", Ratio(device_bytes, static_cast<double>(w.bytes_committed)), "ratio");
  out->Add("recover_s", rb.recover_s, "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void Runner::PerLayer(MetricList* out) {
  Stage("set up");
  Setup();
  if (!setup_ok_) {
    return;
  }
  Counters b;
  Counters a;
  uint64_t start_ns = 0;
  double elapsed = 0;
  Samples w = Window(args_.seconds / 2, &b, &a, &start_ns, &elapsed);
  std::vector<uint64_t> device_write_ns = dep_->TakeDeviceWriteLatencies();
  SpanLedger ledger;
  Samples t = TracedWindow(args_.seconds / 2, &ledger);
  AfterRun rb = RecoverAndCheck();
  if (!setup_ok_) {
    return;
  }
  attempted_ = w.ops + t.ops + rb.ops;
  failed_ = w.failed + t.failed + rb.failed;

  const double txns = static_cast<double>(w.txns);
  const double ops = static_cast<double>(w.ops);
  auto per_txn = [&](double x) { return Ratio(x, txns); };
  auto fs = [&](const char* name) { return static_cast<double>(a.fs[name] - b.fs[name]); };
  const BlockStoreTotals store = a.store - b.store;
  const DeviceTotals dev = a.dev - b.dev;
  const double client_calls = static_cast<double>(a.client_calls - b.client_calls);
  const double inner_calls = static_cast<double>(a.inner_calls - b.inner_calls);
  const double coord_calls = static_cast<double>(a.coord_calls - b.coord_calls);

  // client
  out->Add("client.attempts_per_txn", per_txn(static_cast<double>(w.attempts)), "count");
  out->Add("client.create_version_us", Us(Percentile(&w.create_version_ns, 0.5)), "us");
  out->Add("client.write_page_us", Us(Percentile(&w.write_page_ns, 0.5)), "us");
  out->Add("client.commit_us", Us(Percentile(&w.commit_ns, 0.5)), "us");
  std::vector<uint64_t>& read_page = w.read_page_ns.empty() ? rb.read_page_ns : w.read_page_ns;
  out->Add("client.read_page_us", Us(Percentile(&read_page, 0.5)), "us");
  // net
  const LayerTimes txn_times = ledger.For("pb.txn");
  const LayerTimes read_times = ledger.For("pb.read");
  out->Add("net.client_calls_per_txn", per_txn(client_calls), "count");
  out->Add("net.self_us_per_op",
           Us(Ratio(static_cast<double>(txn_times.self_ns[kNet] + read_times.self_ns[kNet]),
                    static_cast<double>(txn_times.rpc_calls + read_times.rpc_calls))),
           "us");
  out->Add("net.retransmits", static_cast<double>(a.retransmits - b.retransmits), "count");
  // core
  const double validations = fs("commit.sig_fast_path") + fs("commit.serialise_tests");
  out->Add("core.commit_us",
           Us(Ratio(fs("commit.latency_ns.sum"), fs("commit.latency_ns.count"))), "us");
  out->Add("core.commit_rpcs_per_txn", per_txn(fs("commit.rpcs")), "count");
  out->Add("core.serialise_tests_per_txn", per_txn(fs("commit.serialise_tests")), "count");
  out->Add("core.validations_per_txn", per_txn(validations), "count");
  out->Add("core.sig_fast_path_ratio", Ratio(fs("commit.sig_fast_path"), validations), "ratio");
  out->Add("core.index_hit_ratio",
           Ratio(fs("commit.index_hit"), fs("commit.index_hit") + fs("commit.index_miss")),
           "ratio");
  out->Add("core.group_size_mean",
           Ratio(fs("commit.group_size.sum"), fs("commit.group_size.count")), "count");
  out->Add("core.cache_hit_ratio",
           Ratio(fs("cache.hit"), fs("cache.hit") + fs("cache.miss")), "ratio");
  out->Add("core.cache_evictions_per_op", Ratio(fs("cache.eviction"), ops), "count");
  // block, at the BlockStore boundary
  for (int op = 0; op < kNumBlockOps; ++op) {
    out->Add(std::string("block.calls.") + BlockOpName(op),
             per_txn(static_cast<double>(store.calls[op])), "count");
  }
  out->Add("block.blocks_read_per_txn", per_txn(static_cast<double>(store.blocks_read)), "count");
  out->Add("block.blocks_written_per_txn", per_txn(static_cast<double>(store.blocks_written)),
           "count");
  out->Add("block.bytes_written_per_txn", per_txn(static_cast<double>(store.bytes_written)),
           "bytes");
  out->Add("block.us_per_txn", Us(per_txn(static_cast<double>(store.busy_ns))), "us");
  out->Add("block.blocks_read_per_op", Ratio(static_cast<double>(store.blocks_read), ops),
           "count");
  // disk
  const JournalTotals journal{a.journal.appends - b.journal.appends,
                              a.journal.fsyncs - b.journal.fsyncs,
                              a.journal.checkpoints - b.journal.checkpoints};
  out->Add("disk.reads_per_op", Ratio(static_cast<double>(dev.reads), ops), "count");
  out->Add("disk.writes_per_txn", per_txn(static_cast<double>(dev.writes)), "count");
  out->Add("disk.write_us_p50", Us(Percentile(&device_write_ns, 0.50)), "us");
  out->Add("disk.write_us_p99", Us(Percentile(&device_write_ns, 0.99)), "us");
  out->Add("journal.fsyncs_per_txn", per_txn(static_cast<double>(journal.fsyncs)), "count");
  out->Add("journal.appends_per_fsync",
           Ratio(static_cast<double>(journal.appends), static_cast<double>(journal.fsyncs)),
           "count");
  out->Add("journal.checkpoints", static_cast<double>(journal.checkpoints), "count");
  // shard
  out->Add("shard.cross_commit_us", Us(Percentile(&w.cross_commit_ns, 0.5)), "us");
  out->Add("shard.rpcs_per_cross_txn", per_txn(coord_calls), "count");
  out->Add("shard.prepare_conflicts_per_txn", per_txn(fs("shard.prepare_conflict")), "count");
  // obs
  std::vector<uint64_t> untraced = w.txn_ns;
  out->Add("obs.trace_overhead",
           Ratio(Percentile(&t.txn_ns, 0.5), Percentile(&untraced, 0.5)), "ratio");
  // Self time by layer, from the traced window.
  for (const auto& [root, times] : {std::pair{"txn", txn_times}, std::pair{"read", read_times}}) {
    uint64_t self_sum = 0;
    for (int layer = 0; layer < kNumLayers; ++layer) {
      self_sum += times.self_ns[layer];
      out->Add(std::string(LayerName(layer)) + ".self_us_per_" + root,
               Us(Ratio(static_cast<double>(times.self_ns[layer]),
                        static_cast<double>(times.roots))),
               "us");
    }
    out->Add(std::string("trace.coverage_") + root,
             Ratio(static_cast<double>(self_sum), static_cast<double>(times.root_ns)), "ratio");
    out->Add(std::string("trace.traced_") + root + "s", static_cast<double>(times.roots),
             "count");
  }
  out->Add("trace.incomplete_traces", static_cast<double>(ledger.incomplete_traces()), "count");
  // The RPC ledger: every call of the window, by who sent it and which block op it was.
  const double total = client_calls + inner_calls + coord_calls;
  double parts = client_calls + coord_calls;
  out->Add("rpc.total", per_txn(total), "count");
  out->Add("rpc.client", per_txn(client_calls), "count");
  out->Add("rpc.coordinator", per_txn(coord_calls), "count");
  for (const auto& [op, name] : BlockServerOps()) {
    const double n = static_cast<double>(a.rpc[name] - b.rpc[name]);
    parts += n;
    out->Add("rpc." + name, per_txn(n), "count");
  }
  out->Add("rpc.residual", per_txn(total - parts), "count");
  // Sample counts and failures.
  out->Add("txn_samples", static_cast<double>(w.txn_ns.size()), "count");
  out->Add("read_samples", static_cast<double>(w.read_ns.size()), "count");
  out->Add("failed_ratio", Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
           "ratio");
}

int Runner::Run() {
  std::error_code ec;
  std::filesystem::create_directories(args_.work_dir, ec);
  store_dir_ = args_.work_dir + "/store-" + std::to_string(::getpid());
  std::printf(
      "# provenance {\"nproc\": %u, \"build_type\": \"%s\", \"store_fs\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      FsTypeName(args_.work_dir).c_str(), args_.workload.c_str(), args_.seed, args_.seconds,
      args_.trace ? 1 : 0);
  MetricList metrics;
  if (args_.trace) {
    PerLayer(&metrics);
  } else {
    EndToEnd(&metrics);
  }
  TearDown();
  std::filesystem::remove_all(store_dir_, ec);
  if (!setup_ok_) {
    return 1;
  }
  const bool correct = wl_->checker().ok();
  if (!correct) {
    std::printf("# error: %s\n", wl_->checker().first_error().c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build; configure with Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  auto workload = perfbench::MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Runner runner(std::move(args), std::move(workload));
  return runner.Run();
}
