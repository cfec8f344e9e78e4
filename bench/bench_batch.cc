// Vectored block I/O benchmarks (docs/PERF.md): how much do batched multi-block RPCs,
// pipelined stable-pair replication and sharded block-server locking buy over the
// one-block-per-transaction baseline?
//
// Every benchmark takes a trailing {batch} argument: 1 = vectored paths, 0 = the same
// binary with batching globally disabled (every vectored entry point degrades to a
// one-block-per-RPC loop). `--no_batch` forces 0 for every variant, so two whole-process
// runs can be compared as well. Expected shape:
//   * tree scans   >= 4x: k pages of depth d cost d vectored RPCs, not k*d single ones
//   * contended multi-client commit >= 2x: the §5.2 merge prefetches both page trees
//     level-by-level, and page-chain writes become AllocMulti + one WriteBatch
//   * sharded locking: concurrent writers on a striped in-process store outrun a single
//     mutex (the same striping guards BlockServer's handler state)
// Args are listed per benchmark below.
//
// All rigs run with a deterministic 100us simulated wire latency per RPC (Network::
// set_latency, a LAN-scale round trip) — an in-process call is otherwise free, which would
// hide exactly the cost vectored I/O removes. The rpcs_per_page / rpcs_per_txn counters
// report the transport-independent truth alongside the timings.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/block/protocol.h"
#include "src/core/file_server.h"
#include "src/core/page_store.h"
#include "src/disk/mem_disk.h"
#include "src/net/tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/rpc/network.h"

namespace afs {
namespace {

using net::ServiceKind;
using net::TcpServer;
using net::TcpTransport;

// --no_batch: force the baseline even for batch=1 variants (whole-process comparison).
bool g_allow_batch = true;

// --transport=tcp: every RpcRig-based benchmark routes its client traffic through a
// loopback TcpServer/TcpTransport pair instead of the simulated network. The simulated
// wire latency is then OFF — the kernel provides the real thing — so the same run over
// both flags compares simulated-latency numbers against a kernel-networking baseline
// (BENCH_net.json; docs/NET.md). Default inproc keeps the historical numbers comparable.
bool g_tcp_transport = false;

void ApplyBatchMode(int64_t batch_arg) {
  SetBatchingEnabled(batch_arg != 0 && g_allow_batch);
}

constexpr std::chrono::microseconds kWireLatency{100};

// RPC-backed block storage: BlockServer on a MemDisk, talked to through a BlockClient —
// the real transport the file service pays for, minus physical disk latency.
struct RpcRig {
  explicit RpcRig(uint32_t num_shards = 16, int num_workers = 4,
                  std::chrono::microseconds latency = kWireLatency)
      : net(31),
        disk(kDefaultBlockSize, 1 << 16),
        server(&net, "bs", &disk, 7, num_shards, num_workers) {
    server.Start();
    if (g_tcp_transport) {
      tcp_server = std::make_unique<TcpServer>(&net);
      tcp_server->Expose(&server, "bs", ServiceKind::kBlockServer);
      (void)tcp_server->Start();
      tcp = std::make_unique<TcpTransport>("127.0.0.1", tcp_server->port());
      transport = tcp.get();
    } else {
      net.set_latency(latency, latency);
      transport = &net;
    }
    account = server.CreateAccountDirect();
    client = std::make_unique<BlockClient>(transport, server.port(), account,
                                           server.payload_capacity());
    pages = std::make_unique<PageStore>(client.get());
  }

  Network net;
  MemDisk disk;
  BlockServer server;
  std::unique_ptr<TcpServer> tcp_server;
  std::unique_ptr<TcpTransport> tcp;
  Transport* transport = nullptr;
  Capability account;
  std::unique_ptr<BlockClient> client;
  std::unique_ptr<PageStore> pages;
};

// ---------------------------------------------------------------------------
// Tree scan: read k pages through the vectored page reader.
// Args: {npages, chain_depth, batch}
// ---------------------------------------------------------------------------

void BM_TreeScan(benchmark::State& state) {
  const int npages = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  ApplyBatchMode(state.range(2));
  RpcRig rig;
  // `depth` chunks per page forces a chain of that depth (chunk_cap bytes per block).
  const size_t page_bytes =
      depth == 1 ? 64 : (static_cast<size_t>(depth) * (rig.client->payload_capacity() - 6)) - 32;
  std::vector<BlockNo> heads;
  for (int i = 0; i < npages; ++i) {
    Page page;
    page.kind = PageKind::kPlain;
    page.data.assign(page_bytes, static_cast<uint8_t>(i));
    auto head = rig.pages->WritePage(page);
    if (!head.ok()) {
      state.SkipWithError("setup write failed");
      return;
    }
    heads.push_back(*head);
  }

  uint64_t calls_before = rig.transport->total_calls();
  int64_t scanned = 0;
  for (auto _ : state) {
    auto result = rig.pages->ReadPages(heads);
    if (!result.ok()) {
      state.SkipWithError("scan failed");
      return;
    }
    benchmark::DoNotOptimize(result);
    scanned += npages;
  }
  state.SetItemsProcessed(scanned);
  state.counters["rpcs_per_page"] = benchmark::Counter(
      static_cast<double>(rig.transport->total_calls() - calls_before) / scanned);
  SetBatchingEnabled(true);
}

BENCHMARK(BM_TreeScan)
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({64, 1, 0})
    ->Args({64, 1, 1})
    ->Args({16, 5, 0})
    ->Args({16, 5, 1})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Multi-client commit: T client threads updating F files with large pages. With files=1
// every thread contends on the same file, so almost every commit runs the serialisability
// test + merge against a concurrent winner; files>1 spreads threads round-robin across
// files, so one commit group holds a segment per file.
// Args: {threads, files, batch}
// ---------------------------------------------------------------------------

void BM_MultiClientCommit(benchmark::State& state) {
  const int nthreads = static_cast<int>(state.range(0));
  const int nfiles = static_cast<int>(state.range(1));
  ApplyBatchMode(state.range(2));
  constexpr int kPagesPerTxn = 8;
  // Single-block pages: this benchmark measures the COMMIT protocol under contention
  // (validation, merge, flip), so the transaction's data payload is deliberately small —
  // BM_TreeScan and BM_StablePairWriteBatch already measure bulk multi-block bandwidth.
  constexpr size_t kPageBytes = 2 * 1024;
  constexpr int kTxnsPerThread = 2;

  RpcRig rig;
  // Default options: committed-page cache on. Version-side chains (the `b` trees the
  // merge prefetches) are never cached, so batching still does real block I/O.
  FileServer fs(&rig.net, "fs", rig.client.get());
  fs.Start();
  if (!fs.AttachStore().ok()) {
    state.SkipWithError("attach failed");
    return;
  }
  std::vector<Capability> files;
  for (int f = 0; f < nfiles; ++f) {
    auto file = fs.CreateFile();
    if (!file.ok()) {
      state.SkipWithError("create failed");
      return;
    }
    auto v = fs.CreateVersion(*file, kNullPort, false);
    for (int i = 0; i < kPagesPerTxn; ++i) {
      (void)fs.InsertRef(*v, PagePath::Root(), i);
      (void)fs.WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                         std::vector<uint8_t>(kPageBytes, 1));
    }
    if (!v.ok() || !fs.Commit(*v).ok()) {
      state.SkipWithError("setup commit failed");
      return;
    }
    files.push_back(*file);
  }

  std::atomic<int64_t> committed{0};
  std::atomic<int64_t> conflicts{0};
  const uint64_t calls_before = rig.transport->total_calls();
  const uint64_t commit_rpcs_before = fs.commit_rpcs_total();
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (int t = 0; t < nthreads; ++t) {
      workers.emplace_back([&, t] {
        const Capability file = files[static_cast<size_t>(t) % files.size()];
        for (int txn = 0; txn < kTxnsPerThread; ++txn) {
          // Retry on conflict like a real optimistic client ("redo the update").
          for (int attempt = 0; attempt < 8; ++attempt) {
            auto v = fs.CreateVersion(file, kNullPort, false);
            if (!v.ok()) {
              continue;
            }
            bool wrote = true;
            for (int i = 0; i < kPagesPerTxn && wrote; ++i) {
              wrote = fs.WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                                   std::vector<uint8_t>(kPageBytes,
                                                        static_cast<uint8_t>(t + txn)))
                          .ok();
            }
            if (wrote && fs.Commit(*v).ok()) {
              committed.fetch_add(1);
              break;
            }
            (void)fs.Abort(*v);
            conflicts.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  state.SetItemsProcessed(committed.load());
  const double txns = static_cast<double>(committed.load() > 0 ? committed.load() : 1);
  // The gated number: transport calls issued inside Commit() (the commit.rpcs histogram's
  // sum) per committed transaction. Under group commit a follower's work rides on the
  // leader's thread, so the mean amortises across the whole group.
  state.counters["rpcs_per_txn"] = benchmark::Counter(
      static_cast<double>(fs.commit_rpcs_total() - commit_rpcs_before) / txns);
  // End-to-end context: every transport call in the measurement window (version create,
  // page writes, commit) per committed transaction.
  state.counters["rpcs_per_txn_total"] = benchmark::Counter(
      static_cast<double>(rig.transport->total_calls() - calls_before) / txns);
  state.counters["conflicts"] = benchmark::Counter(static_cast<double>(conflicts.load()));
  state.counters["serialise_tests"] =
      benchmark::Counter(static_cast<double>(fs.serialise_tests_run()));
  state.counters["sig_fast_path"] =
      benchmark::Counter(static_cast<double>(fs.commits_sig_fast_path()));
  SetBatchingEnabled(true);
}

BENCHMARK(BM_MultiClientCommit)
    ->Args({1, 1, 0})
    ->Args({1, 1, 1})
    ->Args({4, 1, 0})
    ->Args({4, 1, 1})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({16, 1, 1})
    ->Args({32, 1, 1})
    ->Args({64, 1, 1})
    ->Args({8, 4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Traced contended commit: one commit that must run the full §5.2 machinery — the flip
// fails against a concurrent winner, so the serialisability walk and the merge both
// execute — driven through the RPC FileClient with span collection ON. After the timing
// loop the span ring is analysed: `phase_sum_ratio` is the fraction of the slowest
// server-side "commit" span accounted for by its instrumented direct phases
// (begin/flip/validate/merge/finish); the acceptance bar is >= 0.9 (phases within 10% of
// commit.latency_ns — see docs/OBSERVABILITY.md). Also declares the SLO targets the
// --afs_slo_json report is scored against.
// Args: {batch}
// ---------------------------------------------------------------------------

void BM_TracedCommit(benchmark::State& state) {
  ApplyBatchMode(state.range(0));
  const bool spans_were_on = obs::SpanEnabled();
  obs::SetSpanEnabled(true);
  // Declared SLOs for the classes this benchmark exercises. The bounds are deliberately
  // loose (sanitizer CI, shared runners): they catch order-of-magnitude regressions, not
  // jitter. kWireLatency=100us per RPC puts a contended commit in the low milliseconds.
  obs::SloTracker* slo = obs::SloTracker::Global();
  slo->DeclareTarget("commit", {/*p50=*/250'000'000, /*p99=*/2'000'000'000,
                                /*p999=*/4'000'000'000});
  slo->DeclareTarget("client.commit", {/*p50=*/500'000'000, /*p99=*/4'000'000'000,
                                       /*p999=*/8'000'000'000});

  RpcRig rig;
  FileServer fs(&rig.net, "fs", rig.client.get());
  fs.Start();
  if (!fs.AttachStore().ok()) {
    state.SkipWithError("attach failed");
    return;
  }
  FileClient client(rig.transport, {fs.port()});
  constexpr int kPages = 4;
  constexpr size_t kPageBytes = 8 * 1024;
  auto file = client.CreateFile();
  if (!file.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  {
    auto v = client.CreateVersion(*file);
    for (int i = 0; i < kPages; ++i) {
      (void)client.InsertRef(*v, PagePath::Root(), i);
      (void)client.WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                             std::vector<uint8_t>(kPageBytes, 1));
    }
    if (!v.ok() || !client.Commit(*v).ok()) {
      state.SkipWithError("setup commit failed");
      return;
    }
  }

  int64_t committed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Both versions branch from the same committed base; the winner commits first so the
    // loser's flip fails and it must validate + merge. They touch disjoint pages, so the
    // serialisability test passes and the contended commit succeeds.
    auto loser = client.CreateVersion(*file);
    auto winner = client.CreateVersion(*file);
    bool setup_ok = loser.ok() && winner.ok() &&
                    client.WritePage(*winner, PagePath({0}),
                                     std::vector<uint8_t>(kPageBytes, 2)).ok() &&
                    client.Commit(*winner).ok() &&
                    client.WritePage(*loser, PagePath({1}),
                                     std::vector<uint8_t>(kPageBytes, 3)).ok();
    state.ResumeTiming();
    if (!setup_ok || !client.Commit(*loser).ok()) {
      state.SkipWithError("contended commit failed");
      return;
    }
    ++committed;
  }
  state.SetItemsProcessed(committed);

  obs::PhaseBreakdown breakdown = obs::AnalyzePhases(obs::SnapshotSpans(), "commit");
  if (breakdown.found && breakdown.total_ns > 0) {
    state.counters["phase_sum_ratio"] = benchmark::Counter(
        static_cast<double>(breakdown.attributed_ns) / static_cast<double>(breakdown.total_ns));
    state.counters["commit_phases"] =
        benchmark::Counter(static_cast<double>(breakdown.phases.size()));
  }
  obs::SetSpanEnabled(spans_were_on);
  SetBatchingEnabled(true);
}

BENCHMARK(BM_TracedCommit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Batched stable-pair writes: the pipelined companion replication path.
// Args: {batch_blocks, batch}
// ---------------------------------------------------------------------------

void BM_StablePairWriteBatch(benchmark::State& state) {
  const int nblocks = static_cast<int>(state.range(0));
  ApplyBatchMode(state.range(1));
  Network net(32);
  net.set_latency(kWireLatency, kWireLatency);
  MemDisk disk_a(kDefaultBlockSize, 1 << 15);
  MemDisk disk_b(kDefaultBlockSize, 1 << 15);
  BlockServer a(&net, "A", &disk_a, 7);
  BlockServer b(&net, "B", &disk_b, 7);
  a.Start();
  b.Start();
  a.SetCompanion(b.port());
  b.SetCompanion(a.port());
  Capability account = a.CreateAccountDirect();
  StableStore store(
      std::make_unique<BlockClient>(&net, a.port(), account, a.payload_capacity()),
      std::make_unique<BlockClient>(&net, b.port(), account, b.payload_capacity()), 11);

  auto fresh = store.AllocMulti(static_cast<uint32_t>(nblocks));
  if (!fresh.ok()) {
    state.SkipWithError("alloc failed");
    return;
  }
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < fresh->size(); ++i) {
    writes.push_back({(*fresh)[i], std::vector<uint8_t>(4000, static_cast<uint8_t>(i))});
  }

  int64_t written = 0;
  for (auto _ : state) {
    if (!store.WriteBatch(writes).ok()) {
      state.SkipWithError("batch write failed");
      return;
    }
    written += nblocks;
  }
  state.SetItemsProcessed(written);
  SetBatchingEnabled(true);
}

BENCHMARK(BM_StablePairWriteBatch)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Lock striping: T threads of single-block writes against one sharded block store, driven
// in-process (no RPC queue in the way — the same striping guards BlockServer's handlers,
// but the service submit queue would drown the mutex effect at RPC scale).
// Args: {num_shards, writer_threads}  (batch-independent)
// ---------------------------------------------------------------------------

void BM_ShardedWrites(benchmark::State& state) {
  const uint32_t num_shards = static_cast<uint32_t>(state.range(0));
  const int nthreads = static_cast<int>(state.range(1));
  constexpr int kWritesPerThread = 4096;

  InMemoryBlockStore store(/*payload_capacity=*/4068, /*num_blocks=*/1 << 20, num_shards);
  std::vector<std::vector<BlockNo>> blocks(nthreads);
  for (int c = 0; c < nthreads; ++c) {
    for (int i = 0; i < kWritesPerThread; ++i) {
      auto bno = store.AllocWrite(std::vector<uint8_t>(64, 1));
      if (!bno.ok()) {
        state.SkipWithError("setup alloc failed");
        return;
      }
      blocks[c].push_back(*bno);
    }
  }

  int64_t writes_done = 0;
  for (auto _ : state) {
    std::vector<std::thread> writers;
    for (int c = 0; c < nthreads; ++c) {
      writers.emplace_back([&, c] {
        std::vector<uint8_t> payload(64, static_cast<uint8_t>(c));
        for (BlockNo bno : blocks[c]) {
          (void)store.Write(bno, payload);
        }
      });
    }
    for (auto& t : writers) {
      t.join();
    }
    writes_done += static_cast<int64_t>(nthreads) * kWritesPerThread;
  }
  state.SetItemsProcessed(writes_done);
}

BENCHMARK(BM_ShardedWrites)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({16, 8})
    ->Args({64, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace afs

int main(int argc, char** argv) {
  // Strip our process-wide flags before the shared harness (and google/benchmark) see
  // argv.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no_batch") == 0) {
      afs::g_allow_batch = false;
      afs::SetBatchingEnabled(false);
    } else if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      afs::g_tcp_transport = true;
    } else if (std::strcmp(argv[i], "--transport=inproc") == 0) {
      afs::g_tcp_transport = false;
    } else {
      args.push_back(argv[i]);
    }
  }
  return afs::bench::BenchMain(static_cast<int>(args.size()), args.data());
}
