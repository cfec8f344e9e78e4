// Durable-store costs: what does real durability add over the in-memory device, and how
// much of the fsync tax does group commit claw back?
//
// Expected shape: FileDisk writes are dominated by the journal fsync; with a group-commit
// window and concurrent writers the per-write cost drops steeply (N writers amortise one
// fsync), which the fsync_batches/journal_appends counters make explicit independent of
// wall clock. Reads are cheap in both backends; a journal-hot read adds one index lookup
// over a checkpointed read. MemDisk numbers are the floor: the same API with no
// durability at all.

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/disk/mem_disk.h"
#include "src/store/file_disk.h"

namespace afs {
namespace {

constexpr uint32_t kBlockSize = 4096;
constexpr uint32_t kNumBlocks = 1 << 10;

std::string ScratchDisk(const std::string& name) {
  std::filesystem::path dir = std::filesystem::path("bench_disk_scratch") / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return (dir / "disk.afsdisk").string();
}

std::vector<uint8_t> Payload() {
  std::vector<uint8_t> data(kBlockSize);
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  return data;
}

void BM_MemDiskWrite(benchmark::State& state) {
  MemDisk disk(kBlockSize, kNumBlocks);
  auto data = Payload();
  uint32_t bno = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.Write(bno, data));
    bno = (bno + 1) % kNumBlocks;
  }
  state.SetBytesProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_MemDiskWrite);

void BM_FileDiskWrite(benchmark::State& state) {
  auto disk = FileDisk::Open(ScratchDisk("write"), {kBlockSize, kNumBlocks});
  if (!disk.ok()) {
    state.SkipWithError("cannot open FileDisk");
    return;
  }
  auto data = Payload();
  uint32_t bno = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*disk)->Write(bno, data));
    bno = (bno + 1) % kNumBlocks;
  }
  state.SetBytesProcessed(state.iterations() * kBlockSize);
  state.counters["fsyncs"] = static_cast<double>((*disk)->fsync_batches());
}
BENCHMARK(BM_FileDiskWrite);

// The group-commit sweep: N writer threads share the journal; the window lets the flusher
// gather their records into one fsync. Arg = window in microseconds. fsyncs_per_write is
// the statistic the sweep is about: 1.0 with no batching, -> 1/N as the window opens.
void BM_FileDiskGroupCommit(benchmark::State& state) {
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 32;
  auto data = Payload();
  for (auto _ : state) {
    state.PauseTiming();
    FileDiskOptions options;
    options.block_size = kBlockSize;
    options.num_blocks = kNumBlocks;
    options.group_commit_window = std::chrono::microseconds(state.range(0));
    auto disk_or = FileDisk::Open(ScratchDisk("group_commit"), options);
    if (!disk_or.ok()) {
      state.SkipWithError("cannot open FileDisk");
      return;
    }
    FileDisk* disk = disk_or->get();
    state.ResumeTiming();
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([disk, t, &data] {
        for (int i = 0; i < kWritesPerThread; ++i) {
          (void)disk->Write(static_cast<uint32_t>(t * kWritesPerThread + i), data);
        }
      });
    }
    for (auto& w : writers) {
      w.join();
    }
    state.PauseTiming();
    state.counters["fsyncs_per_write"] =
        static_cast<double>(disk->fsync_batches()) / static_cast<double>(disk->journal_appends());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kThreads * kWritesPerThread);
}
BENCHMARK(BM_FileDiskGroupCommit)->Arg(0)->Arg(100)->Arg(500)->Arg(2000);

void BM_MemDiskRead(benchmark::State& state) {
  MemDisk disk(kBlockSize, kNumBlocks);
  auto data = Payload();
  for (uint32_t bno = 0; bno < kNumBlocks; ++bno) {
    (void)disk.Write(bno, data);
  }
  std::vector<uint8_t> out(kBlockSize);
  uint32_t bno = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.Read(bno, out));
    bno = (bno + 1) % kNumBlocks;
  }
  state.SetBytesProcessed(state.iterations() * kBlockSize);
}
BENCHMARK(BM_MemDiskRead);

// Arg 0: reads served from the journal (index lookup + journal file read + CRC).
// Arg 1: reads served from checkpointed sectors (header decode + CRC).
void BM_FileDiskRead(benchmark::State& state) {
  auto disk = FileDisk::Open(ScratchDisk("read"), {kBlockSize, kNumBlocks});
  if (!disk.ok()) {
    state.SkipWithError("cannot open FileDisk");
    return;
  }
  auto data = Payload();
  for (uint32_t bno = 0; bno < 256; ++bno) {
    (void)(*disk)->Write(bno, data);
  }
  if (state.range(0) == 1) {
    (void)(*disk)->Checkpoint();
  }
  std::vector<uint8_t> out(kBlockSize);
  uint32_t bno = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*disk)->Read(bno, out));
    bno = (bno + 1) % 256;
  }
  state.SetBytesProcessed(state.iterations() * kBlockSize);
  state.SetLabel(state.range(0) == 1 ? "checkpointed" : "journal_hot");
}
BENCHMARK(BM_FileDiskRead)->Arg(0)->Arg(1);

// Mount-time recovery cost as the journal grows: Arg = acknowledged records to replay.
void BM_FileDiskRecovery(benchmark::State& state) {
  const std::string path = ScratchDisk("recovery");
  auto data = Payload();
  const uint32_t records = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".journal");
    {
      CrashInjector<CrashPoint> injector;
      auto disk = FileDisk::Open(path, {kBlockSize, kNumBlocks}, &injector);
      for (uint32_t i = 0; i < records; ++i) {
        (void)(*disk)->Write(i % kNumBlocks, data);
      }
      // Cut the power so the close path cannot checkpoint: the remount must replay.
      injector.Arm(CrashPoint::kAfterJournalFsync);
      (void)(*disk)->Write(records % kNumBlocks, data);
    }
    state.ResumeTiming();
    auto disk = FileDisk::Open(path, {kBlockSize, kNumBlocks});
    benchmark::DoNotOptimize(disk.ok() && (*disk)->recovered_records() >= records);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_FileDiskRecovery)->Arg(64)->Arg(512);

}  // namespace
}  // namespace afs

AFS_BENCHMARK_MAIN()
