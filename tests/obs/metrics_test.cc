// Unit tests for the observability layer (src/obs): lock-free counters and histograms,
// registry text exposition, the retired aggregate, and the service queue-depth gauge.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rpc/network.h"
#include "src/rpc/service.h"

namespace afs {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricRegistry registry("test", /*register_global=*/false);
  Counter* counter = registry.counter("ops");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Inc();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, IncByDelta) {
  MetricRegistry registry("test", /*register_global=*/false);
  Counter* counter = registry.counter("ops");
  counter->Inc(5);
  counter->Inc();
  EXPECT_EQ(counter->value(), 6u);
}

TEST(GaugeTest, TracksValueAndHighWatermark) {
  MetricRegistry registry("test", /*register_global=*/false);
  Gauge* gauge = registry.gauge("depth");
  gauge->Add(3);
  gauge->Add(4);
  gauge->Add(-5);
  EXPECT_EQ(gauge->value(), 2);
  EXPECT_EQ(gauge->max(), 7);
  gauge->Set(0);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(gauge->max(), 7);
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  MetricRegistry registry("test", /*register_global=*/false);
  Histogram* histogram = registry.histogram("lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Record(10);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(histogram->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram->sum_ns(), static_cast<uint64_t>(kThreads) * kPerThread * 10);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += histogram->bucket(i);
  }
  EXPECT_EQ(bucket_total, histogram->count());
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is [0, 2); bucket i is [2^i, 2^(i+1)); the last bucket absorbs the tail.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 1);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(7), 2);
  EXPECT_EQ(Histogram::BucketIndex(8), 3);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(10), 1024u);

  MetricRegistry registry("test", /*register_global=*/false);
  Histogram* histogram = registry.histogram("lat");
  histogram->Record(1);
  histogram->Record(2);
  histogram->Record(3);
  histogram->Record(4);
  histogram->Record(1ull << 62);
  EXPECT_EQ(histogram->bucket(0), 1u);
  EXPECT_EQ(histogram->bucket(1), 2u);
  EXPECT_EQ(histogram->bucket(2), 1u);
  EXPECT_EQ(histogram->bucket(Histogram::kNumBuckets - 1), 1u);
}

TEST(HistogramTest, ApproxPercentile) {
  MetricRegistry registry("test", /*register_global=*/false);
  Histogram* histogram = registry.histogram("lat");
  EXPECT_EQ(histogram->ApproxPercentileNs(0.5), 0u);
  for (int i = 0; i < 99; ++i) {
    histogram->Record(10);  // bucket 3: [8, 16)
  }
  histogram->Record(1000000);  // bucket 19
  EXPECT_EQ(histogram->ApproxPercentileNs(0.5), 15u);           // upper bound of bucket 3
  EXPECT_GE(histogram->ApproxPercentileNs(1.0), 1000000u);      // tail lands past the slow sample
}

TEST(RegistryTest, DumpTextGolden) {
  MetricRegistry registry("golden", /*register_global=*/false);
  registry.counter("b.count")->Inc(3);
  registry.counter("a.count")->Inc(1);
  registry.gauge("depth")->Add(2);
  registry.histogram("lat")->Record(5);

  std::string text;
  registry.DumpText(&text);
  std::string expected =
      "# registry golden\n"
      "counter a.count 1\n"
      "counter b.count 3\n"
      "gauge depth 2 max 2\n"
      "histogram lat count 1 sum_ns 5 p50_ns 7 p99_ns 7 buckets 2:1\n";
  EXPECT_EQ(text, expected);
}

TEST(RegistryTest, MetricPointersAreStable) {
  MetricRegistry registry("test", /*register_global=*/false);
  Counter* first = registry.counter("ops");
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler" + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("ops"), first);
}

TEST(RegistryTest, RetiredAggregateSurvivesDestruction) {
  ResetRetired();
  {
    MetricRegistry registry("ephemeral");
    registry.counter("died.with.me")->Inc(42);
    registry.histogram("died.lat")->Record(100);
  }
  std::string all = DumpAllText();
  EXPECT_NE(all.find("ephemeral/died.with.me 42"), std::string::npos) << all;
  EXPECT_NE(all.find("ephemeral/died.lat"), std::string::npos) << all;

  std::string json = DumpAllJson();
  EXPECT_NE(json.find("\"retired\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ephemeral/died.with.me\":42"), std::string::npos) << json;
  ResetRetired();
}

TEST(RegistryTest, RetiredAggregateAccumulatesAcrossInstances) {
  ResetRetired();
  for (int i = 0; i < 3; ++i) {
    MetricRegistry registry("repeat");
    registry.counter("total")->Inc(10);
  }
  std::string all = DumpAllText();
  EXPECT_NE(all.find("repeat/total 30"), std::string::npos) << all;
  ResetRetired();
}

// A single-worker service whose handler blocks until released, so requests pile up in the
// queue and the rpc.queue_depth gauge has something to measure.
class StallService : public Service {
 public:
  explicit StallService(Network* net) : Service(net, "stall", /*num_workers=*/1) {}
  std::atomic<bool> release{false};

 protected:
  Result<Message> Handle(const Message& request) override {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Message(request.opcode, {});
  }
};

TEST(ServiceMetricsTest, QueueDepthGaugeTracksBacklog) {
  Network net(9);
  StallService svc(&net);
  svc.Start();
  Gauge* depth = svc.metrics()->gauge("rpc.queue_depth");
  EXPECT_EQ(depth->value(), 0);

  // One call occupies the lone worker; the rest sit in the queue.
  constexpr int kCalls = 5;
  std::vector<std::thread> callers;
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&net, &svc] {
      CallOptions opts;
      opts.timeout = std::chrono::milliseconds(10000);
      (void)net.Call(svc.port(), Message(1, {}), opts);
    });
  }
  // The gauge is published under the queue mutex, so once it reads N the queue really
  // held N entries at that instant.
  while (depth->max() < kCalls - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc.release = true;
  for (auto& t : callers) {
    t.join();
  }
  EXPECT_EQ(depth->value(), 0);
  EXPECT_GE(depth->max(), kCalls - 1);
}

}  // namespace
}  // namespace obs
}  // namespace afs
