// End-to-end tracing tests: trace-context propagation across the RPC boundary, the
// at-most-once replay guarantee (a replayed reply increments ONLY rpc.dup_replayed — the
// per-op instruments and the handle span stay at one per logical call), the kGetSpans
// scrape, span-tree completeness under chunked vectored I/O and chaos fault injection, and
// the arguments the commit and RPC spans carry (successor heads, retransmit counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/block/protocol.h"
#include "src/client/file_client.h"
#include "src/client/transaction.h"
#include "src/obs/span.h"
#include "src/rpc/client.h"
#include "src/rpc/network.h"
#include "src/rpc/service.h"
#include "tests/testing/cluster.h"

namespace afs {
namespace {

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::SpanEnabled();
    obs::SetSpanEnabled(true);
    obs::ClearSpans();
  }
  void TearDown() override {
    obs::ClearSpans();
    obs::SetSpanEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

class PingService : public Service {
 public:
  PingService(Network* net) : Service(net, "ping") {}

 protected:
  Result<Message> Handle(const Message& request) override {
    return Message(request.opcode, request.payload);
  }
};

// Walk a trace and check that every span's parent is another span of the same trace (or
// 0 for the root). Returns the number of roots.
int CountRootsAndCheckLinkage(const std::vector<obs::Span>& spans) {
  std::set<uint64_t> ids;
  for (const obs::Span& s : spans) {
    ids.insert(s.span_id);
  }
  int roots = 0;
  for (const obs::Span& s : spans) {
    if (s.parent_span_id == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(ids.count(s.parent_span_id) > 0)
          << s.name << " has dangling parent " << s.parent_span_id;
    }
  }
  return roots;
}

TEST_F(TracingTest, ContextCrossesTheWire) {
  Network net(3);
  PingService ping(&net);
  ping.Start();
  auto reply = net.Call(ping.port(), Message(1, {42}));
  ASSERT_TRUE(reply.ok());

  // One client span (rpc.call:1) and one server span (handle:1), same trace, linked.
  std::vector<obs::Span> spans = obs::SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  const obs::Span* call = nullptr;
  const obs::Span* handle = nullptr;
  for (const obs::Span& s : spans) {
    if (std::string(s.name).rfind("rpc.call", 0) == 0) call = &s;
    if (std::string(s.name).rfind("handle", 0) == 0) handle = &s;
  }
  ASSERT_NE(call, nullptr);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(call->trace_id, handle->trace_id);
  EXPECT_EQ(handle->parent_span_id, call->span_id);
  EXPECT_EQ(call->parent_span_id, 0u);
  EXPECT_EQ(call->kind, obs::SpanKind::kClient);
  EXPECT_EQ(handle->kind, obs::SpanKind::kServer);
}

TEST_F(TracingTest, ReplayedReplyCountsOnlyDupReplay) {
  // Reply drops force retransmission; the original executed, so the retransmission is
  // answered from the reply cache. The op's primary instruments must not double-count.
  Network net(17);
  PingService ping(&net);
  ping.Start();

  constexpr int kCalls = 60;
  FaultInjection faults;
  faults.drop_reply = 0.4;
  net.set_fault_injection(faults);
  for (int i = 0; i < kCalls; ++i) {
    auto reply = net.Call(ping.port(), Message(1, {static_cast<uint8_t>(i)}));
    ASSERT_TRUE(reply.ok()) << i;
  }
  net.set_fault_injection(FaultInjection{});

  const uint64_t replays = ping.metrics()->counter("rpc.dup_replayed")->value();
  const uint64_t op_count = ping.metrics()->counter("rpc.op.1.count")->value();
  const uint64_t op_latency_samples =
      ping.metrics()->histogram("rpc.op.1.handle_ns")->count();
  ASSERT_GT(net.retransmits(), 0u) << "fault injection produced no retransmissions";
  EXPECT_GT(replays, 0u);
  // The guarantee under test: exactly one primary count + latency sample per LOGICAL
  // call, however many deliveries each needed.
  EXPECT_EQ(op_count, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(op_latency_samples, static_cast<uint64_t>(kCalls));

  // And exactly one handle span per logical call — replays fabricate no duplicates. Each
  // rpc.call span names its target in `a` and the retransmissions it used in `b`.
  int handle_spans = 0;
  int call_spans = 0;
  uint64_t retransmits_on_spans = 0;
  for (const obs::Span& s : obs::SnapshotSpans()) {
    if (std::string(s.name) == "handle:1") {
      ++handle_spans;
    }
    if (std::string(s.name) == "rpc.call:1") {
      ++call_spans;
      EXPECT_EQ(s.a, ping.port());
      retransmits_on_spans += s.b;
    }
  }
  EXPECT_EQ(handle_spans, kCalls);
  EXPECT_EQ(call_spans, kCalls);
  EXPECT_EQ(retransmits_on_spans, net.retransmits());
}

TEST_F(TracingTest, DuplicateDeliveryFabricatesNoSpans) {
  Network net(23);
  PingService ping(&net);
  ping.Start();

  constexpr int kCalls = 40;
  FaultInjection faults;
  faults.duplicate_request = 0.5;
  net.set_fault_injection(faults);
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(net.Call(ping.port(), Message(1, {1})).ok());
  }
  net.set_fault_injection(FaultInjection{});
  ASSERT_GT(net.duplicate_deliveries(), 0u);

  EXPECT_EQ(ping.metrics()->counter("rpc.op.1.count")->value(),
            static_cast<uint64_t>(kCalls));
  int handle_spans = 0;
  for (const obs::Span& s : obs::SnapshotSpans()) {
    if (std::string(s.name) == "handle:1") {
      ++handle_spans;
    }
  }
  EXPECT_EQ(handle_spans, kCalls);
}

TEST_F(TracingTest, GetSpansScrape) {
  Network net(5);
  PingService ping(&net);
  ping.Start();
  ASSERT_TRUE(net.Call(ping.port(), Message(1, {9})).ok());

  auto text = ScrapeSpans(&net, ping.port(), 100, /*chrome_json=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("handle:1"), std::string::npos);

  auto chrome = ScrapeSpans(&net, ping.port(), 100, /*chrome_json=*/true);
  ASSERT_TRUE(chrome.ok()) << chrome.status();
  EXPECT_NE(chrome->find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(chrome->front(), '{');
}

TEST_F(TracingTest, ChunkedMultiBlockWriteIsOneTrace) {
  // A WritePages big enough to split into several kWritePageMulti chunks: every chunk's
  // RPC (and the nested block I/O) must still land in ONE connected trace under the
  // client.write_pages span.
  FullCluster cluster(1);
  FileClient client(&cluster.net(), cluster.FileServerPorts());
  auto file = client.CreateFile();
  ASSERT_TRUE(file.ok());
  auto v = client.CreateVersion(*file);
  ASSERT_TRUE(v.ok());
  std::vector<FileClient::PageWrite> writes;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.InsertRef(*v, PagePath::Root(), i).ok());
    writes.push_back(FileClient::PageWrite{PagePath({static_cast<uint32_t>(i)}),
                                           std::vector<uint8_t>(20 * 1024, 7)});
  }

  obs::ClearSpans();
  ASSERT_TRUE(client.WritePages(*v, writes).ok());

  uint64_t trace = 0;
  int write_chunks = 0;
  for (const obs::Span& s : obs::SnapshotSpans()) {
    if (std::string(s.name) == "client.write_pages") {
      trace = s.trace_id;
    }
    if (std::string(s.name) == "rpc.call:" + std::to_string(static_cast<uint32_t>(
                                                 FileOp::kWritePageMulti))) {
      ++write_chunks;
    }
  }
  ASSERT_NE(trace, 0u);
  EXPECT_GT(write_chunks, 1) << "160K of writes should not fit one 32K message";

  std::vector<obs::Span> tree = obs::SpansForTrace(trace);
  EXPECT_GT(tree.size(), static_cast<size_t>(write_chunks))
      << "server-side spans missing from the trace";
  EXPECT_EQ(CountRootsAndCheckLinkage(tree), 1);
  ASSERT_TRUE(client.Commit(*v).ok());
}

TEST_F(TracingTest, ChaosTransactionsKeepConnectedTrees) {
  // Drops, duplicates and reorders on every message: each RunTransaction must still
  // produce exactly one connected span tree (retransmissions reuse the original context,
  // replays fabricate nothing).
  for (uint64_t seed : {11ull, 29ull, 47ull}) {
    FullCluster cluster(1, 1 << 14, {}, seed);
    FileClient client(&cluster.net(), cluster.FileServerPorts());
    auto file = client.CreateFile();
    ASSERT_TRUE(file.ok());

    FaultInjection faults;
    faults.drop_request = 0.05;
    faults.drop_reply = 0.05;
    faults.duplicate_request = 0.1;
    faults.reorder_delay = 0.1;
    cluster.net().set_fault_injection(faults);

    obs::ClearSpans();
    TransactionOptions options;
    options.backoff_seed = seed;
    auto stats = RunTransaction(
        &client, *file,
        [](FileClient& c, const Capability& v) {
          return c.WriteString(v, PagePath::Root(), "chaos payload");
        },
        options);
    cluster.net().set_fault_injection(FaultInjection{});
    ASSERT_TRUE(stats.ok()) << "seed " << seed << ": " << stats.status();

    // Find the txn root, check its tree is connected and has exactly one root.
    std::vector<obs::Span> spans = obs::SnapshotSpans();
    uint64_t txn_trace = 0;
    for (const obs::Span& s : spans) {
      if (std::string(s.name) == "client.txn") {
        txn_trace = s.trace_id;
      }
    }
    ASSERT_NE(txn_trace, 0u) << "seed " << seed;
    std::vector<obs::Span> tree = obs::SpansForTrace(txn_trace);
    EXPECT_EQ(CountRootsAndCheckLinkage(tree), 1) << "seed " << seed;
    // The tree reaches all the way down: client txn -> rpc -> handle -> commit.
    std::set<std::string> names;
    for (const obs::Span& s : tree) {
      names.insert(s.name);
    }
    EXPECT_TRUE(names.count("commit") > 0) << "seed " << seed;
    EXPECT_TRUE(names.count("client.commit") > 0) << "seed " << seed;
  }
}

TEST_F(TracingTest, ContendedCommitPhasesSumToCommit) {
  // The acceptance bar: a contended commit's phase spans are siblings under "commit" and
  // account for >= 90% of the commit span (which brackets the same interval as the
  // commit.latency_ns histogram sample).
  FullCluster cluster(1);
  FileClient client(&cluster.net(), cluster.FileServerPorts());
  auto file = client.CreateFile();
  ASSERT_TRUE(file.ok());
  {
    auto v = client.CreateVersion(*file);
    ASSERT_TRUE(v.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(client.InsertRef(*v, PagePath::Root(), i).ok());
      ASSERT_TRUE(
          client.WritePage(*v, PagePath({static_cast<uint32_t>(i)}),
                           std::vector<uint8_t>(256, 1))
              .ok());
    }
    ASSERT_TRUE(client.Commit(*v).ok());
  }
  auto loser = client.CreateVersion(*file);
  auto winner = client.CreateVersion(*file);
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE(winner.ok());
  ASSERT_TRUE(
      client.WritePage(*winner, PagePath({0}), std::vector<uint8_t>(256, 2)).ok());
  ASSERT_TRUE(client.Commit(*winner).ok());
  ASSERT_TRUE(
      client.WritePage(*loser, PagePath({1}), std::vector<uint8_t>(256, 3)).ok());

  obs::ClearSpans();
  ASSERT_TRUE(client.Commit(*loser).ok());

  // commit.validate names the version under test and the committed successor it merged.
  std::vector<obs::Span> spans = obs::SnapshotSpans();
  bool saw_validate = false;
  for (const obs::Span& s : spans) {
    if (std::string(s.name) == "commit.validate") {
      saw_validate = true;
      EXPECT_EQ(s.a, loser->object);
      EXPECT_EQ(s.b, winner->object);
      EXPECT_EQ(s.status, 0u);
    }
  }
  EXPECT_TRUE(saw_validate);

  obs::PhaseBreakdown b = obs::AnalyzePhases(spans, "commit");
  ASSERT_TRUE(b.found);
  ASSERT_GT(b.total_ns, 0u);
  std::set<std::string> phase_names;
  for (const obs::PhaseStat& p : b.phases) {
    phase_names.insert(p.name);
  }
  // The contended path ran the full machinery.
  EXPECT_TRUE(phase_names.count("commit.flip") > 0);
  EXPECT_TRUE(phase_names.count("commit.validate") > 0);
  EXPECT_TRUE(phase_names.count("commit.merge") > 0);
  EXPECT_TRUE(phase_names.count("commit.finish") > 0);
  const double ratio =
      static_cast<double>(b.attributed_ns) / static_cast<double>(b.total_ns);
  EXPECT_GE(ratio, 0.9) << obs::FormatBreakdown(b);
  EXPECT_LE(ratio, 1.0 + 1e-9) << obs::FormatBreakdown(b);

  // A version that read page 0 cannot serialise after a successor that wrote it: its
  // commit.abort names it and that successor, with status kConflict.
  auto reader = client.CreateVersion(*file);
  auto writer = client.CreateVersion(*file);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(client.ReadPage(*reader, PagePath({0})).ok());
  ASSERT_TRUE(
      client.WritePage(*reader, PagePath({1}), std::vector<uint8_t>(256, 4)).ok());
  ASSERT_TRUE(
      client.WritePage(*writer, PagePath({0}), std::vector<uint8_t>(256, 5)).ok());
  ASSERT_TRUE(client.Commit(*writer).ok());
  obs::ClearSpans();
  auto conflicted = client.Commit(*reader);
  ASSERT_FALSE(conflicted.ok());
  EXPECT_EQ(conflicted.status().code(), ErrorCode::kConflict);
  int aborts = 0;
  for (const obs::Span& s : obs::SnapshotSpans()) {
    if (std::string(s.name) == "commit.abort") {
      ++aborts;
      EXPECT_EQ(s.a, reader->object);
      EXPECT_EQ(s.b, writer->object);
      EXPECT_EQ(s.status, static_cast<uint8_t>(ErrorCode::kConflict));
    }
  }
  EXPECT_EQ(aborts, 1);
}

}  // namespace
}  // namespace afs
