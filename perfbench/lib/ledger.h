// Per-layer self time from recorded spans.
//
// A traced run records spans from the program (rpc.call:<op>, handle:<op>, commit.*,
// journal.*, shard.*, client.*) and from the benchmark (its root spans pb.txn / pb.read and
// the decorators' pb.bs.* / pb.dev.*). For every complete trace under a benchmark root,
// each span's self time is its duration minus the part of it its child spans cover; self
// times are then summed by layer through the span-name -> layer map below.
//
// handle:<op> names do not say which service ran: a handle span below a pb.bs.* span is a
// block server's, any other is a file server's.

#ifndef PERFBENCH_LIB_LEDGER_H_
#define PERFBENCH_LIB_LEDGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/span.h"

namespace perfbench {

// Layers, named after the source modules they cover.
enum Layer : int { kClient, kShard, kNet, kCore, kBlock, kDisk, kOther, kNumLayers };
const char* LayerName(int layer);

struct LayerTimes {
  std::array<uint64_t, kNumLayers> self_ns{};
  uint64_t root_ns = 0;    // summed duration of the root spans
  uint64_t roots = 0;      // complete traces attributed
  uint64_t rpc_calls = 0;  // rpc.call spans inside them
};

class SpanLedger {
 public:
  // Attribute one snapshot of the span ring. Traces whose root is not one of the
  // benchmark's root names, or that lost a span to the ring, are skipped (counted).
  void Add(const std::vector<afs::obs::Span>& spans);

  // Totals for traces rooted at `root_name` (empty if none).
  LayerTimes For(const std::string& root_name) const;
  uint64_t incomplete_traces() const { return incomplete_; }

 private:
  std::map<std::string, LayerTimes> by_root_;
  uint64_t incomplete_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_LEDGER_H_
