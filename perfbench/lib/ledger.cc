#include "lib/ledger.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool IsRootName(std::string_view name) { return name == "pb.txn" || name == "pb.read"; }

// Nanoseconds of [start, end) covered by the union of the children's intervals.
uint64_t Covered(uint64_t start, uint64_t end, std::vector<std::pair<uint64_t, uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0;
  uint64_t cursor = start;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

// The span-name -> layer map. `in_block`: the span sits below a pb.bs.* span (the
// BlockStore boundary), which is what tells a block server's handle span from a file
// server's.
Layer LayerOf(std::string_view name, bool in_block) {
  if (IsRootName(name) || StartsWith(name, "client.")) {
    return kClient;
  }
  if (StartsWith(name, "shard.")) {
    return kShard;
  }
  if (StartsWith(name, "rpc.call")) {
    return kNet;
  }
  if (StartsWith(name, "handle")) {
    return in_block ? kBlock : kCore;
  }
  if (StartsWith(name, "commit")) {
    return kCore;
  }
  if (StartsWith(name, "pb.bs.") || StartsWith(name, "stable.") || StartsWith(name, "bs.") ||
      StartsWith(name, "tier.")) {
    return kBlock;
  }
  if (StartsWith(name, "pb.dev.") || StartsWith(name, "journal.")) {
    return kDisk;
  }
  return kOther;
}

}  // namespace

const char* LayerName(int layer) {
  static constexpr const char* kNames[kNumLayers] = {"client", "shard", "net",  "core",
                                                     "block",  "disk",  "other"};
  return kNames[layer];
}

void SpanLedger::Add(const std::vector<afs::obs::Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const afs::obs::Span*>> traces;
  for (const afs::obs::Span& s : spans) {
    traces[s.trace_id].push_back(&s);
  }
  for (auto& [trace_id, members] : traces) {
    const afs::obs::Span* root = nullptr;
    std::unordered_map<uint64_t, const afs::obs::Span*> by_id;
    for (const afs::obs::Span* s : members) {
      by_id[s->span_id] = s;
      if (s->parent_span_id == 0) {
        root = s;
      }
    }
    if (root == nullptr || !IsRootName(root->name)) {
      if (root == nullptr) {
        ++incomplete_;
      }
      continue;
    }
    std::unordered_map<uint64_t, std::vector<const afs::obs::Span*>> children;
    bool complete = true;
    for (const afs::obs::Span* s : members) {
      if (s == root) {
        continue;
      }
      if (by_id.count(s->parent_span_id) == 0) {
        complete = false;
        break;
      }
      children[s->parent_span_id].push_back(s);
    }
    if (!complete) {
      ++incomplete_;
      continue;
    }
    LayerTimes& out = by_root_[root->name];
    out.roots += 1;
    out.root_ns += root->duration_ns();
    // Depth-first from the root, carrying the "below the BlockStore boundary" flag.
    std::vector<std::pair<const afs::obs::Span*, bool>> stack = {{root, false}};
    while (!stack.empty()) {
      auto [span, parent_in_block] = stack.back();
      stack.pop_back();
      const std::string_view name(span->name);
      const bool in_block = parent_in_block || StartsWith(name, "pb.bs.");
      std::vector<std::pair<uint64_t, uint64_t>> intervals;
      for (const afs::obs::Span* child : children[span->span_id]) {
        intervals.emplace_back(child->start_ns, child->end_ns);
        stack.emplace_back(child, in_block);
      }
      const uint64_t self =
          span->duration_ns() - Covered(span->start_ns, span->end_ns, std::move(intervals));
      out.self_ns[LayerOf(name, in_block)] += self;
      if (StartsWith(name, "rpc.call")) {
        out.rpc_calls += 1;
      }
    }
  }
}

LayerTimes SpanLedger::For(const std::string& root_name) const {
  auto it = by_root_.find(root_name);
  return it == by_root_.end() ? LayerTimes{} : it->second;
}

}  // namespace perfbench
