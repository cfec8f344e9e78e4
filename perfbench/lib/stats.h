// Small measurement helpers shared by the benchmark: a monotonic clock, a thread-safe
// latency log, exact percentiles, and the named-metric list a run prints.

#ifndef PERFBENCH_LIB_STATS_H_
#define PERFBENCH_LIB_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Exact percentile (nearest rank) of `v`, p in [0, 1]; sorts `v` in place. 0 if empty.
inline double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v->size()));
  return static_cast<double>((*v)[std::min(rank, v->size() - 1)]);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Latency samples appended from many threads (decorators record from server threads).
class SampleLog {
 public:
  void Add(uint64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(ns);
  }
  std::vector<uint64_t> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(samples_, {});
  }

 private:
  std::mutex mu_;
  std::vector<uint64_t> samples_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_STATS_H_
