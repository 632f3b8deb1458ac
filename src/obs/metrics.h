// Deterministic metrics substrate for both simulators and the control plane.
//
// The evaluation reasons about *internal* dynamics — subflow ramp-up against
// the LP bounds (Fig 6), conversion blackout windows (Table 3 / Fig 10),
// rule-table churn during rewiring — so every layer exposes counters, gauges
// and fixed-bucket histograms through one registry instead of ad-hoc printf
// instrumentation per PR.
//
// Determinism contract (what the obs determinism tests pin down):
//   * Every mutation is a commutative aggregation — counter add, histogram
//     bucket add, gauge set_max — performed with relaxed atomics, so the
//     final value of a metric is a pure function of the *multiset* of
//     updates, never of thread interleaving. Experiment cells fanned across
//     the exec pool produce the same multiset for a fixed seed, hence the
//     exported JSON is byte-identical across thread counts.
//   * Gauge::set (last-write-wins) is the one order-dependent mutation; it
//     is for serial contexts or kDiagnostic metrics only.
//   * Metrics whose value depends on scheduling, thread count or wall clock
//     (pool task counts, task latencies) are registered kDiagnostic and
//     excluded from the deterministic JSON export; they appear in the text
//     summary only.
//   * Export order is sorted by metric name, independent of registration
//     order (cells may register concurrently in any order).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace flattree::obs {

enum class MetricScope : std::uint8_t {
  kDeterministic,  // pure function of the seed; exported to the metrics JSON
  kDiagnostic,     // scheduling/wall-clock dependent; text summary only
};

// Monotonic event count. add() is safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time value. set() is last-write-wins and therefore only
// deterministic from serial contexts; set_max() is a commutative running
// maximum, safe from parallel cells.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
// one implicit overflow bucket catches everything above the last bound.
// Tracks count/min/max (all commutative aggregations); deliberately no sum —
// floating-point accumulation order would leak thread scheduling into the
// exported bytes.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last index is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Named metric registry. Lookups create on first use and return stable
// references (metrics are never deleted); creation is mutex-guarded so cells
// running on the exec pool may register concurrently. Re-requesting a name
// with a different metric type throws std::logic_error; re-requesting a
// histogram with different bounds keeps the original bounds.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name,
                   MetricScope scope = MetricScope::kDeterministic);
  Gauge& gauge(std::string_view name,
               MetricScope scope = MetricScope::kDeterministic);
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       MetricScope scope = MetricScope::kDeterministic);

  // The inner JSON object: {"name":{"type":...},...}, sorted by name,
  // shortest-round-trip doubles. Diagnostic metrics are excluded unless
  // `include_diagnostic` — the deterministic export must not depend on
  // scheduling.
  [[nodiscard]] std::string metrics_object_json(
      bool include_diagnostic = false) const;
  // Full payload for --metrics-out: {"metrics":{...}} plus trailing newline.
  [[nodiscard]] std::string to_json(bool include_diagnostic = false) const;

  // Human-readable dump of every metric (diagnostic ones flagged).
  [[nodiscard]] std::string text_summary() const;

  [[nodiscard]] std::size_t size() const;
  void reset();  // zeroes every metric; registrations survive

 private:
  struct Entry {
    MetricScope scope{MetricScope::kDeterministic};
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace flattree::obs
