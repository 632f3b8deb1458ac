// In-memory span log for the benchmark's traced runs.
//
// Spans are recorded from outside the library: the harness wraps each
// public layer call (PacketSim::run_until, FluidSimulator::run,
// Controller::compile, the path-lookup callbacks it hands the simulators,
// ...) in a Scope named "<layer>.<call>". Spans nest by call stack, so a
// path lookup made from inside FluidSimulator::run becomes a child of the
// fluid span and fluid self time excludes it. The log lives in memory and
// is written once, at exit.
//
// A disabled log (the untraced run) records nothing: open() and close()
// are one branch each.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name{""};  // "<layer>.<call>", a string literal
  double start_s{0.0};   // host seconds since the log was created
  double end_s{0.0};
  std::int32_t parent{-1};  // index of the enclosing span, -1 at the root
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Returns the new span's index, or -1 when disabled.
  std::int32_t open(const char* name);
  void close(std::int32_t index);

 private:
  bool enabled_;
  Clock::time_point epoch_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_{log}, index_{log.open(name)} {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

// Per-name totals over spans [first, last): count, summed duration, and
// summed self time (duration minus the durations of direct children).
struct SpanTotals {
  std::uint64_t count{0};
  double total_s{0.0};
  double self_s{0.0};
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans, std::size_t first, std::size_t last);

// Self time summed per layer, the span name up to its first '.'.
[[nodiscard]] std::map<std::string, double> self_by_layer(
    const std::map<std::string, SpanTotals>& by_name);

// Tab-separated: index, name, start_s, end_s, parent. Returns false when the
// file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
