// ExperimentRunner: owns the thread pool that benches fan independent
// experiment cells across (exec::parallel_map) and serializes their result
// rows to BENCH_<name>.json alongside whatever table the bench prints.
//
// The runner owns the three knobs every bench shares — base seed, thread
// count, JSON output path — and guarantees that the result payload is a
// pure function of (bench code, base seed): cells are indexed, each cell's
// RNG stream is task_rng(base_seed, index), and rows are collected in index
// order. Thread count and stage wall-clock are observability only (printed,
// never serialized), so --threads N output is byte-identical to
// --threads 1.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/parallel.h"
#include "exec/pool.h"
#include "exec/results.h"
#include "net/rng.h"
#include "obs/sink.h"

namespace flattree::exec {

struct RunnerOptions {
  std::string name;          // bench name; JSON lands in BENCH_<name>.json
  std::uint64_t seed{20170821};
  std::uint32_t threads{0};  // 0 = one per hardware core
  // Where the JSON goes: "" = ./BENCH_<name>.json, "none" = disabled, a
  // path ending in '/' = that directory, anything else = literal file path.
  std::string json_out;
  // Observability outputs (both empty = observability fully disabled; the
  // bench's stdout and BENCH json are then byte-identical to a build
  // without the obs layer). metrics_out receives the deterministic metrics
  // JSON — byte-identical across --threads for a fixed seed — and also
  // folds a "metrics" block into BENCH_<name>.json; trace_out receives
  // Chrome trace_event JSON (load in chrome://tracing / ui.perfetto.dev).
  std::string metrics_out;
  std::string trace_out;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options);

  // Writes the report on destruction if write() was not called explicitly.
  ~ExperimentRunner();

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  // Null when running single-threaded; substrate hooks (PathCache
  // precompute, profile_mn) accept that and fall back to serial.
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] std::uint64_t seed() const { return options_.seed; }

  // The sink benches thread into simulators / controllers / caches.
  // Disabled (all-null) unless --metrics-out or --trace-out was given.
  [[nodiscard]] const obs::ObsSink& obs() const { return sink_; }

  // Deterministic per-stream RNG (stream = cell index or any stable id).
  [[nodiscard]] Rng rng(std::uint64_t stream) const {
    return task_rng(options_.seed, stream);
  }

  // Times an arbitrary stage (e.g. a parallel precompute or a cell grid)
  // and prints an "[exec] stage ..." line.
  template <typename Fn>
  auto timed_stage(const std::string& stage, Fn&& fn)
      -> decltype(fn()) {
    const auto t0 = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      note_stage(stage, t0);
    } else {
      auto result = fn();
      note_stage(stage, t0);
      return result;
    }
  }

  // Appends a result row / metadata; rows serialize in call order.
  void add_row(ResultRow row) { report_.rows.push_back(std::move(row)); }
  void add_meta(std::string key, JsonValue value) {
    report_.meta.emplace_back(std::move(key), std::move(value));
  }

  // Resolved BENCH_<name>.json path; empty when output is disabled.
  [[nodiscard]] const std::string& json_path() const { return json_path_; }

  // Writes the report now. Returns true on success (or when disabled).
  bool write();

 private:
  void note_stage(const std::string& stage,
                  std::chrono::steady_clock::time_point start) const;

  RunnerOptions options_;
  std::size_t threads_{1};
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
  std::string json_path_;
  BenchReport report_;
  bool written_{false};
  // Owned observability state; allocated only when an obs output is on.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::EventTracer> tracer_;
  obs::ObsSink sink_;
};

}  // namespace flattree::exec
