#include "exec/runner.h"

#include <cstdio>

namespace flattree::exec {

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_{std::move(options)} {
  threads_ = ThreadPool::resolve_threads(options_.threads);
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);

  if (options_.json_out != "none") {
    const std::string file = "BENCH_" + options_.name + ".json";
    if (options_.json_out.empty()) {
      json_path_ = file;
    } else if (options_.json_out.back() == '/') {
      json_path_ = options_.json_out + file;
    } else {
      json_path_ = options_.json_out;
    }
  }
  report_.bench = options_.name;
  report_.seed = options_.seed;

  if (!options_.metrics_out.empty()) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  if (!options_.trace_out.empty()) {
    tracer_ = std::make_unique<obs::EventTracer>();
  }
  sink_ = obs::ObsSink{metrics_.get(), tracer_.get()};
  if (pool_ != nullptr && sink_.enabled()) pool_->attach_obs(sink_);
}

ExperimentRunner::~ExperimentRunner() {
  if (!written_) write();
}

bool ExperimentRunner::write() {
  written_ = true;
  bool ok = true;
  std::string error;

  if (metrics_ != nullptr) {
    // Only deterministic-scope metrics reach the serialized outputs; the
    // full set (diagnostics included) goes to stderr with the timings.
    report_.metrics_json = metrics_->metrics_object_json();
    if (!write_text_file(metrics_->to_json(), options_.metrics_out, &error)) {
      std::fprintf(stderr, "[exec] %s: %s\n", options_.name.c_str(),
                   error.c_str());
      ok = false;
    } else {
      std::fprintf(stderr, "[exec] wrote metrics to %s\n",
                   options_.metrics_out.c_str());
    }
    std::fprintf(stderr, "[exec] metrics:\n%s",
                 metrics_->text_summary().c_str());
  }
  if (tracer_ != nullptr) {
    if (!tracer_->write_chrome_trace(options_.trace_out, &error)) {
      std::fprintf(stderr, "[exec] %s: %s\n", options_.name.c_str(),
                   error.c_str());
      ok = false;
    } else {
      std::fprintf(stderr, "[exec] wrote trace to %s (%zu events)\n",
                   options_.trace_out.c_str(), tracer_->size());
    }
    std::fprintf(stderr, "[exec] trace summary:\n%s",
                 tracer_->text_summary().c_str());
  }

  if (json_path_.empty()) return ok;
  if (!write_report(report_, json_path_, &error)) {
    std::fprintf(stderr, "[exec] %s: %s\n", options_.name.c_str(),
                 error.c_str());
    return false;
  }
  std::printf("[exec] wrote %s (%zu rows)\n", json_path_.c_str(),
              report_.rows.size());
  return ok;
}

void ExperimentRunner::note_stage(
    const std::string& stage,
    std::chrono::steady_clock::time_point start) const {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Timing goes to stderr: stdout stays a deterministic function of the
  // seed (the reproducibility probe diffs it across runs/thread counts).
  std::fprintf(stderr, "[exec] %s: %.3f s on %zu thread%s\n", stage.c_str(),
               seconds, threads_, threads_ == 1 ? "" : "s");
}

}  // namespace flattree::exec
