// The benchmark's three workloads. Each is one batch job: a function that
// builds its inputs from the seed, runs the whole pipeline once through the
// library's public API, and checks the results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "spans.h"

namespace perfbench {

// Data packets are counted as delivered bytes over this size, the packet
// simulator's default MTU.
inline constexpr double kMtuBytes = 1500.0;

// What one repetition of a workload hands back to the harness.
struct RepOutcome {
  // Host seconds per set-up pass: inputs, topology and simulators.
  std::vector<double> setup_s;
  double run_s{0.0};    // first timed layer call to the end of the last one
  double sim_pkts{0.0};   // data packets delivered (bytes / kMtuBytes)
  double sim_flows{0.0};  // finite flows completed + persistent flows carried
                          // to the horizon
  std::uint64_t digest{0};  // FNV-1a over the simulated results
  std::vector<std::string> violations;  // broken invariants; empty = correct
};

// What a repetition attaches to the library. A traced probe records spans
// around every layer call and hands the library a metrics registry through
// the public ObsSink options; an untraced probe does neither, so the library
// runs exactly as in an uninstrumented program.
class Probe {
 public:
  explicit Probe(bool traced);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  [[nodiscard]] bool traced() const { return spans_.enabled(); }
  [[nodiscard]] flattree::obs::ObsSink sink() {
    return traced() ? flattree::obs::ObsSink{&metrics_, nullptr}
                    : flattree::obs::ObsSink{};
  }
  [[nodiscard]] SpanLog& spans() { return spans_; }
  [[nodiscard]] flattree::obs::MetricsRegistry& metrics() { return metrics_; }

  // Yen's runs (routing.ksp.pairs_computed increments) made inside routing
  // spans; the rest happen inside control calls.
  std::uint64_t routed_pairs{0};
  [[nodiscard]] std::uint64_t ksp_pairs_computed() const {
    return ksp_computed_->value();
  }

 private:
  SpanLog spans_;
  flattree::obs::MetricsRegistry metrics_;
  flattree::obs::Counter* ksp_computed_;
};

using WorkloadFn = RepOutcome (*)(std::uint64_t seed, Probe& probe);

// Null for an unknown name.
[[nodiscard]] WorkloadFn find_workload(const std::string& name);

}  // namespace perfbench
