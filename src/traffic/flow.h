// Workload representation shared by the LP models and both simulators.
//
// Servers are identified by their global server index, which by the fixed
// node-ordering convention of every builder in this library (servers first)
// equals the NodeId value in any realized graph. A workload is therefore
// portable across topology modes — the same Flow list can be evaluated on
// Clos, flat-tree global/local, and random graphs.
#pragma once

#include <cstdint>
#include <vector>

namespace flattree {

struct Flow {
  std::uint32_t src{0};
  std::uint32_t dst{0};
  double bytes{0.0};        // 0 = persistent (throughput experiments)
  double start_s{0.0};
  // Flow indices that must complete before this flow starts (application
  // phase structure, e.g. torrent broadcast rounds). The empty initializer
  // lets Flow{src, dst} leave it out under -Wmissing-field-initializers.
  std::vector<std::uint32_t> depends_on{};
  // Extra latency between dependency completion and start (serialization /
  // deserialization overhead in the computation framework, §5.4).
  double dep_delay_s{0.0};
  // Coflow/job membership: flows of one application-level transfer share a
  // group; kNoGroup means ungrouped. Group completion time (the slowest
  // member's finish) is the application-level metric for shuffle-heavy
  // workloads like the Coflow benchmark the paper's Hadoop-1 trace is from.
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;
  std::uint32_t group{kNoGroup};
};

// Coflow completion times: for each group, the span from the earliest
// member start to the latest member finish. Results must be parallel to
// `flows` (as returned by FluidSimulator::run). Incomplete members make a
// group incomplete.
struct CoflowStats {
  std::uint32_t group{0};
  bool completed{false};
  double cct_s{0.0};
  std::size_t flows{0};
};

using Workload = std::vector<Flow>;

}  // namespace flattree
