// Two-level, partition-tolerant control plane (the ROADMAP's disaggregated
// controller hierarchy, closing the last pre-PR-7 carry-over).
//
// One *root coordinator* (homed on a core switch, with the PR-6 standby on a
// second core) federates per-Pod *local controllers* (each homed on its
// Pod's first aggregation switch). Every control message still rides the
// PR-5 lossy channel (ControlChannelOptions); what changes is that the
// one-way delay per message is now derived from hop distance on the control
// topology (net/control_rtt.h) instead of a uniform constant — channel_for()
// fills ControlChannelOptions::switch_delay_s so a switch is charged the
// distance from the controller that actually programs it: its Pod's local
// controller under the hierarchy, the root under the flat baseline.
//
// Partition tolerance (run(), the serving-plane simulation):
//
//   * Heartbeats. The root exchanges heartbeats with each Pod controller
//     every heartbeat_period_s; heartbeat_miss_limit consecutive misses
//     declare the Pod partitioned (detection latency = period * limit).
//   * Graceful degradation. An islanded Pod controller keeps serving the
//     installed routes fail-static, performs *Pod-local repair* — a
//     plan_repair-style re-solve restricted to intra-Pod survivors — for
//     failures whose blast radius stays inside its Pod, and journals what
//     it installed. The flat baseline must defer every repair that needs a
//     rule installed inside the island until the partition heals: that
//     deferral window is precisely the blackhole gap bench_control_partition
//     measures between the two control planes.
//   * Rejoin reconciliation. When heartbeats resume, the Pod controller
//     replays its journal to the root and diverged pairs are reconciled
//     back to the canonical plan through the PR-5/PR-6 epoch protocol — at
//     no point does a mixed-epoch rule set serve traffic. Conversions
//     in flight across a partition inherit the executor's guarantee: the
//     kEpochFlip barrier refuses to commit a stage spanning an island, so
//     the stage rolls back one checkpoint (kPartial), never the whole
//     conversion (ConversionFaults::partitions +
//     ConversionExecOptions::pod_local_authority).
//   * Root crashes still promote the standby after failover_takeover_s;
//     Pod-local repair keeps working while the root seat is empty — the
//     hierarchy's second graceful-degradation win.
//
// Determinism: run() is a pure function of its arguments (the only RNG is
// the conversion executor's seeded channel), every ctrl.hier.* metric
// update is commutative, and repair/partition timings derive from the
// options and the graph — so results are byte-identical across threads.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "control/conversion_exec.h"
#include "control/controller.h"
#include "net/control_rtt.h"
#include "net/failures.h"
#include "net/graph.h"
#include "obs/sink.h"

namespace flattree {

enum class ControlPlaneKind : std::uint8_t {
  kFlat,          // one root (plus standby) programs every switch
  kHierarchical,  // root coordinator + per-Pod local controllers
};

[[nodiscard]] const char* to_string(ControlPlaneKind kind);

struct ControlHierarchyOptions {
  // Base lossy-channel parameters; delay_s doubles as the RTT model's
  // per-message floor, charged on top of every switch's hop distance.
  ControlChannelOptions channel{};
  // Per-hop one-way control latency on the realized graph.
  double per_hop_s{0.0002};
  double heartbeat_period_s{0.05};
  std::uint32_t heartbeat_miss_limit{3};
  // Standby promotion delay after a root crash, while serving and during a
  // delegated conversion alike.
  double failover_takeover_s{0.25};
  // ctrl.hier.* counters and gauges; all updates commutative.
  obs::ObsSink sink{};

  // Throws std::invalid_argument on out-of-range fields (see the channel's
  // own validate for its members; additionally per_hop_s >= 0,
  // heartbeat_period_s > 0, heartbeat_miss_limit >= 1,
  // failover_takeover_s >= 0, NaN rejected).
  void validate() const;
};

// Injected control-plane chaos for one run.
struct HierarchyFaults {
  // Control-network partitions between the root and Pod controllers (the
  // same windows drive ConversionFaults::partitions for a conversion in
  // flight).
  std::vector<ControlPartition> partitions;
  // When >= 0, the root controller crashes at this time; the standby is
  // promoted failover_takeover_s later.
  double root_crash_at_s{-1.0};
};

// One repair the control plane performed (or deferred) during a run.
struct HierarchyRepair {
  std::size_t pair{0};         // index into the tracked pairs
  double failed_at_s{0.0};     // when the storm broke the pair
  double installed_at_s{0.0};  // when replacement routes landed
  bool local{false};           // performed by the Pod controller
  bool deferred{false};        // waited out a partition / dead root seat
};

struct HierarchyRunResult {
  double duration_s{0.0};
  // Fraction-weighted route-availability integral over the tracked pairs:
  // the executor's integral (add_pair_blackhole_s) over the serving state,
  // plus a conversion's own over its execution span. The worst pair is the
  // conversion's worst pair or the largest per-pair serving total.
  double blackhole_pair_s{0.0};
  double max_pair_blackhole_s{0.0};

  std::uint32_t repairs_local{0};
  std::uint32_t repairs_root{0};
  std::uint32_t repairs_deferred{0};
  std::uint32_t partitions_detected{0};
  std::uint32_t partitions_rejoined{0};
  std::uint64_t heartbeats_missed{0};
  std::uint32_t journal_appended{0};   // islanded local installs journaled
  std::uint32_t journal_replayed{0};   // journal entries replayed on rejoin
  std::uint64_t pairs_reconciled{0};   // diverged pairs restored to plan
  std::uint32_t failovers{0};
  std::vector<HierarchyRepair> repairs;

  // The staged conversion driven through this control plane, if one ran.
  std::optional<ExecutionReport> conversion;

  [[nodiscard]] double mean_repair_lag_s() const;
};

class ControlHierarchy {
 public:
  // `controller` must outlive the hierarchy. Throws on invalid options.
  ControlHierarchy(const Controller& controller, ControlPlaneKind kind,
                   ControlHierarchyOptions options);

  [[nodiscard]] ControlPlaneKind kind() const { return kind_; }
  [[nodiscard]] const ControlHierarchyOptions& options() const {
    return options_;
  }

  // Controller homes on a realization: the root sits on the first core
  // switch (first aggregation switch when the realization has no cores),
  // the standby on the second core, a Pod controller on its Pod's first
  // aggregation switch (first edge switch as fallback).
  [[nodiscard]] NodeId root_site(const Graph& graph) const;
  [[nodiscard]] NodeId standby_site(const Graph& graph) const;
  [[nodiscard]] NodeId pod_site(const Graph& graph, PodId pod) const;

  // The lossy channel with topology-aware per-switch delays on `graph`:
  // every node is charged the hop distance from the controller that
  // programs it (root everywhere under kFlat; the Pod's local controller
  // for Pod switches under kHierarchical).
  [[nodiscard]] ControlChannelOptions channel_for(const Graph& graph) const;

  // Serves `pairs` on `mode` for duration_s while `storm` degrades the
  // data plane and `faults` degrade the control plane, dispatching repairs
  // through this control plane's shape. When `convert_to` is non-null, a
  // staged conversion to it is driven through a ConversionExecutor at
  // convert_at_s (exec_base supplies protocol knobs; its channel is
  // replaced by channel_for, its pod_local_authority by the hierarchy's
  // kind, its failover_takeover_s by the hierarchy's, and the
  // partition/root-crash faults are threaded through). The
  // conversion span's blackhole integral comes from the executor; the
  // serving simulation accounts the rest of the run.
  [[nodiscard]] HierarchyRunResult run(
      const CompiledMode& mode,
      std::span<const std::pair<NodeId, NodeId>> pairs,
      const FailureSchedule& storm, const HierarchyFaults& faults,
      double duration_s, const CompiledMode* convert_to = nullptr,
      double convert_at_s = 0.0,
      const ConversionExecOptions& exec_base = ConversionExecOptions{}) const;

 private:
  const Controller* controller_;
  ControlPlaneKind kind_;
  ControlHierarchyOptions options_;
};

}  // namespace flattree
