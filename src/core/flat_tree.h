// The flat-tree architecture (§3): a Clos network plus converter switches,
// convertible at run time between Clos, local (two-stage) random graph, and
// global random graph modes, per Pod.
//
// A FlatTree object owns the *static* wiring: which cables attach to which
// converter ports, the Pod-core wiring pattern (§3.2), and the inter-Pod
// side bundles (§3.3). It is built once. Operation modes are pure data: a
// ModeAssignment (one PodMode per Pod) deterministically maps to a converter
// configuration vector, and realize() materializes any configuration as a
// concrete Graph. Converter switches are passive circuit switches, so they
// never appear as hops in the realized graph — each circuit collapses to a
// direct link, exactly as the physical layer behaves.
//
// Node ids in every realized graph are identical across modes (servers,
// then edge, aggregation, core switches, each layer pod-major). A server
// keeps its NodeId when a conversion relocates it; only its attachment
// switch changes — this is what makes run-time conversion experiments
// meaningful.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/converter.h"
#include "net/graph.h"
#include "topo/params.h"

namespace flattree {

enum class PodMode : std::uint8_t { kClos, kLocal, kGlobal };
enum class WiringPattern : std::uint8_t { kPattern1, kPattern2 };

[[nodiscard]] const char* to_string(PodMode mode);

// One operation mode per Pod (§3.5 "Hybrid": arbitrary combinations).
struct ModeAssignment {
  std::vector<PodMode> pod_modes;

  static ModeAssignment uniform(std::uint32_t pods, PodMode mode) {
    return ModeAssignment{std::vector<PodMode>(pods, mode)};
  }
};

// One letter per Pod, in Pod order: C(los), L(ocal), G(lobal).
[[nodiscard]] std::string mode_letters(const ModeAssignment& assignment);

struct FlatTreeParams {
  ClosParams clos;
  std::uint32_t four_port_per_column{0};  // n in the paper (§3.1)
  std::uint32_t six_port_per_column{0};   // m in the paper (§3.1)
  WiringPattern pattern{WiringPattern::kPattern1};

  [[nodiscard]] std::uint32_t n() const { return four_port_per_column; }
  [[nodiscard]] std::uint32_t m() const { return six_port_per_column; }

  void validate() const;

  // A reasonable default: m = n = a quarter of the per-column core
  // connectors each (profiling via profile_mn() can refine this, §3.4).
  static FlatTreeParams defaults_for(const ClosParams& clos);
};

class FlatTree {
 public:
  explicit FlatTree(FlatTreeParams params);

  [[nodiscard]] const FlatTreeParams& params() const { return params_; }
  [[nodiscard]] const ClosParams& clos() const { return params_.clos; }
  [[nodiscard]] std::span<const Converter> converters() const {
    return converters_;
  }

  // Deterministic converter configuration for a mode assignment (§3.5):
  //   Clos    everything default.
  //   Local   4-port local; enough 6-port locals to put half of each edge
  //           switch's servers on the aggregation switch; the rest default.
  //   Global  4-port local; 6-port side on even rows / cross on odd rows.
  // In hybrid assignments, a 6-port converter whose side peer sits in a
  // non-global Pod falls back to local (its side bundle would otherwise
  // dangle); this keeps every circuit carrying traffic.
  [[nodiscard]] std::vector<ConverterConfig> configs_for(
      const ModeAssignment& assignment) const;

  // Materializes the network for a configuration vector. Throws
  // std::invalid_argument on illegal configurations (e.g. 4-port side) and
  // std::logic_error if side bundles are half-configured.
  [[nodiscard]] Graph realize(const std::vector<ConverterConfig>& configs) const;

  // Lower-stage realization for multi-stage composition (§2.2: "the
  // lower-layer Pods consider the edge switches in the upper-layer Pods as
  // core switches"). Materializes servers, edge and aggregation switches
  // with all intra-Pod and inter-Pod wiring, but instead of creating core
  // switch nodes reports each core connector's lower endpoint — the node an
  // upper-stage "edge" switch would receive on that connector.
  struct LowerRealization {
    Graph graph;  // servers + edges + aggs (+ their links); no cores
    // Per lower-core index: the endpoints wired to it, in deterministic
    // construction order (direct aggregation connectors first, then
    // converter connectors in converter order).
    std::vector<std::vector<NodeId>> core_endpoints;
  };
  [[nodiscard]] LowerRealization realize_lower(
      const std::vector<ConverterConfig>& configs) const;

  [[nodiscard]] Graph realize(const ModeAssignment& assignment) const {
    return realize(configs_for(assignment));
  }
  [[nodiscard]] Graph realize_uniform(PodMode mode) const {
    return realize(ModeAssignment::uniform(params_.clos.pods, mode));
  }

  // --- static wiring queries (used by tests and the control plane) -------

  // Core switch index a (pod, column, slot) core connector lands on; slots
  // 0..m-1 are blade B, m..m+n-1 blade A, m+n..g-1 direct agg connectors.
  [[nodiscard]] std::uint32_t core_for_slot(std::uint32_t pod,
                                            std::uint32_t col,
                                            std::uint32_t slot) const;

  [[nodiscard]] const Converter& converter(ConverterId id) const {
    return converters_.at(id.index());
  }

  // Global server index of local server `s` on global edge switch `edge`.
  [[nodiscard]] std::uint32_t server_index(std::uint32_t edge,
                                           std::uint32_t s) const {
    return edge * params_.clos.servers_per_edge + s;
  }

 private:
  void build_converters();
  void wire_side_bundles();
  [[nodiscard]] Graph realize_impl(
      const std::vector<ConverterConfig>& configs,
      std::vector<std::vector<NodeId>>* core_endpoints) const;

  FlatTreeParams params_;
  std::vector<Converter> converters_;
};

}  // namespace flattree
