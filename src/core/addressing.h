// The flat-tree IP addressing scheme (§4.2.1, Figure 5).
//
// Address layout inside 10.0.0.0/8 (32-bit IPv4):
//
//   8 bits   fixed 00001010 (10.x.x.x)
//   13 bits  ingress/egress switch ID (stable across topology conversions)
//   3 bits   path ID (multi-homing for MPTCP subflows; up to 8 addresses
//            per server -> up to 64 concurrent paths)
//   2 bits   topology mode (0 global / 1 local / 2 clos)
//   6 bits   server ID under the ingress switch (reused across switches)
//
// A server needs one address per (topology mode, path id). All of them are
// preconfigured; MPTCP only sends on routable ones, so the controller
// activates a mode just by loading that mode's routing logic. The /24
// prefix (8 + 13 + 3 = 24 bits) aggregates all rules at the ingress/egress
// switch level, which is the key state reduction of §4.2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/flat_tree.h"
#include "net/graph.h"

namespace flattree {

// Topology codes as in Figure 5c.
enum class TopoCode : std::uint8_t { kGlobal = 0, kLocal = 1, kClos = 2 };

[[nodiscard]] TopoCode code_for(PodMode mode);

struct FlatTreeAddress {
  std::uint16_t switch_id{0};  // 13 bits
  std::uint8_t path_id{0};     // 3 bits
  std::uint8_t topology{0};    // 2 bits
  std::uint8_t server_id{0};   // 6 bits

  [[nodiscard]] std::uint32_t to_ipv4() const;
  [[nodiscard]] static FlatTreeAddress from_ipv4(std::uint32_t address);

  // Dotted-quad form, e.g. "10.0.24.2".
  [[nodiscard]] std::string str() const;

  // The /24 prefix (first 24 bits) shared by all of a switch+path's servers.
  [[nodiscard]] std::uint32_t ingress_prefix() const {
    return to_ipv4() & 0xffffff00u;
  }

  friend bool operator==(const FlatTreeAddress&,
                         const FlatTreeAddress&) = default;
};

// Number of per-server IP addresses needed for k concurrent paths:
// ceil(sqrt(k)) (the full-mesh of source/destination address pairs yields
// the subflows).
[[nodiscard]] std::uint32_t addresses_for_k(std::uint32_t k);

// Address assignment for one topology mode over its realized graph.
// Switch IDs are the realized graph's switch ordinals (node index minus the
// server count), which the fixed node ordering keeps identical across
// modes.
class AddressPlan {
 public:
  AddressPlan(const Graph& realized, TopoCode topo, std::uint32_t k);

  [[nodiscard]] const std::vector<FlatTreeAddress>& addresses(
      NodeId server) const;

  [[nodiscard]] std::uint32_t addresses_per_server() const { return per_server_; }
  [[nodiscard]] TopoCode topo() const { return topo_; }
  [[nodiscard]] std::uint32_t k() const { return k_; }

 private:
  TopoCode topo_;
  std::uint32_t k_;
  std::uint32_t per_server_{0};
  std::vector<std::vector<FlatTreeAddress>> per_server_addresses_;  // by server node index
};

// The full pre-configured address book of a convertible network: one plan
// per mode (Figure 5c lists a server's complete set across all modes).
class AddressBook {
 public:
  AddressBook(const FlatTree& tree, std::uint32_t k_global,
              std::uint32_t k_local, std::uint32_t k_clos);

  [[nodiscard]] const AddressPlan& plan(PodMode mode) const;

  // Total preconfigured addresses on one server across all modes.
  [[nodiscard]] std::uint32_t addresses_per_server() const;

 private:
  std::vector<AddressPlan> plans_;  // indexed by TopoCode
};

}  // namespace flattree
