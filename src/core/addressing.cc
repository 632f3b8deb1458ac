#include "core/addressing.h"

#include <algorithm>
#include <stdexcept>

namespace flattree {

TopoCode code_for(PodMode mode) {
  switch (mode) {
    case PodMode::kGlobal: return TopoCode::kGlobal;
    case PodMode::kLocal: return TopoCode::kLocal;
    case PodMode::kClos: return TopoCode::kClos;
  }
  return TopoCode::kClos;
}

std::uint32_t FlatTreeAddress::to_ipv4() const {
  if (switch_id >= (1u << 13) || path_id >= (1u << 3) ||
      topology >= (1u << 2) || server_id >= (1u << 6)) {
    throw std::invalid_argument("FlatTreeAddress: field overflow");
  }
  return (0x0au << 24) | (static_cast<std::uint32_t>(switch_id) << 11) |
         (static_cast<std::uint32_t>(path_id) << 8) |
         (static_cast<std::uint32_t>(topology) << 6) | server_id;
}

FlatTreeAddress FlatTreeAddress::from_ipv4(std::uint32_t address) {
  if ((address >> 24) != 0x0a) {
    throw std::invalid_argument("FlatTreeAddress: not in 10.0.0.0/8");
  }
  FlatTreeAddress a;
  a.switch_id = static_cast<std::uint16_t>((address >> 11) & 0x1fff);
  a.path_id = static_cast<std::uint8_t>((address >> 8) & 0x7);
  a.topology = static_cast<std::uint8_t>((address >> 6) & 0x3);
  a.server_id = static_cast<std::uint8_t>(address & 0x3f);
  return a;
}

std::string FlatTreeAddress::str() const {
  const std::uint32_t v = to_ipv4();
  return std::to_string(v >> 24) + "." + std::to_string((v >> 16) & 0xff) +
         "." + std::to_string((v >> 8) & 0xff) + "." +
         std::to_string(v & 0xff);
}

std::uint32_t addresses_for_k(std::uint32_t k) {
  if (k == 0) throw std::invalid_argument("addresses_for_k: k must be >= 1");
  std::uint32_t a = 1;
  while (a * a < k) ++a;
  if (a > 8) {
    throw std::invalid_argument(
        "addresses_for_k: 3-bit path ID supports at most 64 concurrent paths");
  }
  return a;
}

AddressPlan::AddressPlan(const Graph& realized, TopoCode topo, std::uint32_t k)
    : topo_{topo}, k_{k}, per_server_{addresses_for_k(k)} {
  const std::uint32_t num_servers =
      static_cast<std::uint32_t>(realized.count_role(NodeRole::kServer));
  per_server_addresses_.resize(realized.node_count());

  // Rank servers under each switch by global server index ("ordered from
  // left to right" in Figure 5b).
  for (NodeId sw : realized.switches()) {
    std::vector<NodeId> attached = realized.attached_servers(sw);
    std::sort(attached.begin(), attached.end());
    const std::uint32_t switch_id = sw.value() - num_servers;
    if (switch_id >= (1u << 13)) {
      throw std::invalid_argument("AddressPlan: more than 8192 switches");
    }
    for (std::size_t rank = 0; rank < attached.size(); ++rank) {
      if (rank >= 64) {
        throw std::invalid_argument(
            "AddressPlan: more than 64 servers under one switch");
      }
      auto& list = per_server_addresses_[attached[rank].index()];
      for (std::uint32_t path = 0; path < per_server_; ++path) {
        FlatTreeAddress addr;
        addr.switch_id = static_cast<std::uint16_t>(switch_id);
        addr.path_id = static_cast<std::uint8_t>(path);
        addr.topology = static_cast<std::uint8_t>(topo);
        addr.server_id = static_cast<std::uint8_t>(rank);
        list.push_back(addr);
      }
    }
  }
}

const std::vector<FlatTreeAddress>& AddressPlan::addresses(
    NodeId server) const {
  return per_server_addresses_.at(server.index());
}

AddressBook::AddressBook(const FlatTree& tree, std::uint32_t k_global,
                         std::uint32_t k_local, std::uint32_t k_clos) {
  plans_.reserve(3);
  plans_.emplace_back(tree.realize_uniform(PodMode::kGlobal),
                      TopoCode::kGlobal, k_global);
  plans_.emplace_back(tree.realize_uniform(PodMode::kLocal), TopoCode::kLocal,
                      k_local);
  plans_.emplace_back(tree.realize_uniform(PodMode::kClos), TopoCode::kClos,
                      k_clos);
}

const AddressPlan& AddressBook::plan(PodMode mode) const {
  return plans_[static_cast<std::size_t>(code_for(mode))];
}

std::uint32_t AddressBook::addresses_per_server() const {
  std::uint32_t total = 0;
  for (const AddressPlan& plan : plans_) {
    total += plan.addresses_per_server();
  }
  return total;
}

}  // namespace flattree
