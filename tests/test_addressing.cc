#include "core/addressing.h"

#include <gtest/gtest.h>

#include <set>

namespace flattree {
namespace {

FlatTree testbed_tree() {
  FlatTreeParams p;
  p.clos = ClosParams::testbed();
  p.six_port_per_column = 1;
  p.four_port_per_column = 1;
  return FlatTree{p};
}

TEST(FlatTreeAddress, RoundTrip) {
  FlatTreeAddress a;
  a.switch_id = 1234;
  a.path_id = 5;
  a.topology = 2;
  a.server_id = 42;
  const FlatTreeAddress b = FlatTreeAddress::from_ipv4(a.to_ipv4());
  EXPECT_EQ(a, b);
}

TEST(FlatTreeAddress, AllFieldsRoundTripExhaustively) {
  for (std::uint16_t sw : {0, 1, 8191}) {
    for (std::uint8_t path : {0, 7}) {
      for (std::uint8_t topo : {0, 1, 2}) {
        for (std::uint8_t server : {0, 63}) {
          FlatTreeAddress a{sw, path, topo, server};
          EXPECT_EQ(FlatTreeAddress::from_ipv4(a.to_ipv4()), a);
        }
      }
    }
  }
}

TEST(FlatTreeAddress, PaperExampleFigure5c) {
  // Figure 5c row 1: switch 3, path 0, topology 0 (global), server 2
  // -> 10.0.24.2.
  FlatTreeAddress a{3, 0, 0, 2};
  EXPECT_EQ(a.str(), "10.0.24.2");
  // Next path id -> 10.0.25.2; path 3 -> 10.0.27.2.
  EXPECT_EQ((FlatTreeAddress{3, 1, 0, 2}.str()), "10.0.25.2");
  EXPECT_EQ((FlatTreeAddress{3, 3, 0, 2}.str()), "10.0.27.2");
  // Row 2: switch 8, path 0, topology 1 (local), server 1 -> 10.0.64.65.
  EXPECT_EQ((FlatTreeAddress{8, 0, 1, 1}.str()), "10.0.64.65");
  // Row 3: switch 5, path 0, topology 2 (clos), server 0 -> 10.0.40.128.
  EXPECT_EQ((FlatTreeAddress{5, 0, 2, 0}.str()), "10.0.40.128");
  EXPECT_EQ((FlatTreeAddress{5, 1, 2, 0}.str()), "10.0.41.128");
}

TEST(FlatTreeAddress, InTenSlashEight) {
  FlatTreeAddress a{100, 2, 1, 7};
  EXPECT_EQ(a.to_ipv4() >> 24, 0x0au);
}

TEST(FlatTreeAddress, OverflowThrows) {
  FlatTreeAddress a;
  a.switch_id = 1u << 13;
  EXPECT_THROW((void)a.to_ipv4(), std::invalid_argument);
  a = FlatTreeAddress{};
  a.path_id = 8;
  EXPECT_THROW((void)a.to_ipv4(), std::invalid_argument);
  a = FlatTreeAddress{};
  a.server_id = 64;
  EXPECT_THROW((void)a.to_ipv4(), std::invalid_argument);
  EXPECT_THROW((void)FlatTreeAddress::from_ipv4(0x0b000000),
               std::invalid_argument);
}

TEST(AddressesForK, SquareRootRule) {
  EXPECT_EQ(addresses_for_k(1), 1u);
  EXPECT_EQ(addresses_for_k(4), 2u);
  EXPECT_EQ(addresses_for_k(8), 3u);   // §4.1: 8 paths need 3 addresses
  EXPECT_EQ(addresses_for_k(16), 4u);
  EXPECT_EQ(addresses_for_k(64), 8u);
  EXPECT_THROW((void)addresses_for_k(65), std::invalid_argument);
  EXPECT_THROW((void)addresses_for_k(0), std::invalid_argument);
}

TEST(AddressPlan, PerServerCounts) {
  const FlatTree tree = testbed_tree();
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  const AddressPlan plan{g, TopoCode::kGlobal, 16};
  EXPECT_EQ(plan.addresses_per_server(), 4u);
  for (NodeId s : g.servers()) {
    EXPECT_EQ(plan.addresses(s).size(), 4u);
  }
}

TEST(AddressPlan, AddressesAreUnique) {
  const FlatTree tree = testbed_tree();
  const Graph g = tree.realize_uniform(PodMode::kGlobal);
  const AddressPlan plan{g, TopoCode::kGlobal, 4};
  std::set<std::uint32_t> seen;
  for (NodeId s : g.servers()) {
    for (const FlatTreeAddress& a : plan.addresses(s)) {
      EXPECT_TRUE(seen.insert(a.to_ipv4()).second) << a.str();
    }
  }
}

TEST(AddressPlan, SameSwitchServersSharePrefix) {
  // The /24 prefix aggregates by (switch, path id): all servers under one
  // ingress switch share it — the §4.2 state-reduction invariant.
  const FlatTree tree = testbed_tree();
  const Graph g = tree.realize_uniform(PodMode::kClos);
  const AddressPlan plan{g, TopoCode::kClos, 4};
  for (NodeId sw : g.switches()) {
    const auto servers = g.attached_servers(sw);
    if (servers.size() < 2) continue;
    const auto prefix0 = plan.addresses(servers[0])[0].ingress_prefix();
    for (NodeId s : servers) {
      EXPECT_EQ(plan.addresses(s)[0].ingress_prefix(), prefix0);
    }
  }
}

TEST(AddressPlan, TopologyFieldMatchesMode) {
  const FlatTree tree = testbed_tree();
  const Graph g = tree.realize_uniform(PodMode::kLocal);
  const AddressPlan plan{g, TopoCode::kLocal, 4};
  for (NodeId s : g.servers()) {
    for (const FlatTreeAddress& a : plan.addresses(s)) {
      EXPECT_EQ(a.topology, static_cast<std::uint8_t>(TopoCode::kLocal));
    }
  }
}

TEST(AddressBook, CombinesAllModes) {
  // Figure 5c: k = 16/8/4 -> 4 + 3 + 2 = 9 addresses per server.
  const FlatTree tree = testbed_tree();
  const AddressBook book{tree, 16, 8, 4};
  EXPECT_EQ(book.addresses_per_server(), 9u);
  EXPECT_EQ(book.plan(PodMode::kGlobal).addresses_per_server(), 4u);
  EXPECT_EQ(book.plan(PodMode::kLocal).addresses_per_server(), 3u);
  EXPECT_EQ(book.plan(PodMode::kClos).addresses_per_server(), 2u);
}

TEST(AddressBook, SwitchIdStableServerIdChanges) {
  // A relocated server keeps its identity but gets a new (switch, rank):
  // the same physical server must appear in every mode's plan.
  const FlatTree tree = testbed_tree();
  const AddressBook book{tree, 4, 4, 4};
  const Graph global = tree.realize_uniform(PodMode::kGlobal);
  for (NodeId s : global.servers()) {
    EXPECT_FALSE(book.plan(PodMode::kGlobal).addresses(s).empty());
    EXPECT_FALSE(book.plan(PodMode::kClos).addresses(s).empty());
  }
}

TEST(AddressPlan, MoreThan64ServersPerSwitchThrows) {
  // The 6-bit server ID caps a switch at 64 servers.
  Graph g;
  std::vector<NodeId> servers;
  for (int i = 0; i < 65; ++i) servers.push_back(g.add_node(NodeRole::kServer));
  const NodeId sw = g.add_node(NodeRole::kEdge);
  for (NodeId s : servers) g.add_link(s, sw, 1e9);
  EXPECT_THROW((AddressPlan{g, TopoCode::kClos, 4}), std::invalid_argument);
}

TEST(CodeFor, MatchesFigure5) {
  EXPECT_EQ(code_for(PodMode::kGlobal), TopoCode::kGlobal);
  EXPECT_EQ(code_for(PodMode::kLocal), TopoCode::kLocal);
  EXPECT_EQ(code_for(PodMode::kClos), TopoCode::kClos);
}

}  // namespace
}  // namespace flattree
