// Pinned-digest battery for the packet simulator's event engine. Every
// observable of a run — per-flow completion, FCT bit patterns and bytes,
// drop and event counts, the heap peak and the deterministic metrics
// export — is folded into one FNV-1a digest and compared against a pinned
// constant. The runs these digests pin were checked event-for-event
// against a 4-ary indexed heap and the seed priority_queue engine. The event
// order is the total order (time, schedule sequence), so any queue that
// honours it reproduces these digests bit for bit; the oracle lives here,
// not behind a production option. Also pins the ShardedPacketSim
// contracts: shard-merge equals the monolithic run when flow groups are
// link-disjoint, and merged results are bit-identical across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/flat_tree.h"
#include "exec/parallel.h"
#include "exec/pool.h"
#include "net/rng.h"
#include "obs/metrics.h"
#include "routing/ksp.h"
#include "sim/packet.h"
#include "sim/sharded.h"
#include "topo/clos.h"
#include "topo/params.h"

namespace flattree {
namespace {

// Everything one run exposes, reduced to a digest plus the two counts the
// tests use to prove the run was non-trivial. The event queue's heap-push
// count stays out of the digest: it says how the queue stored the events,
// not what the simulation computed, and it is pinned on its own.
struct RunTrace {
  std::uint64_t digest{0};
  std::uint64_t events{0};
  std::uint64_t flows_completed{0};
  std::uint64_t heap_pushes{0};
};

// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

RunTrace capture(const PacketSim& sim, obs::MetricsRegistry& reg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, sim.flow_count());
  for (std::uint32_t f = 0; f < sim.flow_count(); ++f) {
    mix(h, sim.flow_completed(f) ? 1u : 0u);
    mix(h, std::bit_cast<std::uint64_t>(sim.flow_finish_time(f)));
    mix(h, sim.flow_bytes_acked(f));
  }
  mix(h, sim.packets_dropped());
  mix(h, sim.events_processed());
  mix(h, sim.total_bytes_acked());
  mix(h, sim.heap_max());
  for (const char c : reg.metrics_object_json()) {
    mix(h, static_cast<unsigned char>(c));
  }
  std::uint64_t completed = 0;
  for (std::uint32_t f = 0; f < sim.flow_count(); ++f) {
    completed += sim.flow_completed(f) ? 1 : 0;
  }
  return RunTrace{h, sim.events_processed(), completed, sim.heap_pushes()};
}

// The testbed flat-tree, 100 Mb/s links (scaled: keeps the event count
// tractable). Global mode is the richest small network we have: multipath
// (k = 2), converters, cross-pod contention.
Graph testbed(PodMode mode) {
  FlatTreeParams params;
  params.clos = ClosParams::testbed();
  params.clos.link_bps = 100e6;
  params.six_port_per_column = 1;
  params.four_port_per_column = 1;
  return FlatTree{params}.realize_uniform(mode);
}

// 200 finite flows with stream-seeded sizes/endpoints/start times.
RunTrace run_workload(std::uint64_t stream) {
  const Graph g = testbed(PodMode::kGlobal);
  PathCache cache{g, 2};
  PacketSim sim;
  obs::MetricsRegistry reg;
  sim.attach_obs(obs::ObsSink{&reg, nullptr});
  sim.set_network(g);
  Rng rng{mix64(stream, 0x64696666ULL /* "diff" */)};
  const std::size_t kFlows = 200;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(24));
    auto dst = static_cast<std::uint32_t>(rng.next_below(23));
    if (dst >= src) ++dst;
    const double bytes = 3e4 + rng.next_double() * 3e5;
    const double start = rng.next_double() * 0.2;
    sim.add_flow(src, dst, bytes, start,
                 cache.server_paths(NodeId{src}, NodeId{dst}));
  }
  sim.run_until(3.0);
  return capture(sim, reg);
}

// Digests are printed in hex on mismatch, so a deliberate change to the
// simulated results shows the value to re-pin (and the reason goes in the
// commit that re-pins it).
std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(PacketDiff, PinnedDigestsOn200FlowStreams) {
  constexpr std::uint64_t kPinned[5] = {
      0xf92f4fa16a50e93fULL, 0x43187bc426ce39e2ULL, 0x04d2d34f454c02daULL,
      0x7b460bc9b46934f3ULL, 0xf616d7334609f906ULL};
  // The heap takes the 200 flow starts and the RTO timers; every packet
  // event (~450k per stream) rides a lane.
  constexpr std::uint64_t kHeapPushes[5] = {626, 619, 629, 613, 621};
  for (std::uint64_t stream = 0; stream < 5; ++stream) {
    const RunTrace trace = run_workload(stream);
    EXPECT_EQ(hex(trace.digest), hex(kPinned[stream]))
        << "simulated results moved on stream " << stream;
    EXPECT_EQ(trace.heap_pushes, kHeapPushes[stream])
        << "event-queue lane use moved on stream " << stream << " ("
        << trace.events << " events)";
    // The run must be non-trivial for the pin to mean anything.
    EXPECT_GT(trace.events, 100000u);
    EXPECT_GT(trace.flows_completed, 100u);
  }
}

// Schedules below the last popped event: a full-blackout conversion
// mid-run (re-pathed subflows send and arm timers at now), then a flow
// added with a start time in the past, whose kFlowStart lands before
// every queued event. Persistent flows keep events flowing up to the
// conversion, so the late flow's start is before the last event popped.
TEST(PacketDiff, PinnedDigestWithPushesBelowTheLastPop) {
  const Graph clos = testbed(PodMode::kClos);
  const Graph global = testbed(PodMode::kGlobal);
  PathCache clos_paths{clos, 2};
  PathCache global_paths{global, 2};
  PacketSim sim;
  obs::MetricsRegistry reg;
  sim.attach_obs(obs::ObsSink{&reg, nullptr});
  sim.set_network(clos);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  Rng rng{mix64(7, 0x6c6f77ULL /* "low" */)};
  for (std::uint32_t i = 0; i < 40; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(24));
    auto dst = static_cast<std::uint32_t>(rng.next_below(23));
    if (dst >= src) ++dst;
    // Every fourth flow is persistent (bytes = 0).
    const double bytes = i % 4 == 0 ? 0.0 : 3e4 + rng.next_double() * 6e5;
    pairs.emplace_back(src, dst);
    sim.add_flow(src, dst, bytes, rng.next_double() * 0.1,
                 clos_paths.server_paths(NodeId{src}, NodeId{dst}));
  }
  sim.run_until(0.4);
  sim.apply_conversion(
      global,
      [&](std::uint32_t fi) {
        return global_paths.server_paths(NodeId{pairs[fi].first},
                                         NodeId{pairs[fi].second});
      },
      /*blackout_s=*/0.004, ConversionScope::kFullBlackout);
  sim.add_flow(3, 17, 2e5, /*start_s=*/0.05,
               global_paths.server_paths(NodeId{3}, NodeId{17}));
  sim.run_until(2.0);
  const RunTrace trace = capture(sim, reg);
  EXPECT_EQ(hex(trace.digest), hex(0x7ba11899b042ab9eULL));
  // Also the sends the 4 ms blackout holds back, which start after now.
  EXPECT_EQ(trace.heap_pushes, 1824u) << trace.events << " events";
  EXPECT_TRUE(sim.flow_completed(40)) << "the back-dated flow must finish";
  EXPECT_GT(trace.events, 100000u);
}

// ---- sharding contracts ----------------------------------------------------

// Pod-local permutation traffic on a pure Clos: paths never leave the pod,
// so per-pod groups are link-disjoint and sharding is exact.
void add_pod_flows(PacketSim& sim, PathCache& cache, const ClosParams& clos,
                   std::uint32_t pod, Rng& rng) {
  const std::uint32_t per_pod = clos.edge_per_pod * clos.servers_per_edge;
  std::vector<std::uint32_t> dst(per_pod);
  for (std::uint32_t i = 0; i < per_pod; ++i) dst[i] = pod * per_pod + i;
  shuffle(dst, rng);
  for (std::uint32_t i = 0; i < per_pod; ++i) {
    const std::uint32_t src = pod * per_pod + i;
    if (dst[i] == src) continue;
    const double bytes = 1e5 + rng.next_double() * 4e5;
    sim.add_flow(src, dst[i], bytes, rng.next_double() * 0.05,
                 cache.server_paths(NodeId{src}, NodeId{dst[i]}));
  }
}

TEST(PacketDiff, ShardedEqualsMonolithicOnDisjointGroups) {
  const ClosParams clos = ClosParams::fat_tree(4);
  ClosParams scaled = clos;
  scaled.link_bps = 100e6;
  const Graph g = build_clos(scaled);
  PathCache cache{g, 1};
  const std::uint64_t kSeed = 42;
  const double kHorizon = 1.5;

  // Monolithic: every pod's flows in one simulator, pod-major order.
  PacketSim mono;
  mono.set_network(g);
  for (std::uint32_t pod = 0; pod < scaled.pods; ++pod) {
    Rng rng = exec::task_rng(kSeed, pod);
    add_pod_flows(mono, cache, scaled, pod, rng);
  }
  mono.run_until(kHorizon);

  // Sharded: one shard per pod (the same per-pod RNG streams by
  // construction), serial pool.
  ShardedPacketSim sharded{g, PacketSimOptions{}, kSeed};
  const ShardedRunStats stats = sharded.run(
      scaled.pods,
      [&](std::uint32_t pod, PacketSim& sim, Rng& rng) {
        PathCache local{g, 1};
        add_pod_flows(sim, local, scaled, pod, rng);
      },
      kHorizon);

  EXPECT_EQ(stats.flows, mono.flow_count());
  EXPECT_EQ(stats.events_processed, mono.events_processed());
  EXPECT_EQ(stats.packets_dropped, mono.packets_dropped());
  EXPECT_EQ(stats.bytes_acked, mono.total_bytes_acked());
  std::vector<double> mono_fcts;
  std::size_t mono_completed = 0;
  for (std::uint32_t f = 0; f < mono.flow_count(); ++f) {
    if (!mono.flow_completed(f)) continue;
    ++mono_completed;
    mono_fcts.push_back(mono.flow_finish_time(f) - mono.flow_start_time(f));
  }
  EXPECT_EQ(stats.flows_completed, mono_completed);
  EXPECT_EQ(stats.fcts_s, mono_fcts);  // exact doubles, shard-major order
  EXPECT_GT(stats.flows_completed, 0u);
}

TEST(PacketDiff, ShardedRunBitIdenticalAcrossThreadCounts) {
  const ClosParams clos = ClosParams::fat_tree(4);
  ClosParams scaled = clos;
  scaled.link_bps = 100e6;
  const Graph g = build_clos(scaled);
  const auto build = [&](std::uint32_t pod, PacketSim& sim, Rng& rng) {
    PathCache local{g, 1};
    add_pod_flows(sim, local, scaled, pod, rng);
  };
  ShardedPacketSim sharded{g, PacketSimOptions{}, 7};

  const ShardedRunStats serial = sharded.run(scaled.pods, build, 1.0);
  for (const std::size_t threads : {2u, 5u}) {
    exec::ThreadPool pool{threads};
    const ShardedRunStats parallel =
        sharded.run(scaled.pods, build, 1.0, &pool);
    EXPECT_EQ(parallel.events_processed, serial.events_processed);
    EXPECT_EQ(parallel.packets_dropped, serial.packets_dropped);
    EXPECT_EQ(parallel.bytes_acked, serial.bytes_acked);
    EXPECT_EQ(parallel.flows, serial.flows);
    EXPECT_EQ(parallel.flows_completed, serial.flows_completed);
    EXPECT_EQ(parallel.heap_max, serial.heap_max);
    EXPECT_EQ(parallel.arena_high_water, serial.arena_high_water);
    EXPECT_EQ(parallel.fcts_s, serial.fcts_s);
  }
}

}  // namespace
}  // namespace flattree
