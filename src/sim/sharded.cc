#include "sim/sharded.h"

#include <algorithm>
#include <utility>

#include "exec/parallel.h"

namespace flattree {

ShardedPacketSim::ShardedPacketSim(const Graph& graph,
                                   PacketSimOptions options,
                                   std::uint64_t base_seed)
    : graph_{&graph}, options_{options}, base_seed_{base_seed} {}

ShardedRunStats ShardedPacketSim::run(std::uint32_t shards,
                                      const ShardBuilder& builder,
                                      double horizon_s,
                                      exec::ThreadPool* pool,
                                      const obs::ObsSink& sink) const {
  const std::vector<ShardedRunStats> per_shard = exec::parallel_map(
      pool, shards, [this, &builder, horizon_s, &sink](std::size_t s) {
        PacketSim sim{options_};
        sim.attach_obs(sink);
        sim.set_network(*graph_);
        Rng rng = exec::task_rng(base_seed_, s);
        builder(static_cast<std::uint32_t>(s), sim, rng);
        sim.run_until(horizon_s);

        ShardedRunStats r;
        r.events_processed = sim.events_processed();
        r.packets_dropped = sim.packets_dropped();
        r.bytes_acked = sim.total_bytes_acked();
        r.flows = sim.flow_count();
        r.heap_max = sim.heap_max();
        r.arena_high_water = sim.arena_high_water();
        for (std::uint32_t f = 0; f < sim.flow_count(); ++f) {
          if (!sim.flow_completed(f)) continue;
          ++r.flows_completed;
          r.fcts_s.push_back(sim.flow_finish_time(f) -
                             sim.flow_start_time(f));
        }
        return r;
      });

  ShardedRunStats merged;
  for (const ShardedRunStats& r : per_shard) {
    merged.events_processed += r.events_processed;
    merged.packets_dropped += r.packets_dropped;
    merged.bytes_acked += r.bytes_acked;
    merged.flows += r.flows;
    merged.flows_completed += r.flows_completed;
    merged.heap_max = std::max(merged.heap_max, r.heap_max);
    merged.arena_high_water =
        std::max(merged.arena_high_water, r.arena_high_water);
    merged.fcts_s.insert(merged.fcts_s.end(), r.fcts_s.begin(),
                         r.fcts_s.end());
  }
  return merged;
}

}  // namespace flattree
