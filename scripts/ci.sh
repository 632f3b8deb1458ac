#!/usr/bin/env bash
# CI gate: tier-1 verify (build + full ctest — which now includes the
# golden-file benchmark gates and the cross-thread observability
# determinism check), the same ctest at -O3 -march=native, plus one
# sanitizer-preset build so the sanitize/tsan configurations actually gate
# changes instead of bit-rotting.
#
# Usage: scripts/ci.sh [sanitize-preset]
#   sanitize-preset   'tsan' (default) or 'sanitize' (ASan+UBSan).
#                     The preset is configured, the threaded exec and
#                     observability tests are built and run under it, and —
#                     for tsan — one bench is driven multithreaded with
#                     metrics+tracing attached to stress concurrent
#                     recording alongside the nested fan-out.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE_PRESET="${1:-tsan}"
JOBS="$(nproc)"

echo "== tier-1: configure + build + ctest (preset: default) =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== golden-file gate (explicit, fails loudly on drift) =="
ctest --test-dir build --output-on-failure -R 'golden_|obs_determinism'

echo "== benchmark digest gate (perfbench, seed 1) =="
# Each workload's result digests must equal perfbench/reference_digests.txt;
# the harness exits 1 on any difference, so a refactor that perturbs
# simulated results fails here even when no golden covers the path.
# repair_storm's peak RSS is gated too: its conversion timeline shares
# unchanged route sets and graphs across points (about 14 MB on a 4-core
# host), where a deep copy per point took about 70 MB.
for workload in packet_convert fluid_trace repair_storm; do
  out="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
    --seconds 1 --trace 0)"
  printf '%s\n' "${out}"
  if [ "${workload}" = "repair_storm" ]; then
    python3 - "$(tail -n 1 <<<"${out}")" <<'PY'
import json
import sys

rss = json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"]
print(f"repair_storm peak_rss_mb {rss:.1f} (gate: <= 32)")
sys.exit(1 if rss > 32 else 0)
PY
  fi
done

echo "== native lane: -O3 -march=native (preset: native) =="
# The whole suite again with the host's full ISA (FMA, AVX-512 where
# present). -ffp-contract=off (CMakeLists.txt) keeps every a*b+c unfused,
# so each golden and digest must hold here byte for byte; a result that
# depends on the build's code generation fails this lane.
cmake --preset native
cmake --build --preset native -j "${JOBS}"
ctest --test-dir build-native --output-on-failure -j "${JOBS}"

echo "== sanitizer gate (preset: ${SANITIZE_PRESET}) =="
# test_conversion_exhaustive (the depth-1 fault-placement matrix, 7,084
# executions) is deliberately not in this list: it takes about 30 s in the
# release build and about 4 minutes under ASan+UBSan (4-core host), and it
# drives the same single-threaded executor paths test_conversion_exec and
# test_conversion_storm cover here.
cmake --preset "${SANITIZE_PRESET}"
cmake --build "build-${SANITIZE_PRESET}" -j "${JOBS}" \
  --target test_exec test_obs test_ksp_properties test_ksp_diff \
           test_event_queue test_packet \
           test_packet_diff test_conversion_exec test_conversion_storm \
           test_autopilot test_hierarchy test_warm_repair_diff \
           test_fluid_incremental_diff test_fluid test_mcf test_properties \
           test_scenario_parse test_scenario_roundtrip test_scenario_diff
"./build-${SANITIZE_PRESET}/tests/test_exec"
"./build-${SANITIZE_PRESET}/tests/test_obs"
"./build-${SANITIZE_PRESET}/tests/test_ksp_properties"
# Yen's and is_valid_path against their set/deque oracles, including
# precompute's pool fan-out (per-thread workspaces and distance tables
# filled once under call_once, shared across threads — the TSan-relevant
# path).
"./build-${SANITIZE_PRESET}/tests/test_ksp_diff"
# The event queue's fuzz battery (lanes and heap) against a priority_queue
# oracle, the packet simulator's unit cases (conversions, whose
# blackout-delayed sends take the queue's heap instead of a lane),
# and its pinned result digests (which also drive ShardedPacketSim across a
# pool, the TSan-relevant path).
"./build-${SANITIZE_PRESET}/tests/test_event_queue"
"./build-${SANITIZE_PRESET}/tests/test_packet"
"./build-${SANITIZE_PRESET}/tests/test_packet_diff"
# The staged-conversion chaos battery (seeded adversary: lossy channel,
# dead switches, failed OCS partitions) — every trial must land fully
# converted or fully rolled back, sanitizer-clean.
"./build-${SANITIZE_PRESET}/tests/test_conversion_exec"
# Conversion under fire: storms folded mid-step, compound faults (OCS
# partition + link failure in the same tick), seeded controller failover —
# every execution must terminate bit-for-bit on a checkpointed mode,
# sanitizer-clean.
"./build-${SANITIZE_PRESET}/tests/test_conversion_storm"
# The closed loop: estimator folds, candidate pricing (nested fluid runs),
# decision-log replay and staged conversions, sanitizer-clean.
"./build-${SANITIZE_PRESET}/tests/test_autopilot"
# The two-level control plane: heartbeat/partition state machine, Pod-local
# repair + journal replay, root failover, and the compound same-tick
# control-fault fuzz (partition + root crash + link failure), every run
# terminating bit-for-bit on a checkpointed mode — sanitizer-clean.
"./build-${SANITIZE_PRESET}/tests/test_hierarchy"
# Warm-vs-legacy repair eviction differential on fuzzed failure streams.
"./build-${SANITIZE_PRESET}/tests/test_warm_repair_diff"
# The incremental-allocator differential oracle: fuzzed event streams with
# bitwise rate comparison against from-scratch progressive filling, plus
# the cross-thread metric invariance case (pool-fanned cells recording
# fluid.realloc.* concurrently — the TSan-relevant path).
"./build-${SANITIZE_PRESET}/tests/test_fluid_incremental_diff"
# The fluid simulator's unit cases, including the scheduled-run refreshes
# that keep each flow's RouteSet handle across refreshes and skip a flow
# whose new answer shares its storage.
"./build-${SANITIZE_PRESET}/tests/test_fluid"
# solve_max_min_fill runs the incremental solver's arena and back-pointer
# code for every bench caller; its unit and property tests run here too.
"./build-${SANITIZE_PRESET}/tests/test_mcf"
"./build-${SANITIZE_PRESET}/tests/test_properties"
# The scenario DSL: the malformed-spec battery (exact diagnostics), the
# parse -> canonical -> parse fixed-point fuzz, and the differential pin of
# the repair pipeline against an inline copy in every Pod mode — all
# sanitizer-clean.
"./build-${SANITIZE_PRESET}/tests/test_scenario_parse"
"./build-${SANITIZE_PRESET}/tests/test_scenario_roundtrip"
"./build-${SANITIZE_PRESET}/tests/test_scenario_diff"

if [ "${SANITIZE_PRESET}" = "tsan" ]; then
  cmake --build build-tsan -j "${JOBS}" \
    --target bench_table1 bench_ablation_mn bench_failure_recovery \
             bench_conversion_churn \
             bench_conversion_storm bench_control_partition bench_autopilot \
             bench_fluid_incremental bench_scenarios
  # Table 1's cells fan across the pool and each cell's KSP precompute
  # calls parallel_for on the same pool: nested fork-join through the
  # pool's one queue, with workers waiting in help_while.
  ./build-tsan/bench/bench_table1 --threads 4 --json-out none > /dev/null
  ./build-tsan/bench/bench_ablation_mn --threads 4 --json-out none \
    > /dev/null
  # Concurrent metric/trace recording from pool workers under TSan.
  obs_tmp="$(mktemp -d)"
  ./build-tsan/bench/bench_failure_recovery --threads 4 --json-out none \
    --metrics-out "${obs_tmp}/metrics.json" \
    --trace-out "${obs_tmp}/trace.json" > /dev/null
  # Six conversion-executor cells (each running both simulators) fanned
  # across pool workers, recording conv_exec.* metrics concurrently.
  ./build-tsan/bench/bench_conversion_churn --threads 4 --json-out none \
    --metrics-out "${obs_tmp}/churn_metrics.json" \
    --trace-out "${obs_tmp}/churn_trace.json" > /dev/null
  # Ten storm cells (checkpointed + rollback protocols under flap storms,
  # control loss and failover) fanned across pool workers, with the packet
  # replay and conv_exec.replan/checkpoint/failover metrics recording
  # concurrently.
  ./build-tsan/bench/bench_conversion_storm --threads 4 --json-out none \
    --metrics-out "${obs_tmp}/storm_metrics.json" \
    --trace-out "${obs_tmp}/storm_trace.json" > /dev/null
  # Eight partition cells (hierarchical + flat control planes under
  # islands, storms, loss and root crashes) fanned across pool workers,
  # each driving a delegated staged conversion while ctrl.hier.* metrics
  # record concurrently.
  ./build-tsan/bench/bench_control_partition --threads 4 --json-out none \
    --metrics-out "${obs_tmp}/ctrl_part_metrics.json" \
    --trace-out "${obs_tmp}/ctrl_part_trace.json" > /dev/null
  # Twelve autopilot cells (closed loop, statics, oracle, thrash arms)
  # fanned across pool workers, each cell nesting fluid pricing runs and
  # staged conversions while autopilot.* metrics record concurrently.
  ./build-tsan/bench/bench_autopilot --threads 4 --json-out none \
    --metrics-out "${obs_tmp}/autopilot_metrics.json" \
    --trace-out "${obs_tmp}/autopilot_trace.json" > /dev/null
  # Incremental-vs-scratch lockstep cells fanned across pool workers (each
  # asserting bitwise rate equality) while fluid.realloc.* counters record
  # concurrently.
  ./build-tsan/bench/bench_fluid_incremental --quick --threads 4 \
    --json-out none \
    --metrics-out "${obs_tmp}/fluid_inc_metrics.json" \
    --trace-out "${obs_tmp}/fluid_inc_trace.json" > /dev/null
  # The whole scenario battery — every engine (fluid plain/repair/reroute/
  # conversion, packet, sharded packet, autopilot) fanned across pool
  # workers with metrics+tracing recording concurrently.
  ./build-tsan/bench/bench_scenarios scenarios --threads 4 --json-out none \
    --metrics-out "${obs_tmp}/scenarios_metrics.json" \
    --trace-out "${obs_tmp}/scenarios_trace.json" > /dev/null
  rm -rf "${obs_tmp}"
fi

echo "== ci.sh: all gates passed =="
