// The contract the parallel experiment engine rests on: fan-out across any
// thread count is bit-identical to serial execution. These tests pin that
// down for the raw primitives (parallel_for / parallel_map / task_rng), for
// the two parallelized substrate paths (PathCache::precompute and
// profile_mn), and for the machine-readable result serialization; plus the
// pool lifecycle edges (shutdown drain, exception propagation, nested
// fork-join). Run them under -DFLATTREE_SANITIZE=thread as well — the tsan
// preset exists for exactly this binary.
#include "exec/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/profiling.h"
#include "exec/pool.h"
#include "exec/results.h"
#include "exec/runner.h"
#include "routing/ksp.h"
#include "topo/clos.h"

namespace flattree {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool{4};
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.help_while([&count] { return count.load() == 100; });
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool{2};
    for (int i = 0; i < 32; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
        count.fetch_add(1);
      });
    }
    // Destructor must drain all 32, not drop the queued ones.
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {2u, 8u}) {
    exec::ThreadPool pool{threads};
    std::vector<std::atomic<int>> hits(257);
    exec::parallel_for(&pool, hits.size(),
                       [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, NestedForkJoinCompletes) {
  // Benches nest: cell-level parallel_for whose cells run inner
  // parallel_for on the same pool (KSP precompute inside a grid cell).
  exec::ThreadPool pool{2};
  std::atomic<int> total{0};
  exec::parallel_for(&pool, 4, [&](std::size_t) {
    exec::parallel_for(&pool, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  exec::ThreadPool pool{4};
  // Two iterations throw; the serial loop would hit index 3 first, so the
  // parallel run must surface that one regardless of scheduling.
  try {
    exec::parallel_for(&pool, 64, [](std::size_t i) {
      if (i == 3) throw std::runtime_error("low");
      if (i == 40) throw std::runtime_error("high");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "low");
  }
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  exec::parallel_for(&pool, 16, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ParallelMap, MatchesSerialForAnyThreadCount) {
  const std::uint64_t seed = 20260805;
  const auto cell = [seed](std::size_t i) {
    Rng rng = exec::task_rng(seed, i);
    double acc = 0;
    for (int draw = 0; draw < 10; ++draw) acc += rng.next_double();
    return acc;
  };
  std::vector<double> serial;
  for (std::size_t i = 0; i < 37; ++i) serial.push_back(cell(i));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool{threads};
    const std::vector<double> parallel =
        exec::parallel_map(&pool, serial.size(), cell);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(TaskRng, StreamsAreIndexPureAndDistinct) {
  // Stream identity depends only on (base_seed, index).
  EXPECT_EQ(exec::task_seed(7, 3), exec::task_seed(7, 3));
  EXPECT_NE(exec::task_seed(7, 3), exec::task_seed(7, 4));
  EXPECT_NE(exec::task_seed(7, 3), exec::task_seed(8, 3));
  Rng a = exec::task_rng(7, 3);
  Rng b = exec::task_rng(7, 3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());
}

TEST(ProfileMn, ParallelSweepMatchesSerial) {
  const ClosParams clos = ClosParams::topo2();
  const MnProfile serial = profile_mn(clos, WiringPattern::kPattern1);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool{threads};
    const MnProfile parallel =
        profile_mn(clos, WiringPattern::kPattern1, 1, &pool);
    ASSERT_EQ(parallel.candidates.size(), serial.candidates.size());
    for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
      EXPECT_EQ(parallel.candidates[i].m, serial.candidates[i].m);
      EXPECT_EQ(parallel.candidates[i].n, serial.candidates[i].n);
      // Bit-identical, not approximately equal: same realize + stats code
      // runs per cell regardless of the thread that executes it.
      EXPECT_EQ(parallel.candidates[i].avg_server_pair_hops,
                serial.candidates[i].avg_server_pair_hops);
      EXPECT_EQ(parallel.candidates[i].avg_switch_pair_hops,
                serial.candidates[i].avg_switch_pair_hops);
    }
    EXPECT_EQ(parallel.best.m, serial.best.m);
    EXPECT_EQ(parallel.best.n, serial.best.n);
  }
}

TEST(PathCachePrecompute, MatchesSerialLookups) {
  const Graph g = build_clos(ClosParams::fat_tree(4));
  const std::vector<NodeId> servers = g.servers();
  ASSERT_GE(servers.size(), 8u);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    for (std::size_t j = 0; j < servers.size(); ++j) {
      if (i != j) pairs.emplace_back(servers[i], servers[j]);
    }
  }

  PathCache serial{g, 4};
  for (const auto& [src, dst] : pairs) {
    (void)serial.server_paths(src, dst);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool{threads};
    PathCache warmed{g, 4};
    warmed.precompute(pairs, &pool);
    EXPECT_EQ(warmed.cached_pairs(), serial.cached_pairs());
    for (const auto& [src, dst] : pairs) {
      EXPECT_EQ(warmed.server_paths(src, dst), serial.server_paths(src, dst));
    }
    // Idempotent: a second precompute finds nothing new.
    EXPECT_EQ(warmed.precompute(pairs, &pool), 0u);
  }
}

TEST(Results, SerializationIsStable) {
  exec::BenchReport report;
  report.bench = "unit";
  report.seed = 42;
  report.meta.emplace_back("k", exec::JsonValue{std::int64_t{8}});
  exec::ResultRow row;
  row.set("label", "a\"b").set("ratio", 0.1).set("count", std::uint64_t{7})
      .set("ok", true);
  report.rows.push_back(row);
  EXPECT_EQ(report.to_json(),
            "{\"bench\":\"unit\",\"seed\":42,\"k\":8,\"results\":[\n"
            "  {\"label\":\"a\\\"b\",\"ratio\":0.1,\"count\":7,\"ok\":true}\n"
            "]}\n");
}

TEST(Results, WriteReportRoundTrips) {
  exec::BenchReport report;
  report.bench = "unit_io";
  report.seed = 1;
  const std::string path = ::testing::TempDir() + "BENCH_unit_io.json";
  ASSERT_TRUE(exec::write_report(report, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[256] = {};
  const std::size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buffer, read), report.to_json());
}

TEST(Runner, JsonIsByteIdenticalAcrossThreadCounts) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  std::vector<std::string> payloads;
  for (const std::uint32_t threads : {1u, 8u}) {
    exec::RunnerOptions options;
    options.name = "unit_runner";
    options.seed = 99;
    options.threads = threads;
    options.json_out = dir;
    exec::ExperimentRunner runner{options};
    EXPECT_EQ(runner.rng(5)(), exec::task_rng(99, 5)());
    const std::vector<exec::ResultRow> rows =
        exec::parallel_map(runner.pool(), 23, [&runner](std::size_t i) {
          Rng rng = runner.rng(i);
          exec::ResultRow row;
          row.set("cell", i).set("draw", rng.next_double());
          return row;
        });
    for (const exec::ResultRow& row : rows) runner.add_row(row);
    ASSERT_TRUE(runner.write());
    std::FILE* f = std::fopen(runner.json_path().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buffer[8192] = {};
    const std::size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, f);
    std::fclose(f);
    payloads.emplace_back(buffer, read);
  }
  std::remove((dir + "BENCH_unit_runner.json").c_str());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], payloads[1]);
  // The payload never mentions the thread count.
  EXPECT_EQ(payloads[0].find("thread"), std::string::npos);
}

}  // namespace
}  // namespace flattree
