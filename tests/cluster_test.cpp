// Unit tests for the cluster substrate: CPU processor sharing, node memory
// accounting, the multi-site cluster facade, and the background load
// generator.
#include <gtest/gtest.h>

#include "cluster/background.hpp"
#include "cluster/cluster.hpp"
#include "cluster/cpu.hpp"
#include "cluster/node.hpp"
#include "recorder.hpp"
#include "simcore/engine.hpp"

namespace lts::cluster {
namespace {

using test::Recorder;

// ---------------------------------------------------------------- cpu ----

TEST(CpuPool, UncontendedTaskRunsAtDemand) {
  sim::Engine engine;
  CpuPool pool(engine, 4.0);
  Recorder rec(engine);
  double done_at = -1.0;
  rec.hook = [&](const sim::Event&) { done_at = engine.now(); };
  // 4 core-s at 2 cores
  pool.run(2.0, 4.0, rec.event());
  engine.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(CpuPool, ContentionStretchesProportionally) {
  sim::Engine engine;
  CpuPool pool(engine, 2.0);
  // Two tasks, each demanding 2 cores on a 2-core node: each runs at 1.
  Recorder rec(engine);
  double a = -1, b = -1;
  rec.hook = [&](const sim::Event& e) {
    (e.code == 'a' ? a : b) = engine.now();
  };
  pool.run(2.0, 2.0, rec.event('a'));
  pool.run(2.0, 2.0, rec.event('b'));
  engine.run();
  EXPECT_NEAR(a, 2.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST(CpuPool, EarlyFinisherSpeedsUpRemainder) {
  sim::Engine engine;
  CpuPool pool(engine, 1.0);
  Recorder rec(engine);
  double small = -1, big = -1;
  rec.hook = [&](const sim::Event& e) {
    (e.code == 's' ? small : big) = engine.now();
  };
  pool.run(1.0, 0.5, rec.event('s'));
  pool.run(1.0, 1.5, rec.event('b'));
  engine.run();
  // Both at 0.5 cores until t=1 (small done: 0.5 work). Big then has 1.0
  // work left at full speed: done at t=2.
  EXPECT_NEAR(small, 1.0, 1e-9);
  EXPECT_NEAR(big, 2.0, 1e-9);
}

TEST(CpuPool, PersistentLoadSlowsTasks) {
  sim::Engine engine;
  CpuPool pool(engine, 2.0);
  pool.add_persistent(1.0);
  Recorder rec(engine);
  double done = -1;
  rec.hook = [&](const sim::Event&) { done = engine.now(); };
  pool.run(2.0, 2.0, rec.event());
  // demand 3 on 2 cores: task rate = 2 * (2/3) = 4/3 -> 1.5s.
  engine.run_until(10.0);
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST(CpuPool, CancelPersistentRestoresSpeed) {
  sim::Engine engine;
  CpuPool pool(engine, 1.0);
  const CpuTaskId bg = pool.add_persistent(1.0);
  Recorder rec(engine);
  double done = -1;
  rec.hook = [&](const sim::Event& e) {
    if (e.code == 'c') {
      pool.cancel(bg);
    } else {
      done = engine.now();
    }
  };
  pool.run(1.0, 1.0, rec.event('d'));
  engine.schedule_at(1.0, rec.event('c'));
  engine.run_until(10.0);
  // 0.5 work done in the first second (half speed), rest at full speed.
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST(CpuPool, TotalDemandAndUtilization) {
  sim::Engine engine;
  CpuPool pool(engine, 4.0);
  EXPECT_EQ(pool.total_demand(), 0.0);
  pool.add_persistent(1.0);
  pool.add_persistent(2.0);
  EXPECT_DOUBLE_EQ(pool.total_demand(), 3.0);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.75);
  pool.add_persistent(3.0);
  EXPECT_DOUBLE_EQ(pool.utilization(), 1.0);  // clamped
}

TEST(CpuPool, CallbackMayScheduleMoreWork) {
  sim::Engine engine;
  CpuPool pool(engine, 1.0);
  Recorder rec(engine);
  double second_done = -1;
  rec.hook = [&](const sim::Event& e) {
    if (e.code == '1') {
      pool.run(1.0, 1.0, rec.event('2'));
    } else {
      second_done = engine.now();
    }
  };
  pool.run(1.0, 1.0, rec.event('1'));
  engine.run();
  EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(CpuPool, InvalidArgsThrow) {
  sim::Engine engine;
  CpuPool pool(engine, 1.0);
  EXPECT_THROW(pool.run(0.0, 1.0), Error);
  EXPECT_THROW(pool.run(1.0, 0.0), Error);
  EXPECT_THROW(pool.add_persistent(-1.0), Error);
  EXPECT_THROW(CpuPool(engine, 0.0), Error);
}

// --------------------------------------------------------------- node ----

TEST(Node, MemoryAccounting) {
  sim::Engine engine;
  Node node(engine, "n", "site", 0, 4.0, 1000.0);
  EXPECT_DOUBLE_EQ(node.memory_available(), 1000.0);
  node.allocate_memory(300.0);
  EXPECT_DOUBLE_EQ(node.memory_used(), 300.0);
  EXPECT_DOUBLE_EQ(node.memory_pressure(), 0.3);
  node.release_memory(100.0);
  EXPECT_DOUBLE_EQ(node.memory_used(), 200.0);
}

TEST(Node, OverCommitAllowedAndVisible) {
  sim::Engine engine;
  Node node(engine, "n", "site", 0, 4.0, 1000.0);
  node.allocate_memory(1500.0);
  EXPECT_GT(node.memory_pressure(), 1.0);
  EXPECT_LT(node.memory_available(), 0.0);
}

TEST(Node, ReleaseClampsAtZero) {
  sim::Engine engine;
  Node node(engine, "n", "site", 0, 4.0, 1000.0);
  node.allocate_memory(100.0);
  node.release_memory(500.0);
  EXPECT_DOUBLE_EQ(node.memory_used(), 0.0);
}

// ------------------------------------------------------------ cluster ----

TEST(Cluster, PaperSpecBuildsSixNodesThreeSites) {
  sim::Engine engine;
  Cluster cluster(engine, paper_cluster_spec());
  EXPECT_EQ(cluster.num_nodes(), 6u);
  EXPECT_EQ(cluster.site_names().size(), 3u);
  EXPECT_EQ(cluster.node(0).site(), "ucsd");
  EXPECT_EQ(cluster.node(2).site(), "fiu");
  EXPECT_EQ(cluster.node(4).site(), "sri");
  EXPECT_DOUBLE_EQ(cluster.node(0).cores(), 6.0);
}

TEST(Cluster, NodeLookupByName) {
  sim::Engine engine;
  Cluster cluster(engine, paper_cluster_spec());
  EXPECT_EQ(cluster.node_index("node-3"), 2u);
  EXPECT_EQ(cluster.node(cluster.node_index("node-6")).site(), "sri");
  EXPECT_THROW(cluster.node_index("node-7"), Error);
}

TEST(Cluster, SiteRttsMatchSpec) {
  sim::Engine engine;
  const auto spec = paper_cluster_spec();
  Cluster cluster(engine, spec);
  for (const auto& wan : spec.wan_links) {
    EXPECT_NEAR(cluster.site_rtt(wan.site_a, wan.site_b), wan.rtt,
                wan.rtt * 0.05)
        << wan.site_a << "<->" << wan.site_b;
  }
}

TEST(Cluster, IntraSiteRttMuchSmallerThanInterSite) {
  sim::Engine engine;
  Cluster cluster(engine, paper_cluster_spec());
  const auto& flows = cluster.flows();
  const SimTime intra = flows.base_rtt(cluster.node(0).vertex(),
                                       cluster.node(1).vertex());
  const SimTime inter = flows.base_rtt(cluster.node(0).vertex(),
                                       cluster.node(2).vertex());
  EXPECT_LT(intra, inter / 10.0);
}

TEST(Cluster, PerNodeExtraDelayApplied) {
  sim::Engine engine;
  auto spec = paper_cluster_spec();
  spec.node_access_extra_delay = {0.0, 0.010, 0.0, 0.0, 0.0, 0.0};
  Cluster cluster(engine, spec);
  const auto& flows = cluster.flows();
  // node-2 has +10ms one-way on its access link; RTT to node-1 gains 20ms.
  const SimTime rtt12 = flows.base_rtt(cluster.node(0).vertex(),
                                       cluster.node(1).vertex());
  EXPECT_NEAR(rtt12, 0.020, 0.002);
}

// --------------------------------------------------------- background ----

TEST(BackgroundLoad, GeneratesTrafficAndCpuAndMemory) {
  sim::Engine engine;
  Cluster cluster(engine, paper_cluster_spec());
  BackgroundLoadOptions options;
  options.parallel_fetches = 2;
  BackgroundLoad load(cluster, 0, 2, options, Rng(5));
  load.start();
  engine.run_until(30.0);
  EXPECT_GT(load.fetches_completed(), 5u);
  // Client receives, server transmits.
  EXPECT_GT(cluster.flows().host_rx_bytes(cluster.node(0).vertex()), 1e7);
  EXPECT_GT(cluster.flows().host_tx_bytes(cluster.node(2).vertex()), 1e7);
  EXPECT_GT(cluster.node(0).memory_used(), 0.0);
  load.stop();
  EXPECT_DOUBLE_EQ(cluster.node(0).memory_used(), 0.0);
}

TEST(BackgroundLoad, StopQuiescesTraffic) {
  sim::Engine engine;
  Cluster cluster(engine, paper_cluster_spec());
  BackgroundLoad load(cluster, 1, 3, {}, Rng(5));
  load.start();
  engine.run_until(10.0);
  load.stop();
  const Bytes rx_at_stop = cluster.flows().host_rx_bytes(
      cluster.node(1).vertex());
  engine.run_until(30.0);
  EXPECT_DOUBLE_EQ(cluster.flows().host_rx_bytes(cluster.node(1).vertex()),
                   rx_at_stop);
  EXPECT_DOUBLE_EQ(cluster.node(1).cpu().total_demand(), 0.0);
}

TEST(BackgroundLoad, FetchesScaleWithParallelism) {
  sim::Engine engine1, engine2;
  Cluster c1(engine1, paper_cluster_spec());
  Cluster c2(engine2, paper_cluster_spec());
  BackgroundLoadOptions one, four;
  one.parallel_fetches = 1;
  four.parallel_fetches = 4;
  BackgroundLoad l1(c1, 0, 2, one, Rng(5));
  BackgroundLoad l4(c2, 0, 2, four, Rng(5));
  l1.start();
  l4.start();
  engine1.run_until(30.0);
  engine2.run_until(30.0);
  EXPECT_GT(l4.fetches_completed(), 2 * l1.fetches_completed());
}

TEST(BackgroundLoad, SameNodePairRejected) {
  sim::Engine engine;
  Cluster cluster(engine, paper_cluster_spec());
  EXPECT_THROW(BackgroundLoad(cluster, 1, 1, {}, Rng(1)), Error);
}

TEST(BackgroundLoad, DeterministicAcrossRebuilds) {
  auto run_once = [] {
    sim::Engine engine;
    Cluster cluster(engine, paper_cluster_spec());
    BackgroundLoadOptions options;
    options.parallel_fetches = 2;
    BackgroundLoad load(cluster, 0, 3, options, Rng(77));
    load.start();
    engine.run_until(25.0);
    return std::make_pair(load.fetches_completed(),
                          cluster.flows().host_rx_bytes(
                              cluster.node(0).vertex()));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace lts::cluster
