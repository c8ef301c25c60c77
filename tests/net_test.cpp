// Unit tests for the network substrate: topology/routing and the max-min
// fair flow model.
#include <gtest/gtest.h>

#include <cmath>

#include "net/flow.hpp"
#include "net/topology.hpp"
#include "recorder.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::net {
namespace {

using test::Recorder;

// A----r1----r2----B ; C hangs off r1.
struct LineTopo {
  Topology topo;
  VertexId a, b, c, r1, r2;

  explicit LineTopo(Rate access = 1e9, Rate wan = 1e8,
                    SimTime wan_delay = 0.01) {
    a = topo.add_host("A");
    b = topo.add_host("B");
    c = topo.add_host("C");
    r1 = topo.add_router("r1");
    r2 = topo.add_router("r2");
    topo.add_duplex_link(a, r1, access, 1e-4);
    topo.add_duplex_link(c, r1, access, 1e-4);
    topo.add_duplex_link(b, r2, access, 1e-4);
    topo.add_duplex_link(r1, r2, wan, wan_delay);
  }
};

TEST(Topology, RoutesFollowShortestDelay) {
  LineTopo t;
  const auto& path = t.topo.route(t.a, t.b);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(t.topo.link(path[0]).from, t.a);
  EXPECT_EQ(t.topo.link(path.back()).to, t.b);
}

TEST(Topology, PathDelaySumsLinks) {
  LineTopo t;
  EXPECT_NEAR(t.topo.path_prop_delay(t.a, t.b), 1e-4 + 0.01 + 1e-4, 1e-12);
  EXPECT_NEAR(t.topo.path_prop_delay(t.a, t.c), 2e-4, 1e-12);
}

TEST(Topology, DuplicateNameThrows) {
  Topology topo;
  topo.add_host("x");
  EXPECT_THROW(topo.add_host("x"), Error);
}

TEST(Topology, UnreachableThrows) {
  Topology topo;
  const auto a = topo.add_host("a");
  const auto b = topo.add_host("b");
  EXPECT_THROW(topo.route(a, b), Error);
}

TEST(Topology, RouteToSelfThrows) {
  Topology topo;
  const auto a = topo.add_host("a");
  EXPECT_THROW(topo.route(a, a), Error);
}

TEST(Topology, FindVertexByName) {
  LineTopo t;
  EXPECT_EQ(t.topo.find_vertex("A"), t.a);
  EXPECT_EQ(t.topo.find_vertex("nope"), kNoVertex);
}

TEST(Topology, HostsExcludeRouters) {
  LineTopo t;
  const auto hosts = t.topo.hosts();
  EXPECT_EQ(hosts.size(), 3u);
}

TEST(Topology, ShorterPathPreferred) {
  // Two routes a->b: direct slow-delay link vs two fast-delay hops.
  Topology topo;
  const auto a = topo.add_host("a");
  const auto b = topo.add_host("b");
  const auto r = topo.add_router("r");
  topo.add_duplex_link(a, b, 1e9, 0.050);
  topo.add_duplex_link(a, r, 1e9, 0.001);
  topo.add_duplex_link(r, b, 1e9, 0.001);
  EXPECT_EQ(topo.route(a, b).size(), 2u);  // via router
}

// ------------------------------------------------------------- flows ----

TEST(FlowManager, SingleFlowUsesBottleneckCapacity) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;  // cap off for this test
  FlowManager fm(engine, t.topo, opts);
  Recorder rec(engine);
  bool done = false;
  rec.hook = [&](const sim::Event&) { done = true; };
  // 100 MB over 100 MB/s WAN
  fm.start(t.a, t.b, 1e8, rec.event());
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(engine.now(), 1.0, 0.01);
}

TEST(FlowManager, TwoFlowsShareBottleneckFairly) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  Recorder rec(engine);
  int done = 0;
  rec.hook = [&](const sim::Event&) { ++done; };
  // Both A->B and C->B cross the 100 MB/s WAN link: 50 MB/s each, so each
  // 50 MB transfer takes 1 s.
  fm.start(t.a, t.b, 5e7, rec.event());
  fm.start(t.c, t.b, 5e7, rec.event());
  engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(engine.now(), 1.0, 0.01);
}

TEST(FlowManager, EarlyCompletionFreesBandwidth) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  Recorder rec(engine);
  double small_done = -1.0, big_done = -1.0;
  rec.hook = [&](const sim::Event& e) {
    (e.code == 's' ? small_done : big_done) = engine.now();
  };
  fm.start(t.a, t.b, 2.5e7, rec.event('s'));
  fm.start(t.c, t.b, 7.5e7, rec.event('b'));
  engine.run();
  // Phase 1: both at 50 MB/s until the small one finishes at t=0.5 with
  // the big one at 25 MB remaining... it then gets the full 100 MB/s:
  // 50 MB remaining at t=0.5 -> done at t=1.0.
  EXPECT_NEAR(small_done, 0.5, 0.01);
  EXPECT_NEAR(big_done, 1.0, 0.01);
}

TEST(FlowManager, TcpWindowCapsLongRttFlows) {
  sim::Engine engine;
  LineTopo t(1e9, 1e9, 0.05);  // 100 ms RTT path, fat links
  FlowOptions opts;
  opts.tcp_window_bytes = 1e6;  // 1 MB window
  opts.host_stack_delay = 0.0;
  FlowManager fm(engine, t.topo, opts);
  Recorder rec(engine);
  bool done = false;
  rec.hook = [&](const sim::Event&) { done = true; };
  // base rtt ~ 2*(1e-4 + 0.05 + 1e-4) = 0.1004 s; cap ~ 9.96 MB/s.
  fm.start(t.a, t.b, 1e7, rec.event());
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(engine.now(), 1e7 / (1e6 / 0.1004), 0.02);
}

TEST(FlowManager, CancelStopsFlowAndCallback) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  Recorder rec(engine);
  bool fired = false;
  FlowId id = 0;
  rec.hook = [&](const sim::Event& e) {
    if (e.code == 'c') {
      fm.cancel(id);
    } else {
      fired = true;
    }
  };
  id = fm.start(t.a, t.b, 1e9, rec.event('f'));
  engine.schedule_in(0.1, rec.event('c'));
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(fm.num_active(), 0u);
}

TEST(FlowManager, HostCountersAccumulate) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  fm.start(t.a, t.b, 5e7);
  engine.run();
  EXPECT_NEAR(fm.host_tx_bytes(t.a), 5e7, 1.0);
  EXPECT_NEAR(fm.host_rx_bytes(t.b), 5e7, 1.0);
  EXPECT_NEAR(fm.host_tx_bytes(t.b), 0.0, 1e-9);
  EXPECT_NEAR(fm.host_rx_bytes(t.c), 0.0, 1e-9);
}

TEST(FlowManager, MidFlightCountersReflectProgress) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  fm.start(t.a, t.b, 1e8);  // 1s at 100 MB/s
  engine.run_until(0.5);
  EXPECT_NEAR(fm.host_tx_bytes(t.a), 5e7, 1e6);
}

TEST(FlowManager, UtilizationAndQueueing) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  const SimTime idle_rtt = fm.current_rtt(t.a, t.b);
  fm.start(t.a, t.b, 1e9);
  // WAN link saturated: utilization 1, queueing delay raises the RTT.
  const auto& path = t.topo.route(t.a, t.b);
  EXPECT_NEAR(fm.link_utilization(path[1]), 1.0, 1e-9);
  EXPECT_GT(fm.current_rtt(t.a, t.b), idle_rtt);
}

TEST(FlowManager, BaseRttSymmetric) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  EXPECT_NEAR(fm.base_rtt(t.a, t.b), fm.base_rtt(t.b, t.a), 1e-12);
}

TEST(FlowManager, ManyFlowsAllComplete) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  Recorder rec(engine);
  int done = 0;
  rec.hook = [&](const sim::Event&) { ++done; };
  for (int i = 0; i < 50; ++i) {
    fm.start(i % 2 == 0 ? t.a : t.c, t.b, 1e6 * (i + 1), rec.event());
  }
  engine.run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(fm.num_completed(), 50u);
}

TEST(FlowManager, CallbackMayStartNewFlow) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  Recorder rec(engine);
  bool chained = false;
  rec.hook = [&](const sim::Event& e) {
    if (e.code == '1') {
      fm.start(t.b, t.c, 1e6, rec.event('2'));
    } else {
      chained = true;
    }
  };
  fm.start(t.a, t.b, 1e6, rec.event('1'));
  engine.run();
  EXPECT_TRUE(chained);
}

TEST(FlowManager, ZeroOrNegativeSizeThrows) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  EXPECT_THROW(fm.start(t.a, t.b, 0.0), Error);
  EXPECT_THROW(fm.start(t.a, t.a, 10.0), Error);
}

TEST(FlowManager, RatesRespectLinkCapacityInvariant) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  for (int i = 0; i < 20; ++i) {
    fm.start(t.a, t.b, 1e7);
    fm.start(t.c, t.b, 1e7);
  }
  for (std::size_t l = 0; l < t.topo.num_links(); ++l) {
    EXPECT_LE(fm.link_utilization(static_cast<LinkId>(l)), 1.0 + 1e-9);
  }
  engine.run();
}

}  // namespace
}  // namespace lts::net

// ----------------------------------------------------- additional edges ----

namespace lts::net {
namespace {

TEST(FlowManager, InfoTracksMidFlightProgress) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  const FlowId id = fm.start(t.a, t.b, 1e8);
  engine.run_until(0.25);
  const auto info = fm.info(id);
  EXPECT_EQ(info.src, t.a);
  EXPECT_EQ(info.dst, t.b);
  EXPECT_DOUBLE_EQ(info.total, 1e8);
  EXPECT_NEAR(info.transferred, 2.5e7, 1e6);
  EXPECT_NEAR(info.rate, 1e8, 1.0);
  engine.run();
  EXPECT_FALSE(fm.active(id));
  EXPECT_THROW(fm.info(id), Error);
}

TEST(FlowManager, CancelMidCompletionWindowIsSafe) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  std::vector<FlowId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(fm.start(t.a, t.b, 1e6 * (i + 1)));
  }
  // Cancel every other flow from inside an event between completions.
  Recorder rec(engine);
  rec.hook = [&](const sim::Event&) {
    for (std::size_t i = 0; i < ids.size(); i += 2) fm.cancel(ids[i]);
  };
  engine.schedule_in(0.001, rec.event());
  engine.run();
  EXPECT_EQ(fm.num_active(), 0u);
  EXPECT_EQ(fm.num_completed(), 5u);
}

TEST(FlowManager, QueueingRaisesMeasuredRttMonotonically) {
  sim::Engine engine;
  LineTopo t;
  FlowOptions opts;
  opts.tcp_window_bytes = 1e12;
  FlowManager fm(engine, t.topo, opts);
  double previous = fm.current_rtt(t.a, t.b);
  for (int i = 0; i < 4; ++i) {
    fm.start(t.a, t.b, 1e9);
    const double now = fm.current_rtt(t.a, t.b);
    EXPECT_GE(now, previous - 1e-12);
    previous = now;
  }
}

TEST(FlowManager, ActiveFlowCountPerHost) {
  sim::Engine engine;
  LineTopo t;
  FlowManager fm(engine, t.topo);
  fm.start(t.a, t.b, 1e9);
  fm.start(t.a, t.c, 1e9);
  fm.start(t.c, t.b, 1e9);
  EXPECT_EQ(fm.host_active_flows(t.a), 2u);
  EXPECT_EQ(fm.host_active_flows(t.b), 2u);
  EXPECT_EQ(fm.host_active_flows(t.c), 2u);
}

}  // namespace
}  // namespace lts::net
