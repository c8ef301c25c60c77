// Property-based tests: invariants that must hold across randomized inputs,
// swept with parameterized gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "cluster/cluster.hpp"
#include "cluster/cpu.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/model.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "simcore/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lts {
namespace {

// =================================================== flow conservation ====

class FlowPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowPropertyTest, BytesConservedAcrossRandomWorkload) {
  // Every byte transmitted by some host is received by another; totals
  // match the requested transfer sizes exactly once all flows finish.
  Rng rng(GetParam());
  sim::Engine engine;
  net::Topology topo;
  std::vector<net::VertexId> hosts;
  const auto r1 = topo.add_router("r1");
  const auto r2 = topo.add_router("r2");
  topo.add_duplex_link(r1, r2, rng.uniform(5e7, 5e8), rng.uniform(1e-3, 5e-2));
  for (int i = 0; i < 5; ++i) {
    hosts.push_back(topo.add_host("h" + std::to_string(i)));
    topo.add_duplex_link(hosts.back(), i % 2 == 0 ? r1 : r2,
                         rng.uniform(1e8, 1e9), 1e-4);
  }
  net::FlowManager fm(engine, topo);
  double total_requested = 0.0;
  const int n_flows = 30;
  for (int i = 0; i < n_flows; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, 4));
    auto dst = static_cast<std::size_t>(rng.uniform_int(0, 3));
    if (dst >= src) ++dst;
    const Bytes size = rng.uniform(1e5, 5e7);
    total_requested += size;
    engine.schedule_in(rng.uniform(0.0, 2.0), [&fm, &hosts, src, dst, size] {
      fm.start(hosts[src], hosts[dst], size, nullptr);
    });
  }
  engine.run();
  EXPECT_EQ(fm.num_completed(), static_cast<std::uint64_t>(n_flows));
  double total_tx = 0.0, total_rx = 0.0;
  for (const auto h : hosts) {
    total_tx += fm.host_tx_bytes(h);
    total_rx += fm.host_rx_bytes(h);
  }
  EXPECT_NEAR(total_tx, total_requested, total_requested * 1e-9);
  EXPECT_NEAR(total_rx, total_requested, total_requested * 1e-9);
}

TEST_P(FlowPropertyTest, LinkCapacityNeverExceeded) {
  Rng rng(GetParam() ^ 0x1111);
  sim::Engine engine;
  net::Topology topo;
  const auto a = topo.add_host("a");
  const auto b = topo.add_host("b");
  const auto c = topo.add_host("c");
  const auto r = topo.add_router("r");
  topo.add_duplex_link(a, r, 2e8, 1e-4);
  topo.add_duplex_link(b, r, 1e8, 1e-4);
  topo.add_duplex_link(c, r, 3e8, 1e-4);
  net::FlowManager fm(engine, topo);
  const net::VertexId hosts[] = {a, b, c};
  for (int i = 0; i < 25; ++i) {
    const auto s = static_cast<std::size_t>(rng.uniform_int(0, 2));
    auto d = static_cast<std::size_t>(rng.uniform_int(0, 1));
    if (d >= s) ++d;
    fm.start(hosts[s], hosts[d], rng.uniform(1e6, 1e8), nullptr);
    for (std::size_t l = 0; l < topo.num_links(); ++l) {
      EXPECT_LE(fm.link_utilization(static_cast<net::LinkId>(l)),
                1.0 + 1e-9);
    }
  }
  engine.run();
}

TEST_P(FlowPropertyTest, MaxMinAllocationIsWorkConserving) {
  // Pareto efficiency: every flow is limited by a saturated link on its
  // path or by its TCP cap; otherwise the allocation wasted capacity.
  Rng rng(GetParam() ^ 0x2222);
  sim::Engine engine;
  net::Topology topo;
  const auto a = topo.add_host("a");
  const auto b = topo.add_host("b");
  const auto r1 = topo.add_router("r1");
  const auto r2 = topo.add_router("r2");
  topo.add_duplex_link(a, r1, 4e8, 1e-4);
  topo.add_duplex_link(r1, r2, 1e8, rng.uniform(1e-3, 3e-2));
  topo.add_duplex_link(r2, b, 4e8, 1e-4);
  net::FlowOptions options;
  options.tcp_window_bytes = rng.uniform(5e5, 5e6);
  net::FlowManager fm(engine, topo, options);
  std::vector<net::FlowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(fm.start(a, b, 1e10, nullptr));
  }
  const SimTime rtt = fm.base_rtt(a, b);
  const Rate cap = options.tcp_window_bytes / rtt;
  double total_rate = 0.0;
  for (const auto id : ids) total_rate += fm.info(id).rate;
  // Either the bottleneck link is saturated or everyone runs at cap.
  const bool link_saturated = total_rate >= 1e8 * (1.0 - 1e-6);
  bool all_capped = true;
  for (const auto id : ids) {
    if (fm.info(id).rate < cap * (1.0 - 1e-6)) all_capped = false;
  }
  EXPECT_TRUE(link_saturated || all_capped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ============================ max-min fairness on random topologies ========

// Random multi-site topology: 2-4 site routers in a full WAN mesh, each with
// 1-3 hosts, all capacities and delays drawn at random. Capacities stay well
// above the flow solver's dead-link rate floor so the floor never distorts
// the allocation invariants below.
struct RandomTopo {
  net::Topology topo;
  std::vector<net::VertexId> hosts;
};

RandomTopo make_random_topology(Rng& rng) {
  RandomTopo rt;
  const int n_sites = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<net::VertexId> routers;
  for (int s = 0; s < n_sites; ++s) {
    routers.push_back(rt.topo.add_router("r" + std::to_string(s)));
  }
  for (int i = 0; i < n_sites; ++i) {
    for (int j = i + 1; j < n_sites; ++j) {
      rt.topo.add_duplex_link(routers[i], routers[j], rng.uniform(5e7, 6e8),
                              rng.uniform(1e-3, 5e-2));
    }
  }
  for (int s = 0; s < n_sites; ++s) {
    const int n_hosts = static_cast<int>(rng.uniform_int(1, 3));
    for (int h = 0; h < n_hosts; ++h) {
      rt.hosts.push_back(rt.topo.add_host("h" + std::to_string(s) + "_" +
                                          std::to_string(h)));
      rt.topo.add_duplex_link(rt.hosts.back(), routers[s],
                              rng.uniform(1e8, 1e9),
                              rng.uniform(5e-5, 5e-4));
    }
  }
  return rt;
}

// Checks the defining max-min fair allocation invariants against the
// solver's current rates, reconstructing each flow's path from the
// topology's deterministic routing:
//   1. no negative rates;
//   2. per-link allocated rate never exceeds capacity;
//   3. every flow has a bottleneck: it runs at its TCP cap, or some link on
//      its path is saturated AND carries no flow faster than it (increasing
//      this flow's rate would require decreasing a slower-or-equal one).
void expect_max_min_fair(const net::FlowManager& fm, const net::Topology& topo,
                         const std::vector<net::FlowId>& ids,
                         Bytes tcp_window) {
  constexpr double kTol = 1e-6;
  struct ActiveFlow {
    net::FlowInfo info;
    const std::vector<net::LinkId>* path;
  };
  std::vector<ActiveFlow> flows;
  std::vector<Rate> link_sum(topo.num_links(), 0.0);
  std::vector<Rate> link_max(topo.num_links(), 0.0);
  for (const auto id : ids) {
    if (!fm.active(id)) continue;
    ActiveFlow f{fm.info(id), nullptr};
    EXPECT_GE(f.info.rate, 0.0);
    f.path = &topo.route(f.info.src, f.info.dst);
    for (const auto l : *f.path) {
      link_sum[static_cast<std::size_t>(l)] += f.info.rate;
      link_max[static_cast<std::size_t>(l)] =
          std::max(link_max[static_cast<std::size_t>(l)], f.info.rate);
    }
    flows.push_back(f);
  }
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const Rate capacity = topo.link(static_cast<net::LinkId>(l)).capacity;
    EXPECT_LE(link_sum[l], capacity * (1.0 + kTol))
        << "link " << l << " over capacity";
  }
  for (const auto& f : flows) {
    const Rate cap = tcp_window / fm.base_rtt(f.info.src, f.info.dst);
    if (f.info.rate >= cap * (1.0 - kTol)) continue;  // TCP-window limited
    bool has_bottleneck = false;
    for (const auto l : *f.path) {
      const auto li = static_cast<std::size_t>(l);
      const Rate capacity = topo.link(l).capacity;
      if (link_sum[li] >= capacity * (1.0 - kTol) &&
          f.info.rate >= link_max[li] * (1.0 - kTol)) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck)
        << "flow " << f.info.src << "->" << f.info.dst << " at rate "
        << f.info.rate << " is neither capped nor bottlenecked";
  }
}

class MaxMinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinPropertyTest, RandomTopologyAllocationIsMaxMinFair) {
  Rng rng(GetParam() ^ 0x3333);
  sim::Engine engine;
  RandomTopo rt = make_random_topology(rng);
  net::FlowOptions options;
  net::FlowManager fm(engine, rt.topo, options);
  std::vector<net::FlowId> ids;
  const int n_flows = static_cast<int>(rng.uniform_int(5, 25));
  for (int i = 0; i < n_flows; ++i) {
    const auto src =
        static_cast<std::size_t>(rng.uniform_int(0, rt.hosts.size() - 1));
    auto dst =
        static_cast<std::size_t>(rng.uniform_int(0, rt.hosts.size() - 2));
    if (dst >= src) ++dst;
    // Large transfers: no flow finishes while we inspect the allocation.
    ids.push_back(fm.start(rt.hosts[src], rt.hosts[dst], 1e12, nullptr));
  }
  expect_max_min_fair(fm, rt.topo, ids, options.tcp_window_bytes);
}

TEST_P(MaxMinPropertyTest, InvariantsSurviveCapacityCutsAndRestore) {
  // The fault injector mutates link capacities mid-run and calls refresh();
  // the allocation must satisfy the same invariants against the *degraded*
  // capacities, and byte conservation must hold end-to-end.
  Rng rng(GetParam() ^ 0x4444);
  sim::Engine engine;
  RandomTopo rt = make_random_topology(rng);
  net::FlowOptions options;
  net::FlowManager fm(engine, rt.topo, options);
  std::vector<net::FlowId> ids;
  double total_requested = 0.0;
  for (int i = 0; i < 12; ++i) {
    const auto src =
        static_cast<std::size_t>(rng.uniform_int(0, rt.hosts.size() - 1));
    auto dst =
        static_cast<std::size_t>(rng.uniform_int(0, rt.hosts.size() - 2));
    if (dst >= src) ++dst;
    const Bytes size = rng.uniform(1e8, 2e9);
    total_requested += size;
    ids.push_back(fm.start(rt.hosts[src], rt.hosts[dst], size, nullptr));
  }
  engine.run_until(0.5);

  // Degrade a few random links the way the injector does.
  std::vector<std::pair<net::LinkId, Rate>> saved;
  const int n_cuts = static_cast<int>(rng.uniform_int(1, 3));
  for (int c = 0; c < n_cuts; ++c) {
    const auto l = static_cast<net::LinkId>(
        rng.uniform_int(0, static_cast<std::int64_t>(rt.topo.num_links()) - 1));
    const Rate original = rt.topo.link(l).capacity;
    saved.emplace_back(l, original);
    rt.topo.set_link_capacity(l, original * rng.uniform(0.2, 0.7));
  }
  fm.invalidate_rates();
  expect_max_min_fair(fm, rt.topo, ids, options.tcp_window_bytes);

  engine.run_until(1.5);
  for (const auto& [l, original] : saved) {
    rt.topo.set_link_capacity(l, original);
  }
  fm.invalidate_rates();
  expect_max_min_fair(fm, rt.topo, ids, options.tcp_window_bytes);

  // With capacities restored every transfer must finish, delivering exactly
  // the requested bytes (conservation through the degraded interval).
  engine.run();
  EXPECT_EQ(fm.num_completed(), ids.size());
  double total_tx = 0.0, total_rx = 0.0;
  for (const auto h : rt.hosts) {
    total_tx += fm.host_tx_bytes(h);
    total_rx += fm.host_rx_bytes(h);
  }
  EXPECT_NEAR(total_tx, total_requested, total_requested * 1e-9);
  EXPECT_NEAR(total_rx, total_requested, total_requested * 1e-9);
}

// Reference progressive-filling solver: the textbook algorithm written the
// straightforward way — map-ordered flows, full per-round link scans, dense
// per-round count/bottleneck arrays. The production solver reaches the same
// allocation through epoch-stamped sparse updates over a path arena, so the
// two must agree not approximately but BIT-FOR-BIT: every freeze happens in
// the same order with the same operands, hence identical doubles.
struct RefFlow {
  std::vector<net::LinkId> path;
  Rate cap = 0.0;
  Rate rate = 0.0;
};

void naive_max_min_rates(const net::Topology& topo,
                         std::map<net::FlowId, RefFlow>& flows) {
  if (flows.empty()) return;
  std::vector<RefFlow*> unfrozen;
  unfrozen.reserve(flows.size());
  for (auto& [id, f] : flows) {
    f.rate = 0.0;
    unfrozen.push_back(&f);
  }
  std::vector<Rate> residual(topo.num_links());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = topo.link(static_cast<net::LinkId>(i)).capacity;
  }
  std::vector<int> link_count(topo.num_links(), 0);
  auto freeze = [&](RefFlow* f, Rate rate) {
    f->rate = std::max(rate, 1e-3);
    for (const net::LinkId lid : f->path) {
      residual[static_cast<std::size_t>(lid)] =
          std::max(0.0, residual[static_cast<std::size_t>(lid)] - f->rate);
    }
  };
  while (!unfrozen.empty()) {
    std::fill(link_count.begin(), link_count.end(), 0);
    for (const RefFlow* f : unfrozen) {
      for (const net::LinkId lid : f->path) {
        ++link_count[static_cast<std::size_t>(lid)];
      }
    }
    Rate share = std::numeric_limits<Rate>::infinity();
    for (std::size_t i = 0; i < link_count.size(); ++i) {
      if (link_count[i] == 0) continue;
      share = std::min(share, residual[i] / static_cast<Rate>(link_count[i]));
    }
    bool froze_capped = false;
    for (std::size_t i = 0; i < unfrozen.size();) {
      if (unfrozen[i]->cap <= share) {
        freeze(unfrozen[i], unfrozen[i]->cap);
        unfrozen[i] = unfrozen.back();
        unfrozen.pop_back();
        froze_capped = true;
      } else {
        ++i;
      }
    }
    if (froze_capped) continue;
    std::vector<char> is_bottleneck(link_count.size(), 0);
    for (std::size_t li = 0; li < link_count.size(); ++li) {
      if (link_count[li] > 0 &&
          residual[li] / static_cast<Rate>(link_count[li]) <=
              share * (1.0 + 1e-12)) {
        is_bottleneck[li] = 1;
      }
    }
    for (std::size_t i = 0; i < unfrozen.size();) {
      bool on_bottleneck = false;
      for (const net::LinkId lid : unfrozen[i]->path) {
        if (is_bottleneck[static_cast<std::size_t>(lid)]) {
          on_bottleneck = true;
          break;
        }
      }
      if (on_bottleneck) {
        freeze(unfrozen[i], share);
        unfrozen[i] = unfrozen.back();
        unfrozen.pop_back();
      } else {
        ++i;
      }
    }
  }
}

TEST_P(MaxMinPropertyTest, OptimizedSolverMatchesNaiveSolverBitForBit) {
  Rng rng(GetParam() ^ 0x5555);
  sim::Engine engine;
  RandomTopo rt = make_random_topology(rng);
  net::FlowOptions options;
  net::FlowManager fm(engine, rt.topo, options);
  std::map<net::FlowId, RefFlow> ref;

  auto check = [&] {
    naive_max_min_rates(rt.topo, ref);
    for (const auto& [id, f] : ref) {
      ASSERT_TRUE(fm.active(id));
      // Exact double equality, not EXPECT_NEAR: the overhaul's contract is
      // that it changed the solver's bookkeeping, not its arithmetic.
      EXPECT_EQ(fm.info(id).rate, f.rate) << "flow " << id;
    }
    // Per-host intrusive indexes must reproduce the FlowId-ordered sums.
    for (const auto h : rt.hosts) {
      Rate tx = 0.0, rx = 0.0;
      for (const auto& [id, f] : ref) {
        const auto info = fm.info(id);
        if (info.src == h) tx += f.rate;
        if (info.dst == h) rx += f.rate;
      }
      EXPECT_EQ(fm.host_tx_rate(h), tx) << "host " << h;
      EXPECT_EQ(fm.host_rx_rate(h), rx) << "host " << h;
    }
  };

  // Waves of starts, cancels, and capacity changes; rates are compared
  // after each wave (fm.info flushes the deferred recompute).
  std::vector<net::FlowId> live;
  for (int wave = 0; wave < 6; ++wave) {
    const int n_starts = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < n_starts; ++i) {
      const auto src =
          static_cast<std::size_t>(rng.uniform_int(0, rt.hosts.size() - 1));
      auto dst =
          static_cast<std::size_t>(rng.uniform_int(0, rt.hosts.size() - 2));
      if (dst >= src) ++dst;
      // Effectively infinite transfers: the reference tracks no byte
      // progress, so nothing may complete under it.
      const auto id = fm.start(rt.hosts[src], rt.hosts[dst], 1e15, nullptr);
      RefFlow rf;
      rf.path = rt.topo.route(rt.hosts[src], rt.hosts[dst]);
      rf.cap = options.tcp_window_bytes /
               std::max(fm.base_rtt(rt.hosts[src], rt.hosts[dst]), 1e-6);
      ref.emplace(id, std::move(rf));
      live.push_back(id);
    }
    if (wave % 2 == 1 && live.size() > 2) {
      const int n_cancels = static_cast<int>(
          rng.uniform_int(1, static_cast<std::int64_t>(live.size() / 2)));
      for (int c = 0; c < n_cancels; ++c) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        fm.cancel(live[pick]);
        ref.erase(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    if (wave == 3) {
      const auto l = static_cast<net::LinkId>(rng.uniform_int(
          0, static_cast<std::int64_t>(rt.topo.num_links()) - 1));
      rt.topo.set_link_capacity(l, rt.topo.link(l).capacity * 0.4);
      fm.invalidate_rates();
    }
    check();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110));

// ======================================================= cpu invariants ====

class CpuPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuPropertyTest, WorkIsConserved) {
  // Completion times must satisfy: integral of delivered rate == requested
  // work. We check a weaker corollary that is exact under processor
  // sharing: total work / cores <= makespan <= total work / min_rate.
  Rng rng(GetParam());
  sim::Engine engine;
  const double cores = rng.uniform(1.0, 8.0);
  cluster::CpuPool pool(engine, cores);
  double total_work = 0.0;
  int remaining = 0;
  for (int i = 0; i < 12; ++i) {
    const double work = rng.uniform(0.1, 5.0);
    total_work += work;
    ++remaining;
    pool.run(rng.uniform(0.5, 2.0), work, [&remaining] { --remaining; });
  }
  engine.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_GE(engine.now() + 1e-9, total_work / cores);
}

TEST_P(CpuPropertyTest, OrderIndependentOfCallbacks) {
  // Same workload, different callback bodies: identical completion time.
  Rng rng(GetParam() ^ 0xABCD);
  std::vector<std::pair<double, double>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back(rng.uniform(0.5, 2.0), rng.uniform(0.1, 4.0));
  }
  auto run = [&](bool with_noise_callbacks) {
    sim::Engine engine;
    cluster::CpuPool pool(engine, 3.0);
    int noise = 0;
    for (const auto& [demand, work] : tasks) {
      pool.run(demand, work,
               with_noise_callbacks ? std::function<void()>([&] { ++noise; })
                                    : std::function<void()>(nullptr));
    }
    engine.run();
    return engine.now();
  };
  EXPECT_DOUBLE_EQ(run(false), run(true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuPropertyTest,
                         ::testing::Values(7, 11, 19, 23, 31));

// ================================================== model sanity sweeps ====

class ModelPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ModelPropertyTest, PredictionsBoundedByTrainingRange) {
  // Tree ensembles cannot extrapolate beyond observed targets; the linear
  // model can, so it is checked with a wide multiple instead.
  const auto& [name, seed] = GetParam();
  Rng rng(seed);
  ml::Dataset data;
  for (int i = 0; i < 300; ++i) {
    const double x0 = rng.uniform(-2, 2);
    const double x1 = rng.uniform(-2, 2);
    data.add_row(std::vector<double>{x0, x1},
                 10.0 + 3.0 * x0 - x1 + 0.1 * rng.normal());
  }
  const auto model = ml::create_regressor(name);
  model->fit(data);
  const double y_min = *std::min_element(data.y().begin(), data.y().end());
  const double y_max = *std::max_element(data.y().begin(), data.y().end());
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{rng.uniform(-3, 3), rng.uniform(-3, 3)};
    const double pred = model->predict_row(x);
    if (name == "linear") {
      EXPECT_GT(pred, y_min - 3.0 * (y_max - y_min));
      EXPECT_LT(pred, y_max + 3.0 * (y_max - y_min));
    } else if (name == "xgboost") {
      // Boosted sums can overshoot the target range slightly (residual
      // stacking), but never by much for squared loss.
      EXPECT_GE(pred, y_min - 0.2 * (y_max - y_min));
      EXPECT_LE(pred, y_max + 0.2 * (y_max - y_min));
    } else {
      // A single tree / bagged trees predict leaf means: strictly bounded.
      EXPECT_GE(pred, y_min - 1e-6);
      EXPECT_LE(pred, y_max + 1e-6);
    }
  }
}

TEST_P(ModelPropertyTest, SerializationPreservesAllPredictions) {
  const auto& [name, seed] = GetParam();
  Rng rng(seed ^ 0x9999);
  ml::Dataset data;
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.uniform(0, 1);
    const double x1 = rng.uniform(0, 1);
    data.add_row(std::vector<double>{x0, x1}, x0 * x1 + rng.normal() * 0.01);
  }
  const auto model = ml::create_regressor(name);
  model->fit(data);
  const auto restored =
      ml::model_from_json(Json::parse(ml::model_to_json(*model).dump()));
  for (std::size_t i = 0; i < data.size(); i += 7) {
    EXPECT_DOUBLE_EQ(restored->predict_row(data.row(i)),
                     model->predict_row(data.row(i)))
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ModelPropertyTest,
    ::testing::Combine(::testing::Values("linear", "decision_tree",
                                         "random_forest", "xgboost"),
                       ::testing::Values(1u, 42u)));

// =========================================== environment reproducibility ====

class EnvPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnvPropertyTest, WorldIsPureFunctionOfSeed) {
  const std::uint64_t seed = GetParam();
  auto fingerprint = [&] {
    exp::SimEnv env(seed);
    env.warmup();
    const auto snap = env.snapshot();
    double acc = 0.0;
    for (const auto& n : snap.nodes) {
      acc += n.rtt_mean * 1e6 + n.tx_rate + n.rx_rate + n.cpu_load * 1e3 +
             n.mem_available * 1e-6;
    }
    return acc;
  };
  EXPECT_DOUBLE_EQ(fingerprint(), fingerprint());
}

TEST_P(EnvPropertyTest, CounterfactualDurationsAreStrictlyReproducible) {
  const std::uint64_t seed = GetParam();
  spark::JobConfig job;
  job.input_records = 300000;
  job.executors = 3;
  auto run_on = [&](std::size_t node) {
    exp::SimEnv env(seed);
    env.warmup();
    return env.run_job(job, node, seed ^ 0xF00).duration();
  };
  for (const std::size_t node : {0u, 3u}) {
    EXPECT_DOUBLE_EQ(run_on(node), run_on(node));
  }
}

TEST_P(EnvPropertyTest, JobAlwaysTerminatesAndCleansUp) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  exp::SimEnv env(seed);
  env.warmup();
  const auto matrix = exp::paper_scenario_matrix();
  const auto& scenario = exp::sample_scenario(matrix, rng);
  const auto node = static_cast<std::size_t>(rng.uniform_int(0, 5));
  const auto result = env.run_job(scenario.config, node, seed);
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.duration(), 1.0);
  EXPECT_LT(result.duration(), 600.0);
  for (std::size_t n = 0; n < 6; ++n) {
    const auto& cpu = env.cluster().node(n).cpu();
    // Only daemons and background pods may remain.
    EXPECT_LT(cpu.total_demand(), 6.0) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ====================================================== ranking physics ====

class PlacementPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlacementPropertyTest, AddingLoadToWinnerNeverHelpsIt) {
  // Monotonicity: take the fastest node, saturate it with extra CPU +
  // traffic, and its counterfactual duration must not improve.
  const std::uint64_t seed = GetParam();
  spark::JobConfig job;
  job.input_records = 500000;
  job.executors = 3;
  auto duration_on = [&](std::size_t node, bool loaded) {
    exp::SimEnv env(seed);
    if (loaded) {
      env.cluster().node(node).cpu().add_persistent(5.0);
      cluster::BackgroundLoadOptions heavy;
      heavy.parallel_fetches = 8;
      heavy.mean_pause = 0.05;
      // Leaked into the env's lifetime via static storage is unnecessary:
      // run_job drives the engine, so a stack BackgroundLoad works.
      static thread_local std::unique_ptr<cluster::BackgroundLoad> bg;
      bg = std::make_unique<cluster::BackgroundLoad>(
          env.cluster(), node, (node + 3) % 6, heavy, Rng(seed));
      bg->start();
      env.warmup();
      const double d = env.run_job(job, node, seed ^ 0xAA).duration();
      bg.reset();
      return d;
    }
    env.warmup();
    return env.run_job(job, node, seed ^ 0xAA).duration();
  };
  const std::size_t node = seed % 6;
  EXPECT_GE(duration_on(node, true), duration_on(node, false) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace lts
