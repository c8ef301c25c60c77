// Fault-injection subsystem: injector primitives, scheduled FaultSpecs,
// telemetry degradation, and the scheduler's graceful-degradation policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "core/scheduler.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "fault/fault.hpp"
#include "fakes.hpp"
#include "obs/metrics.hpp"
#include "recorder.hpp"
#include "spark/runtime.hpp"
#include "spark/workloads.hpp"
#include "telemetry/exporters.hpp"
#include "util/stats.hpp"

namespace {

using namespace lts;

using test::ConstantModel;
using test::small_job;

/// `snapshot` as a degraded scheduler over `env` ranks from it: rows
/// silent for more than kMaxStaleness marked stale and imputed.
telemetry::ClusterSnapshot degraded_view(
    const exp::SimEnv& env, const telemetry::ClusterSnapshot& snapshot) {
  const core::LtsScheduler degraded(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), nullptr,
      core::FeatureSet::kTable1, /*risk_aversion=*/0.0, /*degraded=*/true);
  return degraded.view(snapshot);
}

/// The rows of `env`'s current snapshot a degraded scheduler marks stale.
int stale_rows(const exp::SimEnv& env) {
  const auto view = degraded_view(env, env.snapshot());
  return static_cast<int>(
      std::ranges::count_if(view.nodes, &telemetry::NodeTelemetry::stale));
}

TEST(FaultSpecJson, RoundTripsEveryKind) {
  const std::vector<fault::FaultSpec> schedule = {
      {fault::FaultKind::kNodeCrash, "node-3", 50.0, 40.0, 1.0},
      {fault::FaultKind::kLinkDegrade, "ucsd:fiu", 60.0, 30.0, 0.8},
      {fault::FaultKind::kRttSpike, "sri:fiu", 70.0, 0.0, 0.025},
      {fault::FaultKind::kSitePartition, "sri", 80.0, 15.0, 1.0},
      {fault::FaultKind::kExporterSilence, "node-1", 90.0, 20.0, 1.0},
      {fault::FaultKind::kExporterDelay, "node-2", 100.0, 25.0, 12.0},
      {fault::FaultKind::kRetrainFail, "", 110.0, 60.0, 1.0},
      {fault::FaultKind::kNodeLinkDegrade, "node-4", 120.0, 0.0, 0.6},
  };
  // The schedule as a fault file spells it, one entry per kind.
  const std::string text = R"([
    {"kind": "node_crash", "target": "node-3", "at": 50, "duration": 40},
    {"kind": "link_degrade", "target": "ucsd:fiu", "at": 60, "duration": 30,
     "severity": 0.8},
    {"kind": "rtt_spike", "target": "sri:fiu", "at": 70, "severity": 0.025},
    {"kind": "site_partition", "target": "sri", "at": 80, "duration": 15},
    {"kind": "exporter_silence", "target": "node-1", "at": 90,
     "duration": 20},
    {"kind": "exporter_delay", "target": "node-2", "at": 100, "duration": 25,
     "severity": 12},
    {"kind": "retrain_fail", "target": "", "at": 110, "duration": 60},
    {"kind": "node_link_degrade", "target": "node-4", "at": 120,
     "severity": 0.6}
  ])";
  const auto parsed = fault::faults_from_json(Json::parse(text));
  ASSERT_EQ(parsed.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, schedule[i].kind);
    EXPECT_EQ(parsed[i].target, schedule[i].target);
    EXPECT_DOUBLE_EQ(parsed[i].at, schedule[i].at);
    EXPECT_DOUBLE_EQ(parsed[i].duration, schedule[i].duration);
    EXPECT_DOUBLE_EQ(parsed[i].severity, schedule[i].severity);
  }
}

TEST(FaultSpecJson, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::fault_kind_from_string("meteor_strike"), Error);
  EXPECT_THROW(fault::fault_from_json(Json::parse("[1,2]")), Error);
  EXPECT_THROW(fault::faults_from_json(Json::parse("{}")), Error);
  // A misspelt key is an error, not a silent default (here it would have
  // made the silence permanent), and the message names index and key.
  try {
    fault::faults_from_json(Json::parse(
        R"([{"kind": "exporter_silence", "target": "node-2", "at": 50,)"
        R"( "duraton": 10}])"));
    ADD_FAILURE() << "unknown key accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "fault 0: unknown key \"duraton\"");
  }
}

TEST(FaultSchedule, DeterministicAndRateScaled) {
  const auto spec = cluster::paper_cluster_spec();
  exp::FaultScheduleOptions options;
  options.faults_per_100s = 2.0;
  const auto a = exp::generate_fault_schedule(spec, 42, options);
  const auto b = exp::generate_fault_schedule(spec, 42, options);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    EXPECT_DOUBLE_EQ(a[i].severity, b[i].severity);
  }
  // Higher rate -> proportionally more faults.
  options.faults_per_100s = 8.0;
  EXPECT_GT(exp::generate_fault_schedule(spec, 42, options).size(),
            a.size() * 2);
  // Crash-free schedules for counterfactual experiments.
  EXPECT_FALSE(options.include_crashes);
  for (const auto& fault : exp::generate_fault_schedule(spec, 42, options)) {
    EXPECT_NE(fault.kind, fault::FaultKind::kNodeCrash);
    EXPECT_GE(fault.at, options.start);
    EXPECT_GE(fault.duration, 5.0);
  }
}

TEST(DriftSchedule, FallsBackToNodeLinkDegradeWithoutWanLinks) {
  // A single-site shape has no pairwise WAN links; the staircase must
  // degrade gracefully to intra-site node-access drift instead of failing.
  const auto spec = exp::scaled_cluster_spec(1, 4);
  ASSERT_TRUE(spec.wan_links.empty());
  exp::DriftScheduleOptions options;
  options.drift_links = 2;
  const auto schedule = exp::generate_drift_schedule(spec, 7, options);
  ASSERT_EQ(schedule.size(), static_cast<std::size_t>(exp::kDriftSteps) * 2);
  double prev_severity = 0.0;
  for (const auto& f : schedule) {
    EXPECT_EQ(f.kind, fault::FaultKind::kNodeLinkDegrade);
    EXPECT_EQ(f.target.rfind("node-", 0), 0u) << f.target;
    EXPECT_DOUBLE_EQ(f.duration, 0.0);  // drift never heals
    EXPECT_GE(f.severity, prev_severity);
    prev_severity = f.severity;
  }
  EXPECT_DOUBLE_EQ(schedule.back().severity, options.max_capacity_cut);

  // Deterministic: same (spec, seed, options) -> same schedule.
  const auto again = exp::generate_drift_schedule(spec, 7, options);
  ASSERT_EQ(again.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(again[i].target, schedule[i].target);
    EXPECT_DOUBLE_EQ(again[i].severity, schedule[i].severity);
  }

  // More drift links than nodes: clamped to the node count, not an error.
  options.drift_links = 64;
  const auto clamped = exp::generate_drift_schedule(spec, 7, options);
  EXPECT_EQ(clamped.size(), static_cast<std::size_t>(exp::kDriftSteps) * 4);

  // Nothing can drift when the only available component is zeroed out.
  options.max_capacity_cut = 0.0;
  EXPECT_THROW(exp::generate_drift_schedule(spec, 7, options), Error);
}

TEST(FaultInjector, NodeLinkDegradeCutsAccessCapacityAndRestores) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  fault::FaultInjector injector(cluster);

  const std::size_t node = cluster.node_index("node-2");
  const auto up = cluster.node_uplink(node);
  const auto down = cluster.node_downlink(node);
  const Rate up0 = cluster.topology().link(up).capacity;
  const Rate down0 = cluster.topology().link(down).capacity;

  injector.degrade_node_link("node-2", 0.6);
  EXPECT_NEAR(cluster.topology().link(up).capacity, up0 * 0.4, 1.0);
  EXPECT_NEAR(cluster.topology().link(down).capacity, down0 * 0.4, 1.0);
  // Re-injection at a new severity works off the pristine capacity — the
  // drift staircase re-injects every step and must not compound.
  injector.degrade_node_link("node-2", 0.8);
  EXPECT_NEAR(cluster.topology().link(up).capacity, up0 * 0.2, 1.0);

  injector.restore_node_link("node-2");
  EXPECT_DOUBLE_EQ(cluster.topology().link(up).capacity, up0);
  EXPECT_DOUBLE_EQ(cluster.topology().link(down).capacity, down0);
  injector.restore_node_link("node-2");  // idempotent

  EXPECT_THROW(injector.degrade_node_link("node-2", 1.5), Error);
  EXPECT_THROW(injector.degrade_node_link("nowhere", 0.5), Error);
}

TEST(FaultInjector, SitePartitionStallsCrossSiteFlowsAndHeals) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  fault::FaultInjector injector(cluster);

  const auto v_ucsd = cluster.node(0).vertex();   // node-1 @ ucsd
  const auto v_ucsd2 = cluster.node(1).vertex();  // node-2 @ ucsd
  const auto v_fiu = cluster.node(2).vertex();    // node-3 @ fiu

  test::Recorder rec(engine);
  bool cross_done = false;
  bool local_done = false;
  rec.hook = [&](const sim::Event& e) {
    (e.code == 'c' ? cross_done : local_done) = true;
  };
  const auto cross =
      cluster.flows().start(v_ucsd, v_fiu, 1e9, rec.event('c'));
  engine.run_until(2.0);
  const double before = cluster.flows().info(cross).transferred;
  EXPECT_GT(before, 10e6);  // cross-site flow is making real progress

  const SimTime rtt_before = cluster.flows().current_rtt(v_ucsd, v_fiu);
  injector.partition_site("fiu");
  // The stalled flow saturates the dead link, so measured RTT inflates by
  // the queueing model's full penalty in the loaded direction (~30 ms).
  const SimTime rtt_during = cluster.flows().current_rtt(v_ucsd, v_fiu);
  EXPECT_GT(rtt_during, rtt_before + 0.025);

  // 100 simulated seconds of partition move only a trickle of bytes.
  engine.run_until(102.0);
  EXPECT_FALSE(cross_done);
  EXPECT_LT(cluster.flows().info(cross).transferred - before, 1e3);

  // Intra-site traffic is unaffected.
  cluster.flows().start(v_ucsd, v_ucsd2, 50e6, rec.event('l'));
  engine.run_until(110.0);
  EXPECT_TRUE(local_done);

  injector.heal_site("fiu");
  engine.run_until(130.0);
  EXPECT_TRUE(cross_done);
  EXPECT_EQ(injector.injected(), 0);  // direct primitives bypass the counter
}

TEST(FaultInjector, WanDegradeAndRttSpikeRestoreExactly) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  fault::FaultInjector injector(cluster);

  net::LinkId wan = -1;
  for (const auto& link : cluster.wan_links()) {
    if ((link.site_a == "ucsd" && link.site_b == "fiu") ||
        (link.site_a == "fiu" && link.site_b == "ucsd")) {
      wan = link.forward;
    }
  }
  ASSERT_GE(wan, 0);
  const Rate cap0 = cluster.topology().link(wan).capacity;
  const SimTime delay0 = cluster.topology().link(wan).prop_delay;

  injector.degrade_wan_link("ucsd", "fiu", 0.75);
  EXPECT_NEAR(cluster.topology().link(wan).capacity, cap0 * 0.25, 1.0);
  // A second, overlapping fault must not compound off the degraded value.
  injector.spike_wan_rtt("ucsd", "fiu", 0.020);
  EXPECT_NEAR(cluster.topology().link(wan).prop_delay, delay0 + 0.020, 1e-9);
  injector.degrade_wan_link("ucsd", "fiu", 0.75);
  EXPECT_NEAR(cluster.topology().link(wan).capacity, cap0 * 0.25, 1.0);

  injector.restore_wan_link("ucsd", "fiu");
  EXPECT_DOUBLE_EQ(cluster.topology().link(wan).capacity, cap0);
  EXPECT_DOUBLE_EQ(cluster.topology().link(wan).prop_delay, delay0);
  EXPECT_THROW(injector.degrade_wan_link("ucsd", "nowhere", 0.5), Error);
}

TEST(FaultInjector, CrashStopsTelemetryPingsAndReadiness) {
  exp::EnvOptions options;
  options.faults.push_back(
      {fault::FaultKind::kNodeCrash, "node-3", 50.0, 40.0, 1.0});
  exp::SimEnv env(21, options);
  env.warmup();
  env.engine().run_until(80.0);

  const std::size_t idx = env.cluster().node_index("node-3");
  EXPECT_TRUE(env.cluster().node_down(idx));
  EXPECT_FALSE(env.api().node("node-3").ready);
  EXPECT_EQ(env.fault_injector().injected(), 1);
  EXPECT_EQ(env.fault_injector().recovered(), 0);

  // The kube scheduler refuses the crashed node outright.
  const auto kube = env.kube_ranking(small_job());
  for (const auto& scored : kube.ranking) EXPECT_NE(scored.name, "node-3");

  // Its exporter heartbeat froze at the crash instant...
  const auto snapshot = env.snapshot();
  const auto& row = snapshot.by_name("node-3");
  EXPECT_TRUE(row.has_data);
  EXPECT_LE(row.last_seen, 50.0);
  EXPECT_EQ(stale_rows(env), 1);
  EXPECT_TRUE(degraded_view(env, snapshot).by_name("node-3").stale);
  // ...and the ping mesh stopped probing it in either direction.
  EXPECT_LT(env.tsdb()
                .latest_time(telemetry::kPingRttMetric,
                             {{"src", "node-1"}, {"dst", "node-3"}})
                .value_or(0.0),
            51.0);

  // Recovery at t=90: readiness, scrapes, and pings all resume.
  env.engine().run_until(120.0);
  EXPECT_FALSE(env.cluster().node_down(idx));
  EXPECT_TRUE(env.api().node("node-3").ready);
  EXPECT_EQ(env.fault_injector().recovered(), 1);
  EXPECT_GT(env.snapshot().by_name("node-3").last_seen, 90.0);
  EXPECT_EQ(stale_rows(env), 0);
  EXPECT_GT(env.tsdb()
                .latest_time(telemetry::kPingRttMetric,
                             {{"src", "node-1"}, {"dst", "node-3"}})
                .value_or(0.0),
            90.0);
}

TEST(FaultInjector, CrashRecoverResetsNicCountersWithoutNegativeRate) {
  // Regression for the counter-reset bug: a recovered node's NIC counters
  // restart from zero, so a rate window straddling the reboot used to
  // compute (small - large)/dt and report a huge negative "throughput".
  // With Prometheus reset semantics the rate stays nonnegative and the
  // reset is counted in telemetry_counter_resets_total.
  auto& registry = obs::MetricsRegistry::global();
  auto& resets = obs::counter("telemetry_counter_resets_total");
  registry.set_enabled(true);
  const double resets_before = resets.value();

  exp::EnvOptions options;
  // Crash shorter than the 30 s rate window so the post-recovery snapshot
  // sees both pre-crash (high counter) and post-reset (low) samples.
  // node-2 carries steady background traffic in both directions with this
  // seed, so its NIC counters are well into the gigabytes before the crash.
  options.faults.push_back(
      {fault::FaultKind::kNodeCrash, "node-2", 50.0, 10.0, 1.0});
  exp::SimEnv env(21, options);
  env.warmup();
  env.engine().run_until(65.0);

  EXPECT_FALSE(env.cluster().node_down(env.cluster().node_index("node-2")));
  // The reboot actually zeroed the counters.
  const double tx_now = env.cluster().flows().host_tx_bytes(
      env.cluster().node(env.cluster().node_index("node-2")).vertex());
  EXPECT_LT(tx_now, 1e9);  // far less than 60 s of accumulated traffic

  const auto snapshot = env.snapshot();
  registry.set_enabled(false);
  for (const auto& row : snapshot.nodes) {
    EXPECT_GE(row.tx_rate, 0.0) << row.node;
    EXPECT_GE(row.rx_rate, 0.0) << row.node;
  }
  EXPECT_GT(resets.value(), resets_before);
}

TEST(Degradation, UndelayingExporterMidStreamDropsLateSamples) {
  // While a report-delay fault is active, measured samples sit in flight
  // for `severity` seconds. When the fault expires, fresh samples land
  // immediately — before the still-queued delayed ones, which then arrive
  // bearing older timestamps. The TSDB must drop and count them (it used
  // to abort ingestion on any out-of-order append).
  auto& registry = obs::MetricsRegistry::global();
  auto& dropped = obs::counter("telemetry_out_of_order_dropped_total");
  registry.set_enabled(true);
  const double dropped_before = dropped.value();

  exp::EnvOptions options;
  options.faults.push_back(
      {fault::FaultKind::kExporterDelay, "node-2", 44.0, 40.0, 15.0});
  exp::SimEnv env(9, options);
  env.warmup();
  env.engine().run_until(110.0);  // fault expires at 84; pipeline drains
  registry.set_enabled(false);

  EXPECT_GT(env.tsdb().num_samples_dropped(), 0u);
  EXPECT_GT(dropped.value(), dropped_before);
  // The stream kept running and freshness recovered despite the drops.
  EXPECT_GT(env.snapshot().by_name("node-2").last_seen, 95.0);
  EXPECT_EQ(stale_rows(env), 0);
}

TEST(FaultInjector, NodeCrashMidJobStallsUntilRecovery) {
  const auto config = small_job();
  const std::uint64_t seed = 77;
  const std::uint64_t job_seed = 4242;
  const std::size_t driver = 0;                   // node-1
  const std::vector<std::size_t> executors{1, 2};  // node-2, node-3

  auto run_app = [&](exp::SimEnv& env) {
    Rng dag_rng(job_seed * 0x2545f4914f6cdd1dULL + 0x9e37);
    auto dag = spark::build_dag(config, dag_rng);
    Rng app_rng(job_seed * 0xda942042e4dd58b5ULL + 0x7f4a);
    auto app = std::make_unique<spark::SparkApp>(
        env.cluster(), config, std::move(dag), driver, executors, app_rng);
    app->submit();
    return app;
  };

  // Healthy reference run.
  double healthy_duration = 0.0;
  {
    exp::SimEnv env(seed);
    env.warmup();
    auto app = run_app(env);
    const SimTime deadline = env.engine().now() + 1200.0;
    while (!app->result().completed) {
      ASSERT_TRUE(env.engine().step());
      ASSERT_LE(env.engine().now(), deadline);
    }
    healthy_duration = app->result().duration();
    EXPECT_GT(healthy_duration, 8.0);  // long enough to crash mid-flight
  }

  // Identical run, but an executor node crashes mid-job: the job stalls
  // far past its healthy completion time, then finishes after recovery.
  exp::SimEnv env(seed);
  env.warmup();
  auto app = run_app(env);
  const SimTime submit = env.engine().now();
  env.engine().run_until(submit + 5.0);
  ASSERT_FALSE(app->result().completed);
  env.fault_injector().crash_node("node-2");

  env.engine().run_until(submit + healthy_duration + 60.0);
  EXPECT_FALSE(app->result().completed)
      << "job finished despite a crashed executor node";

  env.fault_injector().recover_node("node-2");
  const SimTime deadline = env.engine().now() + 1800.0;
  while (!app->result().completed) {
    ASSERT_TRUE(env.engine().step());
    ASSERT_LE(env.engine().now(), deadline);
  }
  EXPECT_GT(app->result().duration(), healthy_duration + 50.0);
}

TEST(Degradation, SilencedExporterRowIsImputedAndDemoted) {
  exp::EnvOptions options;
  options.faults.push_back(
      {fault::FaultKind::kExporterSilence, "node-5", 45.0, 0.0, 1.0});
  exp::SimEnv env(33, options);
  env.warmup();
  env.engine().run_until(75.0);
  const SimTime now = env.engine().now();

  // With a tie-everything model, demotion alone decides the ranking.
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names(),
                             env.options().snapshot),
      std::make_shared<ConstantModel>(), core::FeatureSet::kTable1,
      /*risk_aversion=*/0.0, /*degraded=*/true);
  // The fetcher returns telemetry as scraped; only the view marks it.
  const auto raw = scheduler.fetcher().fetch(now);
  for (const auto& row : raw.nodes) EXPECT_FALSE(row.stale) << row.node;
  const auto snapshot = scheduler.view(raw);

  int n_stale = 0;
  std::vector<double> fresh_cpu;
  for (const auto& row : snapshot.nodes) {
    if (row.stale) {
      ++n_stale;
    } else {
      fresh_cpu.push_back(row.cpu_load);
    }
  }
  EXPECT_EQ(n_stale, 1);
  const auto& stale = snapshot.by_name("node-5");
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.has_data);
  // Imputed telemetry sits inside the fresh rows' envelope (it is their
  // median), not at the frozen pre-silence values or zero.
  EXPECT_GE(stale.cpu_load, std::ranges::min(fresh_cpu));
  EXPECT_LE(stale.cpu_load, max_of(fresh_cpu));
  EXPECT_GT(stale.mem_available, 0.0);

  // The stale node ranks last, flagged, with its real prediction (the
  // constant model's 1.0), and the decision records it.
  const auto decision = scheduler.schedule(small_job(), now);
  EXPECT_FALSE(decision.used_fallback);
  EXPECT_EQ(decision.stale_demoted, 1);
  ASSERT_EQ(decision.ranking.size(), env.node_names().size());
  for (const auto& p : decision.ranking) {
    EXPECT_EQ(p.predicted_duration, 1.0) << p.node;
    EXPECT_EQ(p.stale, p.node == "node-5") << p.node;
  }
  EXPECT_EQ(decision.ranking.back().node, "node-5");
}

TEST(Degradation, DelayedExporterGoesStaleThenCatchesUp) {
  exp::EnvOptions options;
  options.faults.push_back(
      {fault::FaultKind::kExporterDelay, "node-2", 44.0, 40.0, 15.0});
  exp::SimEnv env(9, options);
  env.warmup();
  env.engine().run_until(60.0);

  // Reports lag 15 s: the freshest sample visible is ~15 s old.
  EXPECT_LT(env.snapshot().by_name("node-2").last_seen, 47.0);
  EXPECT_EQ(stale_rows(env), 1);

  // After the fault expires the pipeline drains and freshness recovers.
  env.engine().run_until(110.0);
  EXPECT_GT(env.snapshot().by_name("node-2").last_seen, 95.0);
  EXPECT_EQ(stale_rows(env), 0);
}

TEST(Fallback, NullModelProducesSpreadingRanking) {
  exp::SimEnv env(11);
  env.warmup();
  core::TelemetryFetcher fetcher(env.tsdb(), env.node_names(),
                                 env.options().snapshot);
  core::LtsScheduler scheduler(fetcher, /*model=*/nullptr,
                               core::FeatureSet::kTable1,
                               /*risk_aversion=*/0.0, /*degraded=*/true);
  EXPECT_FALSE(scheduler.has_usable_model());

  const auto snapshot = fetcher.fetch(env.engine().now());
  const auto decision =
      scheduler.schedule_from_snapshot(snapshot, small_job());
  EXPECT_TRUE(decision.used_fallback);
  ASSERT_EQ(decision.ranking.size(), snapshot.nodes.size());

  // Reproduce the spreading score: low load, high share of best-case free
  // memory first. The decision must equal the independent computation.
  double max_mem = 0.0;
  for (const auto& row : snapshot.nodes) {
    max_mem = std::max(max_mem, row.mem_available);
  }
  std::string best;
  double best_score = 1e300;
  for (const auto& row : snapshot.nodes) {
    const double score = row.cpu_load + (1.0 - row.mem_available / max_mem);
    if (score < best_score || (score == best_score && row.node < best)) {
      best_score = score;
      best = row.node;
    }
  }
  EXPECT_EQ(decision.selected(), best);

  // Deterministic: same snapshot, same ranking.
  const auto again = scheduler.schedule_from_snapshot(snapshot, small_job());
  ASSERT_EQ(again.ranking.size(), decision.ranking.size());
  for (std::size_t i = 0; i < again.ranking.size(); ++i) {
    EXPECT_EQ(again.ranking[i].node, decision.ranking[i].node);
  }
}

TEST(Fallback, MostlyStaleSnapshotOverridesUsableModel) {
  // Five of six exporters go silent before the decision: one fresh row is
  // below kMinFreshFraction, so the snapshot is distrusted.
  exp::EnvOptions options;
  for (const char* node : {"node-1", "node-2", "node-3", "node-4", "node-5"}) {
    options.faults.push_back(
        {fault::FaultKind::kExporterSilence, node, 20.0, 0.0, 1.0});
  }
  exp::SimEnv env(13, options);
  env.warmup();
  ASSERT_EQ(stale_rows(env), 5);
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names(),
                             env.options().snapshot),
      std::make_shared<ConstantModel>(), core::FeatureSet::kTable1,
      /*risk_aversion=*/0.0, /*degraded=*/true);
  EXPECT_TRUE(scheduler.has_usable_model());
  const auto decision = scheduler.schedule(small_job(), env.engine().now());
  EXPECT_TRUE(decision.used_fallback);
  EXPECT_EQ(decision.stale_demoted, 0);
}

TEST(Fallback, DisabledKeepsStrictModelRequirement) {
  exp::SimEnv env(15);
  env.warmup();
  core::TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  EXPECT_THROW(core::LtsScheduler(fetcher, nullptr), Error);
}

TEST(FaultEnv, IdenticalScheduleReplaysBitIdentically) {
  exp::EnvOptions options;
  exp::FaultScheduleOptions fault_options;
  fault_options.faults_per_100s = 4.0;
  fault_options.horizon = 100.0;
  options.faults = exp::generate_fault_schedule(options.cluster_spec, 7,
                                                fault_options);
  ASSERT_FALSE(options.faults.empty());

  auto fingerprint = [&](exp::SimEnv& env) {
    env.warmup();
    env.engine().run_until(150.0);
    return env.snapshot();
  };
  exp::SimEnv a(5, options), b(5, options);
  const auto snap_a = fingerprint(a);
  const auto snap_b = fingerprint(b);
  ASSERT_EQ(snap_a.nodes.size(), snap_b.nodes.size());
  for (std::size_t i = 0; i < snap_a.nodes.size(); ++i) {
    EXPECT_EQ(snap_a.nodes[i].node, snap_b.nodes[i].node);
    EXPECT_DOUBLE_EQ(snap_a.nodes[i].rtt_mean, snap_b.nodes[i].rtt_mean);
    EXPECT_DOUBLE_EQ(snap_a.nodes[i].tx_rate, snap_b.nodes[i].tx_rate);
    EXPECT_DOUBLE_EQ(snap_a.nodes[i].rx_rate, snap_b.nodes[i].rx_rate);
    EXPECT_DOUBLE_EQ(snap_a.nodes[i].cpu_load, snap_b.nodes[i].cpu_load);
    EXPECT_DOUBLE_EQ(snap_a.nodes[i].mem_available,
                     snap_b.nodes[i].mem_available);
    EXPECT_DOUBLE_EQ(snap_a.nodes[i].last_seen, snap_b.nodes[i].last_seen);
  }
  EXPECT_EQ(a.fault_injector().injected(), b.fault_injector().injected());
  EXPECT_EQ(a.fault_injector().recovered(), b.fault_injector().recovered());
}

}  // namespace
