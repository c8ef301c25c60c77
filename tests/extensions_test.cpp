// Tests for the §8 extension components: rich telemetry metrics, the rich
// feature set, scaled cluster topologies, and the live job-stream runner
// with its shared job launcher.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/features.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "telemetry/exporters.hpp"

namespace lts {
namespace {

// -------------------------------------------------------- rich metrics ----

TEST(RichTelemetry, ExportersEmitRichSeries) {
  exp::SimEnv env(118);
  env.warmup();
  for (const auto& name : env.node_names()) {
    const telemetry::Labels labels{{"node", name}};
    EXPECT_TRUE(env.tsdb()
                    .latest(telemetry::kUplinkUtilMetric, labels)
                    .has_value())
        << name;
    EXPECT_TRUE(env.tsdb()
                    .latest(telemetry::kQueueDelayMetric, labels)
                    .has_value());
    EXPECT_TRUE(env.tsdb()
                    .latest(telemetry::kActiveFlowsMetric, labels)
                    .has_value());
  }
}

TEST(RichTelemetry, SnapshotReflectsBackgroundTraffic) {
  exp::EnvOptions options;
  options.min_background_pods = 3;
  options.max_background_pods = 3;
  exp::SimEnv env(7, options);
  env.warmup();
  const auto snapshot = env.snapshot();
  double max_up = 0.0, max_flows = 0.0;
  for (const auto& node : snapshot.nodes) {
    EXPECT_GE(node.uplink_util, 0.0);
    EXPECT_LE(node.uplink_util, 1.0);
    max_up = std::max(max_up, std::max(node.uplink_util,
                                       node.downlink_util));
    max_flows = std::max(max_flows, node.active_flows);
  }
  EXPECT_GT(max_up, 0.02);     // some node carries the bg fetches
  EXPECT_GT(max_flows, 0.05);  // averaged flow count is nonzero somewhere
}

TEST(RichTelemetry, DisabledExporterEmitsNothing) {
  exp::EnvOptions options;
  options.exporter.rich_metrics = false;
  exp::SimEnv env(7, options);
  env.warmup();
  const telemetry::Labels labels{{"node", "node-1"}};
  EXPECT_FALSE(env.tsdb()
                   .latest(telemetry::kUplinkUtilMetric, labels)
                   .has_value());
  // The snapshot still builds, with zeros.
  const auto snapshot = env.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.nodes[0].uplink_util, 0.0);
}

// ------------------------------------------------------- rich features ----

TEST(RichFeatures, SchemaExtendsTable1) {
  const auto& base =
      core::FeatureConstructor::feature_names(core::FeatureSet::kTable1);
  const auto& rich =
      core::FeatureConstructor::feature_names(core::FeatureSet::kRich);
  ASSERT_EQ(rich.size(), base.size() + 4);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(rich[i], base[i]);  // strict prefix: models stay comparable
  }
}

TEST(RichFeatures, ValuesLandInRichSlots) {
  telemetry::NodeTelemetry t;
  t.node = "n";
  t.uplink_util = 0.4;
  t.downlink_util = 0.7;
  t.queue_delay = 0.002;
  t.active_flows = 5.0;
  spark::JobConfig config;
  const auto x =
      core::FeatureConstructor::build(t, config, core::FeatureSet::kRich);
  const auto& names =
      core::FeatureConstructor::feature_names(core::FeatureSet::kRich);
  auto at = [&](const std::string& name) {
    return x[static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin())];
  };
  EXPECT_DOUBLE_EQ(at("uplink_util"), 0.4);
  EXPECT_DOUBLE_EQ(at("downlink_util"), 0.7);
  EXPECT_DOUBLE_EQ(at("queue_delay_ms"), 2.0);
  EXPECT_DOUBLE_EQ(at("active_flows"), 5.0);
}

TEST(RichFeatures, DatasetFromLogCarriesRichColumns) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(1);
  exp::CollectorOptions options;
  options.repeats = 1;
  const CsvTable log = exp::collect_training_data(matrix, options);
  const auto rich =
      core::Trainer::dataset_from_log(log, core::FeatureSet::kRich);
  EXPECT_EQ(rich.num_features(),
            core::FeatureConstructor::num_features(core::FeatureSet::kRich));
  const auto base = core::Trainer::dataset_from_log(log);
  EXPECT_EQ(base.num_features(),
            core::FeatureConstructor::num_features());
  EXPECT_EQ(base.size(), rich.size());
}

TEST(RichFeatures, LegacyLogsWithoutRichColumnsStillParse) {
  // Simulate an old-schema CSV by dropping the rich columns.
  core::TrainingLogger logger;
  core::TrainingRecord r;
  r.scenario_id = "s";
  r.node = "node-1";
  r.telemetry.node = "node-1";
  r.config.executors = 2;
  r.duration = 10.0;
  logger.log(r);
  CsvTable legacy(
      {"scenario", "node", "snapshot_time", "rtt_mean", "rtt_max", "rtt_std",
       "tx_rate", "rx_rate", "cpu_load", "mem_available", "app",
       "input_records", "executors", "executor_memory", "shuffle_partitions",
       "iterations", "join_skew", "duration", "shuffle_bytes",
       "max_spill_penalty"});
  legacy.add_row({"s", "node-1", "40", "0.03", "0.07", "0.02", "1e6", "2e6",
                  "0.5", "7e9", "sort", "100000", "2", "1e9", "8", "3",
                  "1.3", "12.5", "1e8", "1.0"});
  const auto parsed = core::TrainingLogger::parse_row(legacy, 0);
  EXPECT_DOUBLE_EQ(parsed.telemetry.uplink_util, 0.0);
  EXPECT_DOUBLE_EQ(parsed.duration, 12.5);
}

// -------------------------------------------------------- scaled spec ----

TEST(ScaledCluster, BuildsRequestedShape) {
  const auto spec = exp::scaled_cluster_spec(4, 3);
  ASSERT_EQ(spec.sites.size(), 4u);
  for (const auto& site : spec.sites) {
    EXPECT_EQ(site.node_names.size(), 3u);
  }
  EXPECT_EQ(spec.wan_links.size(), 6u);  // full mesh of 4

  exp::EnvOptions options;
  options.cluster_spec = spec;
  exp::SimEnv env(1, options);
  EXPECT_EQ(env.node_names().size(), 12u);
  env.warmup();
  const auto snapshot = env.snapshot();
  EXPECT_EQ(snapshot.nodes.size(), 12u);
  for (const auto& node : snapshot.nodes) {
    EXPECT_GT(node.rtt_mean, 0.0);
  }
}

TEST(ScaledCluster, DistanceGrowsWithSiteIndex) {
  const auto spec = exp::scaled_cluster_spec(5, 1);
  exp::EnvOptions options;
  options.cluster_spec = spec;
  options.max_node_extra_delay = 0.0;  // isolate the WAN structure
  exp::SimEnv env(1, options);
  const auto& flows = env.cluster().flows();
  const SimTime near = flows.base_rtt(env.cluster().node(0).vertex(),
                                      env.cluster().node(1).vertex());
  const SimTime far = flows.base_rtt(env.cluster().node(0).vertex(),
                                     env.cluster().node(4).vertex());
  EXPECT_LT(near, far);
}

TEST(ScaledCluster, JobsRunAtLargerScale) {
  exp::EnvOptions options;
  options.cluster_spec = exp::scaled_cluster_spec(4, 3);
  exp::SimEnv env(9, options);
  env.warmup();
  spark::JobConfig job;
  job.executors = 6;
  const auto result = env.run_job(job, 7, 3);
  EXPECT_TRUE(result.completed);
}

TEST(ScaledCluster, RejectsDegenerateShapes) {
  EXPECT_THROW(exp::scaled_cluster_spec(0, 2), Error);
  EXPECT_THROW(exp::scaled_cluster_spec(2, 0), Error);
}

TEST(ScaledCluster, RejectsOutOfBoundParameters) {
  // Shapes outside the paper-scale envelope are rejected loudly, not
  // clamped — the flow model's constants are meaningless out there.
  const auto message_of = [](int sites, int nodes_per_site) -> std::string {
    try {
      exp::scaled_cluster_spec(sites, nodes_per_site);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of(513, 2).find("sites must be in [1, 512]"),
            std::string::npos);
  EXPECT_NE(message_of(3, 5000).find("nodes_per_site"), std::string::npos);
  // 2M nodes: each bound legal, product absurd.
  EXPECT_NE(message_of(512, 4096).find("total nodes"), std::string::npos);
}

// ------------------------------------------------------------- stream ----

TEST(Stream, RunsAllJobsUnderEveryPolicy) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  // A small model for kModel.
  exp::CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = exp::collect_training_data(matrix, collect);
  const auto model = std::shared_ptr<const ml::Regressor>(
      core::Trainer::train("linear", core::Trainer::dataset_from_log(log)));

  exp::StreamOptions options;
  options.num_jobs = 6;
  options.mean_interarrival = 8.0;
  options.seed = 5;
  for (const auto policy : {exp::StreamPolicy::kModel,
                            exp::StreamPolicy::kKubeDefault,
                            exp::StreamPolicy::kRandom}) {
    const auto result = exp::run_job_stream(policy, model, matrix, options);
    ASSERT_EQ(result.jobs.size(), 6u);
    for (const auto& job : result.jobs) {
      EXPECT_GT(job.duration, 1.0);
      EXPECT_FALSE(job.driver_node.empty());
      EXPECT_FALSE(job.scenario_id.empty());
    }
    EXPECT_GT(result.makespan, 0.0);
  }
}

TEST(Stream, JobSequenceIdenticalAcrossPolicies) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  exp::StreamOptions options;
  options.num_jobs = 5;
  options.seed = 11;
  const auto a =
      exp::run_job_stream(exp::StreamPolicy::kRandom, nullptr, matrix,
                          options);
  const auto b =
      exp::run_job_stream(exp::StreamPolicy::kKubeDefault, nullptr, matrix,
                          options);
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].scenario_id, b.jobs[j].scenario_id);
  }
}

TEST(Stream, DeterministicForSeed) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  exp::StreamOptions options;
  options.num_jobs = 5;
  options.seed = 13;
  const auto a = exp::run_job_stream(exp::StreamPolicy::kRandom, nullptr,
                                     matrix, options);
  const auto b = exp::run_job_stream(exp::StreamPolicy::kRandom, nullptr,
                                     matrix, options);
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.jobs[j].duration, b.jobs[j].duration);
  }
}

TEST(Stream, BackloggedStreamAccountsQueueingRetriesAndMakespan) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  exp::StreamOptions options;
  options.num_jobs = 12;
  options.mean_interarrival = 0.5;  // far above testbed capacity
  options.seed = 17;
  const auto result = exp::run_job_stream(exp::StreamPolicy::kKubeDefault,
                                          nullptr, matrix, options);
  ASSERT_EQ(result.jobs.size(), 12u);
  int total_retries = 0;
  int delayed = 0;
  SimTime first_submit = result.jobs.front().submitted;
  SimTime last_finish = 0.0;
  for (const auto& job : result.jobs) {
    EXPECT_GE(job.submitted, job.planned_arrival);
    EXPECT_DOUBLE_EQ(job.queueing_delay, job.submitted - job.planned_arrival);
    total_retries += job.placement_retries;
    if (job.queueing_delay > 0.0) ++delayed;
    first_submit = std::min(first_submit, job.submitted);
    last_finish = std::max(last_finish, job.submitted + job.duration);
  }
  // Twelve jobs half a second apart must backlog the 6-node testbed: some
  // placements defer and wait. The makespan check pins the corrected
  // accounting — last completion minus first *actual* submission, so
  // queueing delay ahead of the first submit is reported per job, never
  // silently absorbed into the makespan.
  EXPECT_GT(total_retries, 0);
  EXPECT_GT(delayed, 0);
  EXPECT_DOUBLE_EQ(result.makespan, last_finish - first_submit);
}

TEST(Stream, BoundedRetryFailsLoudlyNamingJobAndRejections) {
  // One permanently-infeasible job: no node has 64 cores. The stream must
  // fail after the configured number of deferrals with a message naming the
  // job, its config, and per-node rejection reasons — not spin until the
  // opaque drain guard kills the run.
  std::vector<exp::Scenario> matrix(1);
  matrix[0].id = "sort-huge";
  matrix[0].config.executors = 2;
  matrix[0].config.executor_cores = 64.0;
  exp::StreamOptions options;
  options.num_jobs = 1;
  options.seed = 3;
  options.max_placement_retries = 3;
  try {
    exp::run_job_stream(exp::StreamPolicy::kKubeDefault, nullptr, matrix,
                        options);
    FAIL() << "infeasible job must fail the stream";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("job 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sort-huge"), std::string::npos) << msg;
    EXPECT_NE(msg.find("after 3 retries"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rejections of the last attempt"), std::string::npos)
        << msg;
  }
}

TEST(Stream, LaunchJobUnwindsEveryPodWhenExecutorsCannotFit) {
  // The driver fits and the first executors bind, but the cluster runs out
  // of cores before the last one: the launcher returns that attempt and
  // leaves no pod of the job bound.
  exp::SimEnv env(7);
  env.warmup();
  double free_cpu = 0.0;
  std::vector<k8s::NodeEntry> before;
  for (const auto& node : env.api().nodes()) {
    before.push_back(node);
    free_cpu += node.allocatable.cpu - node.requested.cpu;
  }
  spark::JobConfig config;
  config.executor_cores = 2.0;
  config.executors =
      static_cast<int>(free_cpu / config.executor_cores) + 1;
  const std::string name = "unwind";
  exp::LiveJob live;
  exp::StreamJobResult job;
  const auto failed = exp::launch_job(
      env, {config, name, env.node_names()[0], 1}, live, job,
      [](const spark::AppResult&) { FAIL() << "unlaunched job completed"; });
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->feasible());
  EXPECT_FALSE(failed->rejected.empty());
  EXPECT_TRUE(live.pods.empty());
  EXPECT_EQ(live.app, nullptr);
  const auto& after = env.api().nodes();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].requested.cpu, before[i].requested.cpu)
        << after[i].name;
    EXPECT_EQ(after[i].requested.memory, before[i].requested.memory)
        << after[i].name;
    EXPECT_EQ(after[i].pods, before[i].pods) << after[i].name;
  }
}

TEST(Stream, LaunchJobPlacesExecutorsOnlyOnOfferedNodes) {
  // A DRF offer restricts the executors; the driver stays pinned where the
  // policy put it. The launched job then runs to completion, which fills
  // its record and unbinds its pods.
  exp::SimEnv env(7);
  env.warmup();
  const std::vector<std::string> offer{env.node_names()[1],
                                       env.node_names()[4]};
  spark::JobConfig config;
  config.executors = 4;
  const std::string name = "offered";
  exp::LiveJob live;
  exp::StreamJobResult job;
  job.planned_arrival = env.engine().now();
  bool completed = false;
  const auto failed = exp::launch_job(
      env, {config, name, env.node_names()[0], 11, &offer}, live, job,
      [&](const spark::AppResult&) { completed = true; });
  ASSERT_FALSE(failed.has_value());
  ASSERT_NE(live.app, nullptr);
  ASSERT_EQ(live.pods.size(), 5u);  // driver first, then the executors
  EXPECT_EQ(env.api().pod_node(live.pods[0]), env.node_names()[0]);
  for (std::size_t p = 1; p < live.pods.size(); ++p) {
    const std::string& node = env.api().pod_node(live.pods[p]);
    EXPECT_TRUE(node == offer[0] || node == offer[1])
        << live.pods[p] << " on " << node;
  }

  const std::vector<std::string> job_pods = live.pods;
  const SimTime deadline = env.engine().now() + 600.0;
  while (!completed) {
    ASSERT_TRUE(env.engine().step());
    ASSERT_LT(env.engine().now(), deadline);
  }
  EXPECT_EQ(job.driver_node, env.node_names()[0]);
  EXPECT_GT(job.duration, 0.0);
  EXPECT_TRUE(live.pods.empty());
  for (const auto& pod : job_pods) EXPECT_FALSE(env.api().has_pod(pod));
}

TEST(Stream, ModelPolicyRequiresFittedModel) {
  const auto matrix = exp::paper_scenario_matrix();
  exp::StreamOptions options;
  EXPECT_THROW(exp::run_job_stream(exp::StreamPolicy::kModel, nullptr,
                                   matrix, options),
               Error);
}

TEST(Stream, ResidualJobCollectorMatchesSchema) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(1);
  exp::CollectorOptions options;
  options.repeats = 1;
  options.residual_job = true;
  const CsvTable log = exp::collect_training_data(matrix, options);
  EXPECT_EQ(log.num_rows(), 6u);
  // Residual traffic should leave fingerprints in some node's rate columns.
  double max_rate = 0.0;
  for (std::size_t i = 0; i < log.num_rows(); ++i) {
    max_rate = std::max(max_rate, log.cell_double(i, "tx_rate"));
    max_rate = std::max(max_rate, log.cell_double(i, "rx_rate"));
  }
  EXPECT_GT(max_rate, 1e6);
}

}  // namespace
}  // namespace lts
