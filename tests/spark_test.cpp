// Unit tests for the Spark engine: job configs, workload DAG builders, and
// the runtime's execution semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cluster/background.hpp"
#include "cluster/cluster.hpp"
#include "recorder.hpp"
#include "spark/job.hpp"
#include "spark/runtime.hpp"
#include "spark/workloads.hpp"

namespace lts::spark {
namespace {

JobConfig basic_config(AppType app = AppType::kSort) {
  JobConfig config;
  config.app = app;
  config.input_records = 500000;
  config.executors = 3;
  return config;
}

// ----------------------------------------------------------------- job ----

TEST(JobConfig, AppTypeRoundTrip) {
  for (const auto app : kAllAppTypes) {
    EXPECT_EQ(app_type_from_string(to_string(app)), app);
  }
  EXPECT_THROW(app_type_from_string("mapreduce"), Error);
}

TEST(JobConfig, ValidationCatchesBadValues) {
  JobConfig config = basic_config();
  config.executors = 0;
  EXPECT_THROW(config.validate(), Error);
  config = basic_config();
  config.input_records = -1;
  EXPECT_THROW(config.validate(), Error);
  config = basic_config();
  config.join_skew = 0.5;
  EXPECT_THROW(config.validate(), Error);
}

TEST(JobConfig, DefaultShufflePartitions) {
  JobConfig config = basic_config();
  config.executors = 2;
  EXPECT_EQ(config.effective_shuffle_partitions(), 8);  // floor of 8
  config.executors = 6;
  EXPECT_EQ(config.effective_shuffle_partitions(), 12);
  config.shuffle_partitions = 5;
  EXPECT_EQ(config.effective_shuffle_partitions(), 5);
}

// ---------------------------------------------------------------- dags ----

TEST(Workloads, AllAppsBuildValidDags) {
  Rng rng(1);
  for (const auto app : kAllAppTypes) {
    const auto dag = build_dag(basic_config(app), rng);
    EXPECT_GE(dag.stages.size(), 2u) << to_string(app);
    EXPECT_GT(dag.result_bytes, 0.0);
    EXPECT_GT(dag.broadcast_bytes, 0.0);
    EXPECT_GT(dag.total_cpu_work(), 0.0);
    EXPECT_GT(dag.total_shuffle_bytes(), 0.0);
  }
}

TEST(Workloads, SortShufflesEntireInput) {
  Rng rng(1);
  const auto config = basic_config(AppType::kSort);
  const auto dag = build_dag(config, rng);
  EXPECT_DOUBLE_EQ(dag.stages[1].shuffle_bytes_in, config.input_bytes());
}

TEST(Workloads, GroupByShufflesLessThanSort) {
  Rng rng(1);
  const auto sort_dag = build_dag(basic_config(AppType::kSort), rng);
  const auto group_dag = build_dag(basic_config(AppType::kGroupBy), rng);
  EXPECT_LT(group_dag.total_shuffle_bytes(), sort_dag.total_shuffle_bytes());
}

TEST(Workloads, PageRankStagesScaleWithIterations) {
  Rng rng(1);
  auto config = basic_config(AppType::kPageRank);
  config.iterations = 2;
  const auto dag2 = build_dag(config, rng);
  config.iterations = 5;
  const auto dag5 = build_dag(config, rng);
  EXPECT_EQ(dag5.stages.size(), dag2.stages.size() + 3);
  // Iteration stages carry the driver-sync barrier.
  EXPECT_GT(dag5.stages[1].driver_sync_in, 0.0);
  EXPECT_GT(dag5.stages[1].driver_sync_rounds, 0);
}

TEST(Workloads, JoinWeightsAreSkewedAndNormalized) {
  Rng rng(7);
  auto config = basic_config(AppType::kJoin);
  config.join_skew = 1.5;
  const auto dag = build_dag(config, rng);
  const auto& join_stage = dag.stages[2];
  ASSERT_FALSE(join_stage.task_weights.empty());
  double total = 0.0, max_w = 0.0;
  for (const double w : join_stage.task_weights) {
    total += w;
    max_w = std::max(max_w, w);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  const double uniform = 1.0 / join_stage.task_weights.size();
  EXPECT_GT(max_w, 2.0 * uniform);  // visibly skewed
}

TEST(Workloads, HigherSkewConcentratesMore) {
  auto max_weight = [](double skew) {
    Rng rng(7);
    auto config = basic_config(AppType::kJoin);
    config.join_skew = skew;
    const auto dag = build_dag(config, rng);
    double max_w = 0.0;
    for (const double w : dag.stages[2].task_weights) {
      max_w = std::max(max_w, w);
    }
    return max_w;
  };
  EXPECT_GT(max_weight(1.8), max_weight(1.1));
}

TEST(Workloads, DagValidationCatchesCorruption) {
  Rng rng(1);
  auto dag = build_dag(basic_config(), rng);
  dag.stages[1].deps = {5};
  EXPECT_THROW(dag.validate(), Error);
  dag = build_dag(basic_config(), rng);
  dag.stages[0].num_tasks = 0;
  EXPECT_THROW(dag.validate(), Error);
}

// -------------------------------------------------------------- runtime ----

struct RuntimeFixture {
  sim::Engine engine;
  cluster::Cluster cluster{engine, cluster::paper_cluster_spec()};

  AppResult run(const JobConfig& config, std::size_t driver,
                std::vector<std::size_t> executors, std::uint64_t seed = 3) {
    Rng dag_rng(seed);
    auto dag = build_dag(config, dag_rng);
    SparkApp app(cluster, config, std::move(dag), driver, executors,
                 Rng(seed ^ 0xabc));
    app.submit();
    while (!app.result().completed) {
      if (!engine.step()) break;
    }
    EXPECT_TRUE(app.result().completed);
    return app.result();
  }
};

TEST(Runtime, JobCompletesWithSensibleResult) {
  RuntimeFixture f;
  const auto result = f.run(basic_config(), 0, {1, 2, 3});
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.duration(), 3.0);   // startup alone costs seconds
  EXPECT_LT(result.duration(), 120.0);
  EXPECT_EQ(result.driver_node, "node-1");
  EXPECT_EQ(result.executor_nodes.size(), 3u);
  EXPECT_GT(result.total_shuffle_bytes, 0.0);
  for (const auto& stage : result.stages) {
    EXPECT_GE(stage.end, stage.start);
  }
}

TEST(Runtime, StagesRespectDependencies) {
  RuntimeFixture f;
  const auto result = f.run(basic_config(AppType::kPageRank), 0, {1, 2, 3});
  for (std::size_t s = 1; s < result.stages.size(); ++s) {
    // Chain DAG: each stage starts only after the previous one ends.
    EXPECT_GE(result.stages[s].start, result.stages[s - 1].end - 1e-9);
  }
}

TEST(Runtime, LargerInputTakesLonger) {
  RuntimeFixture f1, f2;
  auto small = basic_config();
  small.input_records = 200000;
  auto large = basic_config();
  large.input_records = 2000000;
  const auto r_small = f1.run(small, 0, {1, 2, 3});
  const auto r_large = f2.run(large, 0, {1, 2, 3});
  EXPECT_GT(r_large.duration(), r_small.duration());
  EXPECT_GT(r_large.total_shuffle_bytes, r_small.total_shuffle_bytes);
}

TEST(Runtime, DeterministicForSameSeed) {
  RuntimeFixture f1, f2;
  const auto r1 = f1.run(basic_config(), 2, {0, 3, 4}, 11);
  const auto r2 = f2.run(basic_config(), 2, {0, 3, 4}, 11);
  EXPECT_DOUBLE_EQ(r1.duration(), r2.duration());
  EXPECT_DOUBLE_EQ(r1.total_shuffle_bytes, r2.total_shuffle_bytes);
}

TEST(Runtime, CpuContentionOnDriverNodeSlowsJob) {
  RuntimeFixture loaded, quiet;
  loaded.cluster.node(0).cpu().add_persistent(5.5);
  const auto r_loaded = loaded.run(basic_config(), 0, {1, 2, 3});
  const auto r_quiet = quiet.run(basic_config(), 0, {1, 2, 3});
  EXPECT_GT(r_loaded.duration(), r_quiet.duration());
}

TEST(Runtime, NetworkContentionOnDriverNodeSlowsJob) {
  // Saturate the driver node's access link with background fetches; keep
  // the executors and the background server away from each other so the
  // collect/broadcast path through the driver NIC is the only difference.
  RuntimeFixture loaded, quiet;
  cluster::BackgroundLoadOptions heavy;
  heavy.parallel_fetches = 8;
  heavy.mean_pause = 0.05;
  cluster::BackgroundLoad bg(loaded.cluster, 0, 3, heavy, Rng(2));
  bg.start();
  loaded.engine.run_until(10.0);
  quiet.engine.run_until(10.0);
  auto config = basic_config();
  config.input_records = 2000000;
  config.record_bytes = 200.0;  // 400 MB input -> 100 MB collect
  const auto r_loaded = loaded.run(config, 0, {1, 4, 5});
  const auto r_quiet = quiet.run(config, 0, {1, 4, 5});
  EXPECT_GT(r_loaded.duration(), 1.03 * r_quiet.duration());
}

TEST(Runtime, TightExecutorMemoryCausesSpill) {
  RuntimeFixture tight, roomy;
  auto config = basic_config(AppType::kJoin);
  config.input_records = 2000000;
  config.record_bytes = 200.0;
  config.join_skew = 1.8;
  // The heaviest Zipf partition's working set (~480 MB here) far exceeds
  // its share of a 128 MB heap.
  config.executor_memory = 128.0 * 1024 * 1024;
  const auto r_tight = tight.run(config, 0, {1, 2, 3});
  config.executor_memory = 4.0 * 1024 * 1024 * 1024;
  const auto r_roomy = roomy.run(config, 0, {1, 2, 3});
  EXPECT_GT(r_tight.max_spill_penalty, 1.0);
  EXPECT_GT(r_tight.duration(), r_roomy.duration());
}

TEST(Runtime, ResourcesReleasedAfterCompletion) {
  RuntimeFixture f;
  f.run(basic_config(), 0, {1, 2, 3});
  for (std::size_t n = 0; n < f.cluster.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(f.cluster.node(n).memory_used(), 0.0) << n;
    EXPECT_DOUBLE_EQ(f.cluster.node(n).cpu().total_demand(), 0.0) << n;
  }
  EXPECT_EQ(f.cluster.flows().num_active(), 0u);
}

TEST(Runtime, CancelReleasesEverything) {
  RuntimeFixture f;
  Rng dag_rng(3);
  auto dag = build_dag(basic_config(), dag_rng);
  SparkApp app(f.cluster, basic_config(), std::move(dag), 0, {1, 2, 3},
               Rng(3));
  test::Recorder rec(f.engine);
  bool completed = false;
  rec.hook = [&](const sim::Event&) { completed = true; };
  app.submit(rec.event());
  f.engine.run_until(6.0);  // mid-flight
  app.cancel();
  f.engine.run_until(300.0);
  EXPECT_FALSE(completed);
  for (std::size_t n = 0; n < f.cluster.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(f.cluster.node(n).memory_used(), 0.0);
    EXPECT_DOUBLE_EQ(f.cluster.node(n).cpu().total_demand(), 0.0);
  }
  EXPECT_EQ(f.cluster.flows().num_active(), 0u);
}

TEST(Runtime, DoubleSubmitRejected) {
  RuntimeFixture f;
  Rng dag_rng(3);
  auto dag = build_dag(basic_config(), dag_rng);
  SparkApp app(f.cluster, basic_config(), std::move(dag), 0, {1, 2, 3},
               Rng(3));
  app.submit();
  EXPECT_THROW(app.submit(), Error);
}

TEST(Runtime, CancelAtEveryEventReleasesEverything) {
  // A Join job cancelled after its first k events, for every k short of a
  // whole run: whatever it holds at that instant (pods, task working sets,
  // flows, CPU tasks, pending steps) goes back, and its completion record
  // never fires.
  const JobConfig config = basic_config(AppType::kJoin);
  auto make_app = [&config](RuntimeFixture& f) {
    Rng dag_rng(3);
    return std::make_unique<SparkApp>(f.cluster, config,
                                      build_dag(config, dag_rng), 0,
                                      std::vector<std::size_t>{1, 2, 3},
                                      Rng(3));
  };
  std::uint64_t events = 0;
  {
    RuntimeFixture f;
    const auto app = make_app(f);
    app->submit();
    f.engine.run();
    ASSERT_TRUE(app->result().completed);
    events = f.engine.num_processed();
  }
  ASSERT_GT(events, 20u);
  for (std::uint64_t k = 0; k < events; ++k) {
    RuntimeFixture f;
    test::Recorder rec(f.engine);
    auto app = make_app(f);
    app->submit(rec.event());
    for (std::uint64_t i = 0; i < k; ++i) ASSERT_TRUE(f.engine.step());
    const auto expect_released = [&](const char* when) {
      for (std::size_t n = 0; n < f.cluster.num_nodes(); ++n) {
        // Within a byte: the node sums fractional working sets, so giving
        // them back in another order can leave rounding dust.
        EXPECT_NEAR(f.cluster.node(n).memory_used(), 0.0, 1.0)
            << "cancelled after " << k << " events, " << when << ", node "
            << n;
        EXPECT_DOUBLE_EQ(f.cluster.node(n).cpu().total_demand(), 0.0)
            << "cancelled after " << k << " events, " << when << ", node "
            << n;
      }
      EXPECT_EQ(f.cluster.flows().num_active(), 0u)
          << "cancelled after " << k << " events, " << when;
    };
    app->cancel();
    expect_released("at the cancel");
    // Dropped as an evicted stream job is: a record still aimed at the app
    // would now reach a removed target.
    app.reset();
    f.engine.run();
    expect_released("after draining");
    EXPECT_TRUE(rec.codes.empty()) << "cancelled after " << k << " events";
  }
}

TEST(Runtime, ExecutorCountMustMatchPlacements) {
  RuntimeFixture f;
  Rng dag_rng(3);
  auto dag = build_dag(basic_config(), dag_rng);
  EXPECT_THROW(SparkApp(f.cluster, basic_config(), std::move(dag), 0,
                        {1, 2}, Rng(3)),
               Error);
}

TEST(Runtime, CollocatedExecutorsUseLoopback) {
  // All executors on the driver node: no WAN traffic at all.
  RuntimeFixture f;
  const auto result = f.run(basic_config(), 0, {0, 0, 0});
  EXPECT_TRUE(result.completed);
  EXPECT_DOUBLE_EQ(result.total_shuffle_bytes, 0.0);  // everything local
}

TEST(Runtime, PageRankMoreRttSensitiveThanSort) {
  // Same cluster, driver on FIU (far) vs UCSD (near): the iterative app
  // should lose relatively more from the far placement.
  auto run_app = [](AppType app, std::size_t driver) {
    RuntimeFixture f;
    JobConfig config = basic_config(app);
    config.executors = 4;
    config.iterations = 4;
    return f.run(config, driver, {0, 1, 4, 5}).duration();
  };
  const double sort_near = run_app(AppType::kSort, 0);
  const double sort_far = run_app(AppType::kSort, 2);
  const double pr_near = run_app(AppType::kPageRank, 0);
  const double pr_far = run_app(AppType::kPageRank, 2);
  const double sort_ratio = sort_far / sort_near;
  const double pr_ratio = pr_far / pr_near;
  EXPECT_GT(pr_ratio, sort_ratio);
}

}  // namespace
}  // namespace lts::spark

// --------------------------------------------------- extension workloads ----

namespace lts::spark {
namespace {

TEST(ExtensionWorkloads, MlPipelineShapesFollowConfig) {
  Rng rng(1);
  JobConfig config = basic_config(AppType::kMlPipeline);
  config.iterations = 3;
  const auto dag = build_dag(config, rng);
  // load + 3 epochs + evaluate.
  ASSERT_EQ(dag.stages.size(), 5u);
  for (std::size_t s = 1; s <= 3; ++s) {
    EXPECT_GT(dag.stages[s].driver_sync_in, 0.0);
    EXPECT_GT(dag.stages[s].driver_sync_out, 0.0);
    EXPECT_GT(dag.stages[s].driver_sync_rounds, 0);
  }
  EXPECT_GT(dag.broadcast_bytes, 150e6);  // jar + initial model
}

TEST(ExtensionWorkloads, StreamingIsControlPlaneHeavy) {
  Rng rng(1);
  JobConfig config = basic_config(AppType::kStreaming);
  config.iterations = 3;
  const auto dag = build_dag(config, rng);
  ASSERT_EQ(dag.stages.size(), 10u);  // source + 9 micro-batches
  int sync_stages = 0;
  for (const auto& stage : dag.stages) {
    if (stage.driver_sync_rounds > 0) ++sync_stages;
  }
  EXPECT_EQ(sync_stages, 9);
}

TEST(ExtensionWorkloads, BothRunToCompletion) {
  for (const auto app : {AppType::kMlPipeline, AppType::kStreaming}) {
    RuntimeFixture f;
    JobConfig config = basic_config(app);
    config.iterations = 2;
    const auto result = f.run(config, 0, {1, 2, 4});
    EXPECT_TRUE(result.completed) << to_string(app);
    EXPECT_GT(result.duration(), 3.0);
    EXPECT_LT(result.duration(), 300.0);
  }
}

TEST(ExtensionWorkloads, UnseenAppsEncodeAsZeroOneHot) {
  // The paper one-hot excludes the extension apps by design.
  JobConfig config = basic_config(AppType::kMlPipeline);
  for (const auto app : kAllAppTypes) {
    EXPECT_NE(config.app, app);
  }
  EXPECT_EQ(std::string(to_string(AppType::kMlPipeline)), "ml_pipeline");
  EXPECT_EQ(app_type_from_string("streaming"), AppType::kStreaming);
}

TEST(ExtensionWorkloads, MlPipelineMoreDriverSensitiveThanSort) {
  auto run_app = [](AppType app, std::size_t driver) {
    RuntimeFixture f;
    JobConfig config = basic_config(app);
    config.executors = 4;
    config.iterations = 3;
    return f.run(config, driver, {0, 1, 4, 5}).duration();
  };
  const double sort_ratio =
      run_app(AppType::kSort, 2) / run_app(AppType::kSort, 0);
  const double ml_ratio =
      run_app(AppType::kMlPipeline, 2) / run_app(AppType::kMlPipeline, 0);
  EXPECT_GT(ml_ratio, sort_ratio);
}

}  // namespace
}  // namespace lts::spark
