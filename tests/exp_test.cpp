// Tests for the experiment harness: environment generation, determinism and
// counterfactual properties, the scenario matrix, the collector, and the
// evaluation protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <type_traits>

#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/figures.hpp"
#include "exp/scenario.hpp"
#include "obs/trace.hpp"
#include "recorder.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace lts::exp {
namespace {

// -------------------------------------------------------- serial oracles ----
// The serial loops collect_training_data and evaluate_methods ran before
// they fanned out on ThreadPool::global(), copied here and driving SimEnv
// directly. The library must reproduce them bit for bit.

CsvTable serial_collect(const std::vector<Scenario>& scenarios,
                        const CollectorOptions& options) {
  core::TrainingLogger logger;
  const std::size_t num_nodes =
      SimEnv(options.base_seed, options.env).node_names().size();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t target = 0; target < num_nodes; ++target) {
      for (int rep = 0; rep < options.repeats; ++rep) {
        const std::uint64_t seed = sample_seed(options, s, target, rep);
        SimEnv env(seed, options.env);
        env.warmup();
        if (options.residual_job) {
          Rng residual_rng(seed ^ 0x4e51d0a1ULL);
          const auto& warm = sample_scenario(scenarios, residual_rng);
          const auto node = static_cast<std::size_t>(residual_rng.uniform_int(
              0, static_cast<std::int64_t>(env.node_names().size()) - 1));
          env.run_job(warm.config, node, seed ^ 0x4e51d0a2ULL);
        }
        const auto snapshot = env.snapshot();
        const auto result =
            env.run_job(scenarios[s].config, target, seed ^ 0x5eedf00dULL);
        logger.log_run(scenarios[s].id, snapshot, scenarios[s].config,
                       result);
      }
    }
  }
  return logger.table();
}

std::vector<std::size_t> serial_rank_by(const std::vector<double>& keys) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  return order;
}

bool serial_hit_topk(const std::vector<std::size_t>& ranking,
                     std::size_t fastest, int k) {
  const std::size_t limit =
      std::min(ranking.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < limit; ++i) {
    if (ranking[i] == fastest) return true;
  }
  return false;
}

EvalResult serial_evaluate(const std::vector<MethodUnderTest>& models,
                           const std::vector<Scenario>& matrix,
                           const EvalOptions& options) {
  EvalResult result;
  std::vector<std::string> method_order = {"kube_default", "random"};
  for (const auto& h : options.heuristics) method_order.push_back(h);
  for (const auto& entry : models) method_order.push_back(entry.name);
  std::map<std::string, int> top1_hits, top2_hits;
  std::map<std::string, double> regret_sum;

  for (int s = 0; s < options.num_scenarios; ++s) {
    const std::uint64_t seed =
        options.base_seed + 7919ULL * static_cast<std::uint64_t>(s);
    Rng pick_rng(seed ^ 0xabcdef12ULL);
    const Scenario& scenario = sample_scenario(matrix, pick_rng);
    const std::uint64_t job_seed = seed ^ 0x5eedf00dULL;

    ScenarioOutcome outcome;
    outcome.scenario_id = scenario.id;
    outcome.seed = seed;
    {
      SimEnv env(seed, options.env);
      env.warmup();
      const auto snapshot = env.snapshot();
      const std::size_t n = env.node_names().size();
      std::vector<std::size_t> kube_rank;
      for (const auto& scored : env.kube_ranking(scenario.config).ranking) {
        kube_rank.push_back(env.cluster().node_index(scored.name));
      }
      outcome.rankings["kube_default"] = std::move(kube_rank);
      std::vector<std::size_t> random_rank(n);
      for (std::size_t i = 0; i < n; ++i) random_rank[i] = i;
      Rng shuffle_rng(seed ^ 0x12341234ULL);
      shuffle_rng.shuffle(random_rank);
      outcome.rankings["random"] = std::move(random_rank);
      for (const auto& h : options.heuristics) {
        std::vector<double> keys(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          keys[i] = h == "least_cpu" ? snapshot.nodes[i].cpu_load
                                     : snapshot.nodes[i].rtt_mean;
        }
        outcome.rankings[h] = serial_rank_by(keys);
      }
      for (const auto& entry : models) {
        core::LtsScheduler scheduler(
            core::TelemetryFetcher(env.tsdb(), env.node_names(),
                                   options.env.snapshot),
            entry.model, entry.features, entry.risk_aversion, entry.degraded);
        const auto decision =
            scheduler.schedule_from_snapshot(snapshot, scenario.config);
        std::vector<std::size_t> ranked;
        for (const auto& p : decision.ranking) {
          ranked.push_back(env.cluster().node_index(p.node));
        }
        outcome.rankings[entry.name] = std::move(ranked);
      }
    }
    const std::size_t n_nodes = SimEnv(seed, options.env).node_names().size();
    for (std::size_t node = 0; node < n_nodes; ++node) {
      double total = 0.0;
      for (int rep = 0; rep < options.truth_repeats; ++rep) {
        SimEnv env(seed, options.env);
        env.warmup();
        total += env.run_job(scenario.config, node,
                             job_seed + 0x9e3779b9ULL *
                                            static_cast<std::uint64_t>(rep))
                     .duration();
      }
      outcome.node_durations.push_back(
          total / static_cast<double>(options.truth_repeats));
    }
    outcome.fastest_node = static_cast<std::size_t>(
        std::min_element(outcome.node_durations.begin(),
                         outcome.node_durations.end()) -
        outcome.node_durations.begin());
    for (const auto& method : method_order) {
      const auto& ranking = outcome.rankings.at(method);
      if (serial_hit_topk(ranking, outcome.fastest_node, 1)) {
        ++top1_hits[method];
      }
      if (serial_hit_topk(ranking, outcome.fastest_node, 2)) {
        ++top2_hits[method];
      }
      regret_sum[method] += outcome.node_durations[ranking.front()] -
                            outcome.node_durations[outcome.fastest_node];
    }
    result.outcomes.push_back(std::move(outcome));
  }
  const auto n = static_cast<double>(options.num_scenarios);
  for (const auto& method : method_order) {
    MethodAccuracy acc;
    acc.method = method;
    acc.scenarios = options.num_scenarios;
    acc.top1 = static_cast<double>(top1_hits[method]) / n;
    acc.top2 = static_cast<double>(top2_hits[method]) / n;
    acc.mean_regret = regret_sum[method] / n;
    result.accuracy.push_back(std::move(acc));
  }
  return result;
}

std::string csv_bytes(const CsvTable& table) {
  std::ostringstream out;
  table.write(out);
  return out.str();
}

// ------------------------------------------------------------- scenario ----

TEST(Scenario, MatrixHasSixtyDistinctConfigs) {
  const auto matrix = paper_scenario_matrix();
  ASSERT_EQ(matrix.size(), 60u);
  std::set<std::string> ids;
  int per_app[4] = {0, 0, 0, 0};
  for (const auto& s : matrix) {
    ids.insert(s.id);
    s.config.validate();
    ++per_app[static_cast<int>(s.config.app)];
  }
  EXPECT_EQ(ids.size(), 60u);
  for (const int count : per_app) EXPECT_EQ(count, 15);
}

TEST(Scenario, MatrixCoversSizeAndExecutorRanges) {
  const auto matrix = paper_scenario_matrix();
  std::set<std::int64_t> sizes;
  std::set<int> executors;
  std::set<double> memories;
  for (const auto& s : matrix) {
    sizes.insert(s.config.input_records);
    executors.insert(s.config.executors);
    memories.insert(s.config.executor_memory);
  }
  EXPECT_GE(sizes.size(), 5u);
  EXPECT_GE(executors.size(), 3u);
  EXPECT_GE(memories.size(), 2u);  // tight and roomy allocations
}

TEST(Scenario, SamplingIsDeterministic) {
  const auto matrix = paper_scenario_matrix();
  Rng a(9), b(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sample_scenario(matrix, a).id, sample_scenario(matrix, b).id);
  }
}

// --------------------------------------------------------------- envgen ----

TEST(SimEnv, BuildsPaperTopology) {
  SimEnv env(1);
  EXPECT_EQ(env.node_names().size(), 6u);
  EXPECT_EQ(env.api().nodes().size(), 6u);
  // Allocatable = capacity - reserve.
  EXPECT_DOUBLE_EQ(env.api().nodes()[0].allocatable.cpu, 5.5);
}

TEST(SimEnv, WarmupPopulatesTelemetry) {
  SimEnv env(2);
  env.warmup();
  const auto snapshot = env.snapshot();
  for (const auto& node : snapshot.nodes) {
    EXPECT_GT(node.rtt_mean, 0.0) << node.node;
    EXPECT_GT(node.mem_available, 0.0) << node.node;
  }
}

TEST(SimEnv, SameSeedSameWorld) {
  SimEnv a(42), b(42);
  a.warmup();
  b.warmup();
  EXPECT_EQ(a.num_background_pods(), b.num_background_pods());
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  for (std::size_t i = 0; i < sa.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa.nodes[i].rtt_mean, sb.nodes[i].rtt_mean);
    EXPECT_DOUBLE_EQ(sa.nodes[i].tx_rate, sb.nodes[i].tx_rate);
    EXPECT_DOUBLE_EQ(sa.nodes[i].cpu_load, sb.nodes[i].cpu_load);
  }
}

TEST(SimEnv, DifferentSeedsDifferentWorlds) {
  SimEnv a(1), b(99);
  a.warmup();
  b.warmup();
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.nodes.size() && !any_diff; ++i) {
    any_diff = sa.nodes[i].rtt_mean != sb.nodes[i].rtt_mean;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimEnv, RunJobIsDeterministic) {
  auto run = [] {
    SimEnv env(7);
    env.warmup();
    spark::JobConfig job;
    job.input_records = 400000;
    job.executors = 3;
    return env.run_job(job, 1, 55).duration();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(SimEnv, CounterfactualChangesOnlyPlacement) {
  // Same seed, different driver node: the executor-visible world (bg pods,
  // node heterogeneity) replays identically; only the placement differs.
  spark::JobConfig job;
  job.input_records = 400000;
  job.executors = 3;
  SimEnv a(7), b(7);
  a.warmup();
  b.warmup();
  const auto ra = a.run_job(job, 0, 55);
  const auto rb = b.run_job(job, 5, 55);
  EXPECT_EQ(ra.driver_node, "node-1");
  EXPECT_EQ(rb.driver_node, "node-6");
  EXPECT_NE(ra.duration(), rb.duration());
}

TEST(SimEnv, PodsCleanedUpAfterRun) {
  SimEnv env(3);
  env.warmup();
  spark::JobConfig job;
  job.executors = 3;
  const std::size_t pods_before = env.api().num_pods();
  env.run_job(job, 0, 9);
  EXPECT_EQ(env.api().num_pods(), pods_before);
}

TEST(SimEnv, KubeRankingCoversFeasibleNodes) {
  SimEnv env(3);
  env.warmup();
  spark::JobConfig job;
  const auto ranking = env.kube_ranking(job);
  EXPECT_EQ(ranking.ranking.size(), 6u);
}

TEST(SimEnv, BackgroundCountWithinConfiguredRange) {
  EnvOptions options;
  options.min_background_pods = 2;
  options.max_background_pods = 2;
  SimEnv env(5, options);
  EXPECT_EQ(env.num_background_pods(), 2u);
}

// ------------------------------------------------------------------ fork ----
// A SimEnv copy taken after warmup() must continue bit for bit like a
// freshly warmed environment of the same seed: the evaluation's
// counterfactual runs fork one warm state instead of re-warming it.

template <typename T>
void append_bytes(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

/// Every field of an AppResult, doubles as raw bytes: stage and job times
/// must match exactly, not within a tolerance.
std::string result_bytes(const spark::AppResult& r) {
  std::string out;
  append_bytes(out, r.completed);
  append_bytes(out, r.submit_time);
  append_bytes(out, r.finish_time);
  out += r.driver_node + '|';
  for (const auto& e : r.executor_nodes) out += e + '|';
  for (const auto& st : r.stages) {
    append_bytes(out, st.stage_id);
    out += st.name + '|';
    append_bytes(out, st.start);
    append_bytes(out, st.end);
    append_bytes(out, st.shuffle_bytes);
    append_bytes(out, st.tasks);
  }
  append_bytes(out, r.total_shuffle_bytes);
  append_bytes(out, r.result_bytes);
  append_bytes(out, r.max_spill_penalty);
  return out;
}

/// Every field of a snapshot, doubles as raw bytes.
std::string snapshot_bytes(const telemetry::ClusterSnapshot& s) {
  std::string out;
  append_bytes(out, s.at);
  for (const auto& n : s.nodes) {
    out += n.node + '|';
    for (const double v :
         {n.rtt_mean, n.rtt_max, n.rtt_std, n.tx_rate, n.rx_rate, n.cpu_load,
          n.mem_available, n.uplink_util, n.downlink_util, n.queue_delay,
          n.active_flows, n.last_seen}) {
      append_bytes(out, v);
    }
    append_bytes(out, n.has_data);
    append_bytes(out, n.stale);
  }
  return out;
}

/// For every driver node: a fresh environment warmed from `seed` and a copy
/// of one warm `source` show the same snapshot, run the job to the same
/// AppResult bytes and process the same number of events doing it.
void expect_fork_matches_rewarm(const SimEnv& source, std::uint64_t seed,
                                const EnvOptions& options,
                                const spark::JobConfig& job) {
  for (std::size_t node = 0; node < source.node_names().size(); ++node) {
    SimEnv fresh(seed, options);
    fresh.warmup();
    SimEnv fork(source);
    ASSERT_EQ(snapshot_bytes(fork.snapshot()), snapshot_bytes(fresh.snapshot()))
        << "seed " << seed << " node " << node;
    EXPECT_EQ(fork.engine().num_processed(), fresh.engine().num_processed());
    EXPECT_EQ(fork.engine().num_pending(), fresh.engine().num_pending());
    const std::uint64_t fresh_before = fresh.engine().num_processed();
    const std::uint64_t fork_before = fork.engine().num_processed();
    const auto want = fresh.run_job(job, node, seed ^ 0x5eedULL);
    const auto got = fork.run_job(job, node, seed ^ 0x5eedULL);
    EXPECT_TRUE(got.completed);
    EXPECT_EQ(result_bytes(got), result_bytes(want))
        << "seed " << seed << " node " << node;
    EXPECT_EQ(fork.engine().num_processed() - fork_before,
              fresh.engine().num_processed() - fresh_before)
        << "seed " << seed << " node " << node;
    EXPECT_EQ(snapshot_bytes(fork.snapshot()), snapshot_bytes(fresh.snapshot()))
        << "seed " << seed << " node " << node;
  }
}

TEST(SimEnvFork, MatchesRewarmedEnvironmentOnEveryNode) {
  const auto matrix = paper_scenario_matrix();
  for (const std::uint64_t seed : {11, 22, 33, 44, 55, 66}) {
    // A different application per seed, so every stage shape is covered.
    const auto& job = matrix[static_cast<std::size_t>(seed) % matrix.size()];
    SimEnv source(seed);
    source.warmup();
    expect_fork_matches_rewarm(source, seed, EnvOptions{}, job.config);
  }
}

TEST(SimEnvFork, MatchesUnderFaults) {
  spark::JobConfig job;
  job.input_records = 600000;
  job.executors = 3;
  // Faults pending at fork time on both sides of warmup: a degraded link
  // that recovers mid-job, exporter reports in flight, a crash and its
  // recovery after the fork.
  EnvOptions faulty;
  faulty.faults = fault::faults_from_json(Json::parse(R"([
    {"kind": "link_degrade", "target": "ucsd:fiu", "at": 20.0,
     "duration": 25.0, "severity": 0.7},
    {"kind": "exporter_delay", "target": "node-2", "at": 30.0,
     "duration": 20.0, "severity": 5.0},
    {"kind": "exporter_silence", "target": "node-5", "at": 10.0,
     "duration": 100.0},
    {"kind": "node_crash", "target": "node-4", "at": 41.0, "duration": 3.0}
  ])"));
  SimEnv source(808, faulty);
  source.warmup();
  expect_fork_matches_rewarm(source, 808, faulty, job);
}

TEST(SimEnvFork, CopyOfACopyMatches) {
  spark::JobConfig job;
  job.app = spark::AppType::kJoin;
  job.input_records = 500000;
  job.executors = 4;
  // Every copy here outlives the environment it was taken from: no
  // component of a fork may still point into its source (ASan reports one
  // that reads it; a TSDB left behind loses the fork's scrapes in any
  // build).
  auto source = std::make_unique<SimEnv>(909);
  source->warmup();
  const SimEnv first(*source);
  auto later = std::make_unique<SimEnv>(*source);
  source.reset();
  expect_fork_matches_rewarm(first, 909, EnvOptions{}, job);

  // A copy taken later than warmup (the staleness sweep's fork, then run
  // on) and copied again still tracks a fresh environment run as far.
  later->engine().run_until(kWarmup + 30.0);
  SimEnv fresh(909);
  fresh.warmup();
  fresh.engine().run_until(kWarmup + 30.0);
  SimEnv again(*later);
  later.reset();
  EXPECT_EQ(result_bytes(again.run_job(job, 2, 77)),
            result_bytes(fresh.run_job(job, 2, 77)));
  EXPECT_EQ(snapshot_bytes(again.snapshot()), snapshot_bytes(fresh.snapshot()));
}

TEST(SimEnvFork, RunningACopyLeavesTheSourceUntouched) {
  spark::JobConfig job;
  job.input_records = 800000;
  job.executors = 4;
  SimEnv source(31);
  source.warmup();
  const SimTime now = source.engine().now();
  const std::string snapshot = snapshot_bytes(source.snapshot());
  const std::size_t pending = source.engine().num_pending();
  const std::uint64_t processed = source.engine().num_processed();
  const std::size_t pods = source.api().num_pods();
  SimEnv fork(source);
  fork.run_job(job, 3, 5);
  fork.engine().run_until(fork.engine().now() + 60.0);
  EXPECT_EQ(source.engine().now(), now);
  EXPECT_EQ(snapshot_bytes(source.snapshot()), snapshot);
  EXPECT_EQ(source.engine().num_pending(), pending);
  EXPECT_EQ(source.engine().num_processed(), processed);
  EXPECT_EQ(source.api().num_pods(), pods);
  // The source still runs its own job exactly like a fresh warm env.
  SimEnv fresh(31);
  fresh.warmup();
  EXPECT_EQ(result_bytes(source.run_job(job, 1, 6)),
            result_bytes(fresh.run_job(job, 1, 6)));
}

TEST(SimEnvFork, ConcurrentCopiesOfOneSource) {
  // Copies only read their source, so several threads may fork one warm
  // environment at once (evaluate_methods does). Under TSan this is the
  // race check; everywhere it must match the serial forks.
  spark::JobConfig job;
  job.input_records = 500000;
  job.executors = 3;
  SimEnv source(4242);
  source.warmup();
  constexpr std::size_t kCopies = 8;
  std::vector<std::string> serial(kCopies);
  for (std::size_t i = 0; i < kCopies; ++i) {
    SimEnv fork(source);
    serial[i] = result_bytes(fork.run_job(job, i % 6, 100 + i));
  }
  ThreadPool pool(4);
  std::vector<std::string> parallel(kCopies);
  // lts-lint: shared-guarded(partitioned: item i writes only parallel[i]; source is only read)
  pool.parallel_for(kCopies, [&](std::size_t i) {
    SimEnv fork(source);
    parallel[i] = result_bytes(fork.run_job(job, i % 6, 100 + i));
  });
  EXPECT_EQ(parallel, serial);
}

TEST(SimEnvFork, ForkBetweenAFillAndTheFirstUtilizationRead) {
  // Link sums are lazy: a fill marks them stale and the next utilization
  // read adds them up. A fork taken in between must do the same on its
  // first read, and so match its source link for link.
  SimEnv source(5150);
  source.warmup();
  net::FlowManager& flows = source.cluster().flows();
  const std::size_t links = source.cluster().topology().num_links();
  for (std::size_t l = 0; l < links; ++l) {
    (void)flows.link_utilization(static_cast<net::LinkId>(l));  // summed
  }
  // A new flow, and a rate read that runs its fill without summing.
  flows.start(source.cluster().node(0).vertex(),
              source.cluster().node(3).vertex(), 5e8);
  (void)flows.host_tx_rate(source.cluster().node(0).vertex());
  SimEnv fork(source);
  for (std::size_t l = 0; l < links; ++l) {
    const auto link = static_cast<net::LinkId>(l);
    EXPECT_EQ(fork.cluster().flows().link_utilization(link),
              flows.link_utilization(link))
        << "link " << l;
  }
  // Both run on alike, through scrapes that export the utilizations.
  source.engine().run_until(source.engine().now() + 6.0);
  fork.engine().run_until(fork.engine().now() + 6.0);
  EXPECT_EQ(snapshot_bytes(fork.snapshot()), snapshot_bytes(source.snapshot()));
  EXPECT_EQ(fork.engine().num_processed(), source.engine().num_processed());
}

TEST(SimEnvFork, RefusesWhatItCannotTake) {
  SimEnv env(12);
  env.warmup();
  // A live SparkApp is bound to this environment's cluster.
  spark::JobConfig job;
  job.executors = 2;
  {
    auto app = env.make_app(job, 0, {1, 2}, 3);
    app->submit();
    env.engine().run_until(env.engine().now() + 1.0);
    try {
      SimEnv copy(env);
      ADD_FAILURE() << "copied a live SparkApp";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("SparkApp"), std::string::npos)
          << e.what();
    }
  }
  // Once the app is gone the environment copies again.
  EXPECT_NO_THROW(SimEnv{env});
  // Nor can a copy take a record pending for a target outside the
  // environment.
  test::Recorder outside(env.engine());
  env.engine().schedule_in(1.0, outside.event());
  try {
    SimEnv copy(env);
    ADD_FAILURE() << "copied a record for a target outside the environment";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Recorder"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- collector ----

TEST(Collector, ProducesExpectedSampleCount) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(2);
  CollectorOptions options;
  options.repeats = 2;
  options.base_seed = 77;
  // Samples run on the thread pool; progress stays on the calling thread,
  // one call per logged row with done = 1..total in order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> done_seen;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(total, 2u * 6u * 2u);
    done_seen.push_back(done);
  };
  const CsvTable log = collect_training_data(matrix, options);
  EXPECT_EQ(log.num_rows(), 2u * 6u * 2u);
  ASSERT_EQ(done_seen.size(), log.num_rows());
  for (std::size_t i = 0; i < done_seen.size(); ++i) {
    EXPECT_EQ(done_seen[i], i + 1);
  }
}

TEST(Collector, CoversAllTargetNodes) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(1);
  CollectorOptions options;
  options.repeats = 1;
  const CsvTable log = collect_training_data(matrix, options);
  std::set<std::string> nodes;
  for (std::size_t i = 0; i < log.num_rows(); ++i) {
    nodes.insert(log.cell(i, "node"));
  }
  EXPECT_EQ(nodes.size(), 6u);
}

TEST(Collector, RowsAreTrainable) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(3);
  CollectorOptions options;
  options.repeats = 2;
  const CsvTable log = collect_training_data(matrix, options);
  const auto data = core::Trainer::dataset_from_log(log);
  EXPECT_EQ(data.size(), log.num_rows());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_GT(data.target(i), 1.0);    // durations in seconds
    EXPECT_LT(data.target(i), 600.0);
  }
  const auto model = core::Trainer::train("linear", data);
  EXPECT_TRUE(model->is_fitted());
}

TEST(Collector, SampleSeedsDistinct) {
  CollectorOptions options;
  std::set<std::uint64_t> seeds;
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t n = 0; n < 6; ++n) {
      for (int r = 0; r < 3; ++r) {
        seeds.insert(sample_seed(options, s, n, r));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 5u * 6u * 3u);
}

TEST(Collector, MatchesSerialOracle) {
  // The fan-out over each scenario's samples must log exactly the serial
  // loop's CSV, with and without the residual job.
  auto matrix = paper_scenario_matrix();
  matrix.resize(3);
  for (const bool residual : {false, true}) {
    CollectorOptions options;
    options.repeats = 2;
    options.base_seed = 4242;
    options.residual_job = residual;
    const CsvTable log = collect_training_data(matrix, options);
    EXPECT_EQ(log.num_rows(), 3u * 6u * 2u) << residual;
    EXPECT_EQ(csv_bytes(log), csv_bytes(serial_collect(matrix, options)))
        << "residual_job=" << residual;
  }
}

// -------------------------------------------------------------- evaluate ----

/// Methods covering every scoring path: plain model ranking, risk-averse
/// ranking (per-row uncertainty), degradation with stale-node demotion, and
/// the pure fallback ranking (no model).
std::vector<MethodUnderTest> oracle_methods(
    const std::vector<Scenario>& matrix) {
  CollectorOptions collect;
  collect.repeats = 1;
  const auto data =
      core::Trainer::dataset_from_log(collect_training_data(matrix, collect));
  std::shared_ptr<const ml::Regressor> linear =
      core::Trainer::train("linear", data);
  Json forest_params = core::Trainer::default_params("random_forest");
  forest_params["n_estimators"] = 40;
  std::shared_ptr<const ml::Regressor> forest =
      core::Trainer::train("random_forest", data, forest_params);

  std::vector<MethodUnderTest> methods;
  methods.emplace_back("linear", linear);
  methods.emplace_back("random_forest", forest);
  methods.emplace_back("forest_risk", forest, core::FeatureSet::kTable1,
                       /*risk_aversion=*/1.0);
  MethodUnderTest degraded("linear_degraded", linear);
  degraded.degraded = true;
  methods.push_back(degraded);
  MethodUnderTest fallback_only("fallback_only", nullptr);
  fallback_only.degraded = true;
  methods.push_back(fallback_only);
  return methods;
}

TEST(Evaluate, MatchesSerialOracle) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(6);
  const auto methods = oracle_methods(matrix);
  EvalOptions eval;
  eval.num_scenarios = 3;
  eval.truth_repeats = 3;
  eval.base_seed = 31337;
  eval.heuristics = {"least_cpu", "least_rtt"};
  // A silent exporter makes node-3 stale at snapshot time: the degraded
  // method imputes and demotes it.
  fault::FaultSpec silence;
  silence.kind = fault::FaultKind::kExporterSilence;
  silence.target = "node-3";
  silence.at = 20.0;
  silence.duration = 100.0;
  eval.env.faults = {silence};
  const auto result = evaluate_methods(methods, matrix, eval);
  const auto oracle = serial_evaluate(methods, matrix, eval);

  ASSERT_EQ(result.outcomes.size(), oracle.outcomes.size());
  for (std::size_t s = 0; s < oracle.outcomes.size(); ++s) {
    const auto& got = result.outcomes[s];
    const auto& want = oracle.outcomes[s];
    EXPECT_EQ(got.scenario_id, want.scenario_id) << s;
    EXPECT_EQ(got.seed, want.seed) << s;
    EXPECT_EQ(got.rankings, want.rankings) << s;
    ASSERT_EQ(got.node_durations.size(), want.node_durations.size()) << s;
    EXPECT_EQ(std::memcmp(got.node_durations.data(),
                          want.node_durations.data(),
                          want.node_durations.size() * sizeof(double)),
              0)
        << s;
    EXPECT_EQ(got.fastest_node, want.fastest_node) << s;
  }
  ASSERT_EQ(result.accuracy.size(), oracle.accuracy.size());
  for (std::size_t m = 0; m < oracle.accuracy.size(); ++m) {
    const auto& got = result.accuracy[m];
    const auto& want = oracle.accuracy[m];
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.scenarios, want.scenarios) << want.method;
    EXPECT_EQ(got.top1, want.top1) << want.method;
    EXPECT_EQ(got.top2, want.top2) << want.method;
    EXPECT_EQ(got.mean_regret, want.mean_regret) << want.method;
  }
}

TEST(Evaluate, TracesOneSpanPerScenarioAndMethodOnCallingThread) {
  // `lts evaluate --trace-out` relies on this: one "evaluate/<method>" span
  // per (scenario, method), in scenario order, each closed before the
  // scenario's progress call. Enabling the tracer binds it to this thread,
  // so a span call from a pool worker would throw out of evaluate_methods.
  auto matrix = paper_scenario_matrix();
  matrix.resize(6);
  const auto methods = oracle_methods(matrix);
  EvalOptions eval;
  eval.num_scenarios = 3;
  eval.truth_repeats = 1;
  const auto caller = std::this_thread::get_id();
  auto& tracer = obs::Tracer::global();
  std::vector<std::size_t> spans_at_progress;
  eval.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(done, spans_at_progress.size() + 1);
    EXPECT_EQ(total, 3u);
    spans_at_progress.push_back(tracer.num_spans());
  };
  tracer.clear();
  tracer.set_enabled(true);
  EXPECT_NO_THROW(evaluate_methods(methods, matrix, eval));
  tracer.set_enabled(false);

  const std::size_t m = methods.size();
  ASSERT_EQ(tracer.num_spans(), 3u * m);
  ASSERT_EQ(spans_at_progress.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(spans_at_progress[s], (s + 1) * m) << s;
  }
  for (std::size_t k = 0; k < tracer.num_spans(); ++k) {
    const auto& span = tracer.span(k);
    const auto& method = methods[k % m];
    EXPECT_EQ(span.name, "evaluate/" + method.name) << k;
    EXPECT_EQ(span.sim_begin, kWarmup) << k;
    ASSERT_FALSE(span.phases.empty()) << k;
    EXPECT_EQ(span.phases.back().name, "rank") << k;
    if (method.model == nullptr) continue;  // fallback: rank only
    if (!method.degraded) {
      ASSERT_EQ(span.phases.size(), 3u) << k;
      EXPECT_EQ(span.phases[0].name, "features") << k;
      EXPECT_EQ(span.phases[1].name, "predict") << k;
    }
  }
  tracer.clear();
}


TEST(Evaluate, ProtocolProducesConsistentOutcomes) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(6);
  CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = collect_training_data(matrix, collect);
  const auto data = core::Trainer::dataset_from_log(log);
  std::vector<MethodUnderTest> models;
  models.emplace_back("linear", core::Trainer::train("linear", data));

  EvalOptions eval;
  eval.num_scenarios = 4;
  eval.truth_repeats = 1;
  eval.heuristics = {"least_cpu", "least_rtt"};
  const auto result = evaluate_methods(models, matrix, eval);

  ASSERT_EQ(result.outcomes.size(), 4u);
  for (const auto& outcome : result.outcomes) {
    ASSERT_EQ(outcome.node_durations.size(), 6u);
    for (const double d : outcome.node_durations) EXPECT_GT(d, 0.0);
    // fastest_node really is the argmin.
    for (const double d : outcome.node_durations) {
      EXPECT_LE(outcome.node_durations[outcome.fastest_node], d);
    }
    // Every method produced a complete ranking (permutation of 0..5).
    for (const auto& [method, ranking] : outcome.rankings) {
      std::set<std::size_t> unique(ranking.begin(), ranking.end());
      EXPECT_EQ(unique.size(), 6u) << method;
    }
  }
  // Accuracy rows exist for baselines, heuristics, and the model.
  EXPECT_EQ(result.accuracy.size(), 5u);
  for (const auto& acc : result.accuracy) {
    EXPECT_GE(acc.top1, 0.0);
    EXPECT_LE(acc.top1, 1.0);
    EXPECT_GE(acc.top2, acc.top1);  // Top-2 can only help
    EXPECT_GE(acc.mean_regret, 0.0);
  }
  EXPECT_THROW(result.by_method("nope"), Error);
}

// Also the precondition of scoring many studies in one call: adding methods
// (heuristics, a risk-averse copy of a model, a kRich model) must leave
// every shared method's rankings, truth and scores exactly as they were.
TEST(Evaluate, DeterministicAcrossRuns) {
  auto matrix = paper_scenario_matrix();
  matrix.resize(4);
  CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = collect_training_data(matrix, collect);
  const auto data = core::Trainer::dataset_from_log(log);
  auto train = [](const std::string& name, const ml::Dataset& set) {
    return std::shared_ptr<const ml::Regressor>(
        core::Trainer::train(name, set));
  };
  auto make_models = [&] {
    return std::vector<MethodUnderTest>{
        {"linear", train("linear", data)},
        {"random_forest", train("random_forest", data)}};
  };
  EvalOptions eval;
  eval.num_scenarios = 3;
  eval.truth_repeats = 1;
  const auto a = evaluate_methods(make_models(), matrix, eval);

  auto more = make_models();
  more.emplace_back("rf_k1.0", more[1].model, core::FeatureSet::kTable1, 1.0);
  more.emplace_back(
      "linear_rich",
      train("linear",
            core::Trainer::dataset_from_log(log, core::FeatureSet::kRich)),
      core::FeatureSet::kRich);
  EvalOptions more_eval = eval;
  more_eval.heuristics = {"least_cpu", "least_rtt"};
  const auto b = evaluate_methods(more, matrix, more_eval);

  ASSERT_EQ(b.accuracy.size(), a.accuracy.size() + 4);
  for (const auto& acc : a.accuracy) {
    const auto& other = b.by_method(acc.method);
    EXPECT_EQ(acc.top1, other.top1) << acc.method;
    EXPECT_EQ(acc.top2, other.top2) << acc.method;
    EXPECT_EQ(acc.mean_regret, other.mean_regret) << acc.method;
  }
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    const auto& oa = a.outcomes[s];
    const auto& ob = b.outcomes[s];
    EXPECT_EQ(oa.node_durations, ob.node_durations) << "scenario " << s;
    EXPECT_EQ(oa.fastest_node, ob.fastest_node) << "scenario " << s;
    EXPECT_EQ(ob.rankings.size(), oa.rankings.size() + 4);
    for (const auto& [method, ranking] : oa.rankings) {
      ASSERT_EQ(ob.rankings.count(method), 1u) << method;
      EXPECT_EQ(ranking, ob.rankings.at(method))
          << method << ", scenario " << s;
    }
  }
}

// --------------------------------------------------------------- figures ----

TEST(Figures, SortTelemetryShapes) {
  spark::JobConfig sort_config;
  sort_config.input_records = 300000;
  sort_config.executors = 3;
  FigureOptions options;
  options.seed = 118;
  options.runs = 2;
  const auto figures = figure_sort_telemetry(sort_config, options);
  EXPECT_EQ(figures.runs, 2);
  EXPECT_EQ(figures.run_durations.size(), 2u);
  ASSERT_EQ(figures.avg_latency_ms.nodes.size(), 6u);
  ASSERT_EQ(figures.avg_tx_mbps.values.size(), 6u);
  for (const double v : figures.avg_latency_ms.values) EXPECT_GT(v, 0.0);
  // FIU nodes (index 2, 3) should sit above the UCSD/SRI average: they are
  // cross-country from two thirds of their peers.
  const double fiu =
      (figures.avg_latency_ms.values[2] + figures.avg_latency_ms.values[3]) /
      2.0;
  const double rest = (figures.avg_latency_ms.values[0] +
                       figures.avg_latency_ms.values[1] +
                       figures.avg_latency_ms.values[4] +
                       figures.avg_latency_ms.values[5]) /
                      4.0;
  EXPECT_GT(fiu, rest);
}

TEST(Figures, TopologyMatrixSymmetricPositive) {
  const auto matrix = figure_topology(EnvOptions{});
  ASSERT_EQ(matrix.sites.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(matrix.rtt_ms[i][i], 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_GT(matrix.rtt_ms[i][j], 1.0);
      EXPECT_NEAR(matrix.rtt_ms[i][j], matrix.rtt_ms[j][i], 1e-6);
    }
  }
}

}  // namespace
}  // namespace lts::exp
