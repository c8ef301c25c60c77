// Differential tests for the batched serving path.
//
// The flattened predict_batch kernel and LtsScheduler's batched serving
// path are pure optimizations: every test here pins them against reference
// implementations (per-model oracles that share no code with
// predict_batch, the scalar per-node pipeline reference_decision, N
// sequential schedule() calls) and demands bit-identical results —
// EXPECT_EQ on doubles, not EXPECT_NEAR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/scheduler.hpp"
#include "exp/envgen.hpp"
#include "fakes.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "ml/model.hpp"
#include "ml/tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"

// ------------------------------------------------ predict_batch kernels ----

namespace lts::ml {
namespace {

/// Synthetic regression corpus (linear + interaction + noise), same shape
/// the ml_test suite trains on.
Dataset make_synthetic(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.set_feature_names({"x0", "x1", "x2", "x3"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    const double x2 = rng.uniform(0, 2);
    const double x3 = rng.uniform(-1, 1);
    // Positive offset keeps the target log-transformable (duration-like).
    const double y = 10.0 + 3.0 * x0 - 2.0 * x1 + 0.5 * x2 + 2.0 * x0 * x1 +
                     0.05 * rng.normal();
    data.add_row(std::vector<double>{x0, x1, x2, x3}, y);
  }
  return data;
}

/// Row-major query block: half the rows are copied verbatim from the
/// training corpus (stressing the x <= threshold boundary, where any
/// comparison sloppiness in the flat kernel would flip a branch), half are
/// fresh uniform draws slightly outside the training range.
std::vector<double> make_query_block(const Dataset& data, std::size_t rows,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> block;
  const std::size_t cols = data.num_features();
  block.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    if (r % 2 == 0) {
      const auto row = data.row(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1)));
      block.insert(block.end(), row.begin(), row.end());
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        block.push_back(rng.uniform(-1.5, 2.5));
      }
    }
  }
  return block;
}

using test::walk;

/// Predictions for each row of `x` from an oracle that shares no code with
/// predict_batch: a linear model's intercept plus coefficients times
/// features in feature order; a tree's walk above; a forest's member trees'
/// walks (tree(i)), summed in tree order and divided by their count; a
/// GBT's base_score plus walks of the trees in its serialized form; a
/// log-target model's exp of its inner model's oracle.
std::vector<double> reference_predictions(const Regressor& model,
                                          std::span<const double> x,
                                          std::size_t rows,
                                          std::size_t cols) {
  std::vector<double> out(rows);
  const auto row = [&](std::size_t r) { return x.subspan(r * cols, cols); };
  if (const auto* log = dynamic_cast<const LogTargetRegressor*>(&model)) {
    out = reference_predictions(log->inner(), x, rows, cols);
    for (double& v : out) v = std::exp(v);
  } else if (const auto* lin = dynamic_cast<const LinearRegression*>(&model)) {
    for (std::size_t r = 0; r < rows; ++r) {
      out[r] = lin->intercept();
      for (std::size_t j = 0; j < cols; ++j) {
        out[r] += lin->coefficients()[j] * row(r)[j];
      }
    }
  } else if (const auto* tree =
                 dynamic_cast<const DecisionTreeRegressor*>(&model)) {
    for (std::size_t r = 0; r < rows; ++r) out[r] = walk(tree->nodes(), row(r));
  } else if (const auto* forest =
                 dynamic_cast<const RandomForestRegressor*>(&model)) {
    for (std::size_t r = 0; r < rows; ++r) {
      double total = 0.0;
      for (std::size_t t = 0; t < forest->num_trees(); ++t) {
        total += forest->tree(t).predict_row(row(r));
      }
      out[r] = total / static_cast<double>(forest->num_trees());
    }
  } else {
    const Json state =
        dynamic_cast<const GradientBoostedTrees&>(model).to_json();
    std::vector<std::vector<TreeNode>> trees;
    for (const auto& tree_json : state.at("trees").as_array()) {
      std::vector<TreeNode>& nodes = trees.emplace_back();
      for (const auto& f : tree_json.as_array()) {
        const auto& v = f.as_array();
        nodes.push_back(TreeNode{.threshold = v[1].as_double(),
                                 .value = v[4].as_double(),
                                 .feature = v[0].as_int(),
                                 .left = v[2].as_int(),
                                 .right = v[3].as_int()});
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      out[r] = state.at("base_score").as_double();
      for (const auto& nodes : trees) out[r] += walk(nodes, row(r));
    }
  }
  return out;
}

/// The differential itself: predict_batch over the block, and predict_row
/// on each row (a batch of one), must equal the oracle to the last bit.
void expect_batch_matches_rows(const Regressor& model,
                               const std::vector<double>& block,
                               std::size_t rows, std::size_t cols,
                               const std::string& context) {
  std::vector<double> batched(rows, -1.0);
  model.predict_batch(block, rows, cols, batched);
  const auto reference = reference_predictions(model, block, rows, cols);
  const std::span<const double> x(block);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(batched[r], reference[r]) << context << " row " << r;
    EXPECT_EQ(model.predict_row(x.subspan(r * cols, cols)), reference[r])
        << context << " single row " << r;
  }
}

TEST(PredictBatch, MatchesPredictRowForEveryFamily) {
  // Block sizes straddle the kernel's internal tile (64): a lone row, a
  // partial tile, exact, one-over, and two-tiles-plus-change.
  const std::size_t sizes[] = {1, 7, 64, 65, 130};
  for (const auto& family : registered_regressors()) {
    for (const bool log_target : {false, true}) {
      Json params = Json::object();
      params["log_target"] = log_target;
      const auto model = create_regressor(family, params);
      const auto data = make_synthetic(400, 97 + (log_target ? 1 : 0));
      model->fit(data);
      for (const std::size_t rows : sizes) {
        const auto block = make_query_block(data, rows, 1234 + rows);
        expect_batch_matches_rows(
            *model, block, rows, data.num_features(),
            family + (log_target ? "+log" : "") + " fit");
      }
    }
  }
}

TEST(PredictBatch, MatchesPredictRowAcrossRandomizedEnsembles) {
  // Many small randomized forests/GBTs: different shapes, depths, and
  // split layouts all flatten to the same predictions.
  Rng meta(5150);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(trial);
    const auto data = make_synthetic(
        120 + 60 * static_cast<std::size_t>(trial % 3), seed);
    for (const auto& family : {"decision_tree", "random_forest", "xgboost"}) {
      const auto model = create_regressor(family);
      model->fit(data);
      const std::size_t rows =
          static_cast<std::size_t>(meta.uniform_int(1, 150));
      const auto block = make_query_block(data, rows, seed * 31);
      expect_batch_matches_rows(*model, block, rows, data.num_features(),
                                std::string(family) + " trial " +
                                    std::to_string(trial));
    }
  }
}

TEST(PredictBatch, MatchesPredictRowAfterASecondFit) {
  // A second fit on a new window (how a model retrains) rebuilds the flat
  // arrays in place; the differential must survive the swap.
  for (const auto& family : {"random_forest", "xgboost"}) {
    const auto model = create_regressor(family);
    const auto first = make_synthetic(300, 41);
    model->fit(first);
    const auto window = make_synthetic(300, 42);
    model->fit(window);
    const auto block = make_query_block(window, 130, 43);
    expect_batch_matches_rows(*model, block, 130, window.num_features(),
                              std::string(family) + " second fit");
  }
}

TEST(PredictBatch, MatchesPredictRowAfterEnvelopeRoundTrip) {
  // A model revived from its serialized envelope must rebuild its flat
  // arrays on from_json and agree with both the oracle and the original
  // model's batch output.
  for (const auto& family : {"decision_tree", "random_forest", "xgboost"}) {
    const auto data = make_synthetic(300, 55);
    const auto model = create_regressor(family);
    model->fit(data);
    const auto revived = model_from_json(model_to_json(*model));
    const std::size_t rows = 96;
    const auto block = make_query_block(data, rows, 56);
    expect_batch_matches_rows(*revived, block, rows, data.num_features(),
                              std::string(family) + " round-trip");
    std::vector<double> original(rows), restored(rows);
    model->predict_batch(block, rows, data.num_features(), original);
    revived->predict_batch(block, rows, data.num_features(), restored);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(original[r], restored[r]) << family << " row " << r;
    }
  }
}

TEST(PredictBatch, MatrixPredictAgreesWithBatch) {
  // predict(Matrix) routes through predict_batch; pin the equivalence so
  // existing callers inherited the kernel without a behavior change.
  const auto data = make_synthetic(250, 77);
  const auto model = create_regressor("random_forest");
  model->fit(data);
  const auto via_matrix = model->predict(data.x());
  std::vector<double> via_batch(data.size());
  model->predict_batch(data.x().data(), data.size(), data.num_features(),
                       via_batch);
  ASSERT_EQ(via_matrix.size(), via_batch.size());
  for (std::size_t r = 0; r < via_batch.size(); ++r) {
    EXPECT_EQ(via_matrix[r], via_batch[r]);
  }
}

}  // namespace
}  // namespace lts::ml

// ------------------------------------------------------- schedule_many ----

namespace lts::core {
namespace {

/// Model trained so predicted duration tracks cpu_load: rankings are
/// non-trivial (not constant) and deterministic.
std::shared_ptr<const ml::Regressor> load_tracking_model(std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.set_feature_names(FeatureConstructor::feature_names());
  telemetry::NodeTelemetry t;
  t.node = "x";
  t.rtt_mean = 0.03;
  t.tx_rate = 50e6;
  t.rx_rate = 20e6;
  t.mem_available = 6.0 * 1024 * 1024 * 1024;
  spark::JobConfig config;
  for (int i = 0; i < 400; ++i) {
    t.cpu_load = rng.uniform(0.0, 6.0);
    t.tx_rate = rng.uniform(1e6, 200e6);
    config.app = spark::kAllAppTypes[static_cast<std::size_t>(i) %
                                     spark::kNumAppTypes];
    config.input_records = 100000 * (1 + i % 8);
    const auto x = FeatureConstructor::build(t, config);
    data.add_row(x, 2.0 + t.cpu_load + t.tx_rate / 100e6 +
                        config.input_records / 4e5);
  }
  auto model = ml::create_regressor("random_forest");
  model->fit(data);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

std::vector<spark::JobConfig> make_queue(std::size_t n) {
  std::vector<spark::JobConfig> configs;
  for (std::size_t q = 0; q < n; ++q) {
    spark::JobConfig config;
    config.app = spark::kAllAppTypes[q % spark::kNumAppTypes];
    config.input_records = 200000 * (1 + static_cast<long long>(q % 5));
    config.executors = 2 + static_cast<int>(q % 3);
    config.validate();
    configs.push_back(config);
  }
  return configs;
}

using test::ConstantModel;

/// The scalar serving pipeline, kept as the oracle for the batched path:
/// one feature vector and one predict_row (or predict_with_uncertainty)
/// call per node of the scheduler's view, then stale demotion and ranking.
/// Without metrics and spans; the fallback ranking is LtsScheduler's
/// spreading heuristic written out.
Decision reference_decision(const telemetry::ClusterSnapshot& snapshot,
                            const spark::JobConfig& config,
                            const std::shared_ptr<const ml::Regressor>& model,
                            FeatureSet features, double risk_aversion,
                            bool degraded) {
  const bool model_usable = model != nullptr && model->is_fitted();
  if (degraded) {
    std::size_t fresh = 0;
    for (const auto& node : snapshot.nodes) {
      if (!node.stale) ++fresh;
    }
    const bool snapshot_trusted =
        !snapshot.nodes.empty() &&
        static_cast<double>(fresh) >=
            kMinFreshFraction * static_cast<double>(snapshot.nodes.size());
    if (!model_usable || !snapshot_trusted) {
      double max_mem = 0.0;
      for (const auto& node : snapshot.nodes) {
        max_mem = std::max(max_mem, node.mem_available);
      }
      std::vector<NodePrediction> predictions;
      for (const auto& node : snapshot.nodes) {
        const double mem_frac =
            max_mem > 0.0 ? node.mem_available / max_mem : 0.0;
        predictions.push_back(
            NodePrediction{node.node, node.cpu_load + (1.0 - mem_frac)});
      }
      Decision decision = DecisionModule::rank(std::move(predictions));
      decision.used_fallback = true;
      return decision;
    }
  }

  Decision decision;
  std::vector<std::vector<double>> rows;
  rows.reserve(snapshot.nodes.size());
  for (const auto& node : snapshot.nodes) {
    rows.push_back(FeatureConstructor::build(node, config, features));
  }

  std::vector<NodePrediction> predictions;
  predictions.reserve(snapshot.nodes.size());
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const auto& node = snapshot.nodes[i];
    double score;
    if (risk_aversion > 0.0) {
      const auto p = model->predict_with_uncertainty(rows[i]);
      score = p.mean + risk_aversion * p.stddev;
    } else {
      score = model->predict_row(rows[i]);
    }
    const bool demoted = degraded && node.stale;
    if (demoted) ++decision.stale_demoted;
    predictions.push_back(NodePrediction{node.node, score, demoted});
  }

  const int stale_demoted = decision.stale_demoted;
  decision = DecisionModule::rank(std::move(predictions));
  decision.stale_demoted = stale_demoted;
  return decision;
}

void expect_decisions_equal(const Decision& a, const Decision& b,
                            const std::string& context) {
  EXPECT_EQ(a.used_fallback, b.used_fallback) << context;
  EXPECT_EQ(a.stale_demoted, b.stale_demoted) << context;
  ASSERT_EQ(a.ranking.size(), b.ranking.size()) << context;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].node, b.ranking[i].node) << context << " #" << i;
    EXPECT_EQ(a.ranking[i].stale, b.ranking[i].stale) << context << " #" << i;
    EXPECT_EQ(a.ranking[i].predicted_duration,
              b.ranking[i].predicted_duration)
        << context << " #" << i;
  }
}

/// Each batched decision equals reference_decision for its config on the
/// scheduler's own view of its snapshot at `now`.
void expect_reference_decisions(const LtsScheduler& scheduler,
                                double risk_aversion,
                                std::span<const spark::JobConfig> configs,
                                const std::vector<Decision>& decisions,
                                SimTime now, const std::string& context) {
  const auto snapshot = scheduler.view(scheduler.fetcher().fetch(now));
  ASSERT_EQ(decisions.size(), configs.size()) << context;
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(
        decisions[q],
        reference_decision(snapshot, configs[q], scheduler.current_model(),
                           scheduler.feature_set(), risk_aversion,
                           scheduler.degraded()),
        context + " vs reference, slot " + std::to_string(q));
  }
}

TEST(ScheduleMany, EqualsSequentialScheduleCalls) {
  exp::SimEnv env(23);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto configs = make_queue(8);

  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(batched[q], sequential[q],
                           "queue slot " + std::to_string(q));
  }
  expect_reference_decisions(scheduler, 0.0, configs, batched, now, "queue");
}

TEST(ScheduleMany, ReplicaQueueEqualsSequentialScheduleCalls) {
  // Queues full of identical pods (deployment replicas) drive the batch
  // path's exact-row dedup: each distinct (pod, node) feature row is
  // scored once and fanned out. The fan-out must be invisible — every
  // replica's decision identical to its own sequential schedule() call.
  exp::SimEnv env(29);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto templates = make_queue(3);
  std::vector<spark::JobConfig> configs;
  for (std::size_t q = 0; q < 12; ++q) {
    configs.push_back(templates[q % templates.size()]);  // interleaved
  }

  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(batched[q], sequential[q],
                           "replica queue slot " + std::to_string(q));
  }
  expect_reference_decisions(scheduler, 0.0, configs, batched, now,
                             "replica queue");
}

TEST(ScheduleMany, EmitsSameTraceSpansAsSequentialCalls) {
  exp::SimEnv env(24);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto configs = make_queue(5);

  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  for (const auto& config : configs) scheduler.schedule(config, now);
  std::vector<obs::SpanRecord> sequential;
  for (std::size_t i = 0; i < tracer.num_spans(); ++i) {
    sequential.push_back(tracer.span(i));
  }
  tracer.clear();
  scheduler.schedule_many(configs, now);
  ASSERT_EQ(tracer.num_spans(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto& batch_span = tracer.span(i);
    const auto& seq_span = sequential[i];
    EXPECT_EQ(batch_span.name, seq_span.name) << i;
    EXPECT_EQ(batch_span.sim_begin, seq_span.sim_begin) << i;
    EXPECT_EQ(batch_span.sim_end, seq_span.sim_end) << i;
    ASSERT_EQ(batch_span.phases.size(), seq_span.phases.size()) << i;
    for (std::size_t p = 0; p < seq_span.phases.size(); ++p) {
      EXPECT_EQ(batch_span.phases[p].name, seq_span.phases[p].name)
          << i << "/" << p;
      EXPECT_EQ(batch_span.phases[p].sim_time, seq_span.phases[p].sim_time)
          << i << "/" << p;
    }
  }
  tracer.set_enabled(false);
  tracer.clear();
}

TEST(ScheduleMany, CountsSameMetricsAsSequentialCalls) {
  exp::SimEnv env(25);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto configs = make_queue(6);
  auto& registry = obs::MetricsRegistry::global();
  auto& decisions = obs::counter("lts_scheduler_decisions_total");
  registry.set_enabled(true);
  const double before_seq = decisions.value();
  for (const auto& config : configs) scheduler.schedule(config, now);
  const double seq_delta = decisions.value() - before_seq;
  const double before_batch = decisions.value();
  scheduler.schedule_many(configs, now);
  const double batch_delta = decisions.value() - before_batch;
  registry.set_enabled(false);
  EXPECT_EQ(seq_delta, static_cast<double>(configs.size()));
  EXPECT_EQ(batch_delta, seq_delta);
}

TEST(ScheduleMany, FallbackQueueEqualsSequentialFallbacks) {
  // No model at all: with fallback enabled every decision is the spreading
  // heuristic, in batch exactly as in sequence.
  exp::SimEnv env(26);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(TelemetryFetcher(env.tsdb(), env.node_names()),
                         nullptr, FeatureSet::kTable1, 0.0,
                         /*degraded=*/true);
  const auto configs = make_queue(4);
  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    EXPECT_TRUE(batched[q].used_fallback);
    expect_decisions_equal(batched[q], sequential[q],
                           "fallback slot " + std::to_string(q));
  }
  expect_reference_decisions(scheduler, 0.0, configs, batched, now,
                             "fallback queue");
}

TEST(ScheduleMany, RiskAversionPathEqualsSequential) {
  // risk_aversion > 0 takes the per-row uncertainty path inside
  // schedule_batch; it must still match sequential calls exactly.
  exp::SimEnv env(27);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1, /*risk_aversion=*/0.7);
  const auto configs = make_queue(4);
  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(batched[q], sequential[q],
                           "risk slot " + std::to_string(q));
  }
  expect_reference_decisions(scheduler, 0.7, configs, batched, now,
                             "risk queue");
}

// ---------------------------------------------------------------- fetch ----

TEST(TelemetryFetcher, FetchReflectsSameInstantAppend) {
  // Every fetch sweeps the TSDB: a sample appended at the fetch instant
  // itself reaches the next fetch at that instant.
  telemetry::Tsdb tsdb;
  const telemetry::Labels labels{{"node", "a"}};
  const SimTime now = 10.0;
  tsdb.append(telemetry::kCpuLoadMetric, labels, now, 1.0);
  const TelemetryFetcher fetcher(tsdb, {"a", "b"});
  const auto before = fetcher.fetch(now);
  tsdb.append(telemetry::kCpuLoadMetric, labels, now, 3.0);
  const auto after = fetcher.fetch(now);
  EXPECT_EQ(before.by_name("a").cpu_load, 1.0);
  EXPECT_EQ(after.by_name("a").cpu_load, 3.0);
  EXPECT_EQ(after.by_name("b").cpu_load, before.by_name("b").cpu_load);
}

TEST(ScheduleMany, DegradedQueueDemotesStaleNodes) {
  // A degraded queue ranks from the scheduler's view of one fetch: the
  // silenced node is marked stale there, and every decision demotes it
  // below the fresh nodes exactly as the scalar reference does.
  exp::SimEnv env(38);
  env.warmup();
  const std::string victim = env.node_names()[2];
  env.fault_injector().silence_exporter(victim);
  const SimTime start = env.engine().now();
  env.engine().run_until(start + 30.0);  // > kMaxStaleness of 10s
  const SimTime now = env.engine().now();

  const TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  LtsScheduler scheduler(fetcher, load_tracking_model(6), FeatureSet::kTable1,
                         0.0, /*degraded=*/true);
  ASSERT_TRUE(scheduler.view(fetcher.fetch(now)).by_name(victim).stale)
      << "silenced exporter never went stale";

  const auto configs = make_queue(3);
  const auto decisions = scheduler.schedule_many(configs, now);
  ASSERT_EQ(decisions.size(), configs.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    EXPECT_GT(decisions[q].stale_demoted, 0) << q;
    EXPECT_EQ(decisions[q].ranking.back().node, victim) << q;
    EXPECT_TRUE(decisions[q].ranking.back().stale) << q;
  }
  expect_reference_decisions(scheduler, 0.0, configs, decisions, now,
                             "stale queue");

  // With a tie-everything model demotion alone decides the ranking: the
  // batch-of-one schedule() must still equal the scalar reference.
  LtsScheduler constant(fetcher, std::make_shared<ConstantModel>(),
                        FeatureSet::kTable1, 0.0, /*degraded=*/true);
  const auto tied = constant.schedule(configs[0], now);
  EXPECT_GT(tied.stale_demoted, 0);
  expect_reference_decisions(constant, 0.0, {&configs[0], 1}, {tied}, now,
                             "constant model, stale node");
}

}  // namespace
}  // namespace lts::core
