#include "core/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace lts::core {
namespace {

struct SchedulerMetrics {
  obs::Counter& decisions = obs::counter(
      "lts_scheduler_decisions_total", {},
      "Placement decisions produced by LtsScheduler");
  obs::Counter& fallbacks = obs::counter(
      "lts_scheduler_fallback_total", {},
      "Decisions that used the spreading fallback ranking (model or "
      "snapshot unusable)");
  obs::Counter& stale_demoted = obs::counter(
      "lts_scheduler_stale_demoted_total", {},
      "Stale-telemetry nodes demoted to the bottom of a model ranking");
  static SchedulerMetrics& get() {
    static SchedulerMetrics m;
    return m;
  }
};

/// Marks the rows whose exporter has not reported within kMaxStaleness of
/// the snapshot time, or never reported.
void mark_stale(telemetry::ClusterSnapshot& snapshot) {
  for (auto& n : snapshot.nodes) {
    n.stale = !n.has_data || (snapshot.at - n.last_seen) > kMaxStaleness;
  }
}

/// Replaces every stale row's telemetry with the median of the fresh rows,
/// keeping its name and freshness metadata. A no-op when no row is stale or
/// none is fresh (nothing to impute from).
void impute_stale(telemetry::ClusterSnapshot& snapshot) {
  using telemetry::NodeTelemetry;
  std::vector<const NodeTelemetry*> fresh;
  for (const auto& n : snapshot.nodes) {
    if (!n.stale) fresh.push_back(&n);
  }
  if (fresh.empty() || fresh.size() == snapshot.nodes.size()) return;

  auto median_of = [&](auto field) {
    std::vector<double> values;
    values.reserve(fresh.size());
    for (const auto* n : fresh) values.push_back(field(*n));
    return percentile(values, 50.0);
  };
  const NodeTelemetry typical{
      /*node=*/"",
      median_of([](const NodeTelemetry& n) { return n.rtt_mean; }),
      median_of([](const NodeTelemetry& n) { return n.rtt_max; }),
      median_of([](const NodeTelemetry& n) { return n.rtt_std; }),
      median_of([](const NodeTelemetry& n) { return n.tx_rate; }),
      median_of([](const NodeTelemetry& n) { return n.rx_rate; }),
      median_of([](const NodeTelemetry& n) { return n.cpu_load; }),
      median_of([](const NodeTelemetry& n) { return n.mem_available; }),
      median_of([](const NodeTelemetry& n) { return n.uplink_util; }),
      median_of([](const NodeTelemetry& n) { return n.downlink_util; }),
      median_of([](const NodeTelemetry& n) { return n.queue_delay; }),
      median_of([](const NodeTelemetry& n) { return n.active_flows; })};

  for (auto& n : snapshot.nodes) {
    if (!n.stale) continue;
    NodeTelemetry imputed = typical;
    imputed.node = std::move(n.node);
    imputed.last_seen = n.last_seen;
    imputed.has_data = n.has_data;
    imputed.stale = true;
    n = std::move(imputed);
  }
}

}  // namespace

LtsScheduler::LtsScheduler(TelemetryFetcher fetcher,
                           std::shared_ptr<const ml::Regressor> model,
                           FeatureSet features, double risk_aversion,
                           bool degraded)
    : fetcher_(std::move(fetcher)),
      model_(std::move(model)),
      features_(features),
      risk_aversion_(risk_aversion),
      degraded_(degraded) {
  LTS_REQUIRE(risk_aversion_ >= 0.0, "LtsScheduler: risk_aversion >= 0");
  if (!degraded_) {
    LTS_REQUIRE(model_ != nullptr, "LtsScheduler: null model");
    LTS_REQUIRE(model_->is_fitted(), "LtsScheduler: model must be fitted");
  }
}

void LtsScheduler::set_model(std::shared_ptr<const ml::Regressor> model) {
  LTS_REQUIRE(model != nullptr, "LtsScheduler::set_model: null model");
  LTS_REQUIRE(model->is_fitted(),
              "LtsScheduler::set_model: model must be fitted");
  const std::lock_guard<std::mutex> lock(model_mutex_);
  model_ = std::move(model);
}

std::shared_ptr<const ml::Regressor> LtsScheduler::current_model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

const ml::Regressor& LtsScheduler::model() const {
  // Reference accessor for synchronous inspection (CLI, tests); callers
  // that might race a hot-swap should hold current_model() instead.
  const std::lock_guard<std::mutex> lock(model_mutex_);
  LTS_REQUIRE(model_ != nullptr, "LtsScheduler: no model");
  return *model_;
}

bool LtsScheduler::has_usable_model() const {
  const auto model = current_model();
  return model != nullptr && model->is_fitted();
}

Decision LtsScheduler::schedule(const spark::JobConfig& config,
                                SimTime now) const {
  return std::move(schedule_many({&config, 1}, now).front());
}

Decision LtsScheduler::schedule_from_snapshot(
    const telemetry::ClusterSnapshot& snapshot,
    const spark::JobConfig& config) const {
  return std::move(
      schedule_many_from_snapshot(snapshot, {&config, 1}).front());
}

std::vector<Decision> LtsScheduler::schedule_many(
    std::span<const spark::JobConfig> configs, SimTime now) const {
  return schedule_batch(nullptr, configs, now);
}

std::vector<Decision> LtsScheduler::schedule_many_from_snapshot(
    const telemetry::ClusterSnapshot& snapshot,
    std::span<const spark::JobConfig> configs) const {
  return schedule_batch(&snapshot, configs, snapshot.at);
}

telemetry::ClusterSnapshot LtsScheduler::view(
    const telemetry::ClusterSnapshot& snapshot) const {
  telemetry::ClusterSnapshot out = snapshot;
  if (degraded_) {
    mark_stale(out);
    impute_stale(out);
  }
  return out;
}

std::vector<Decision> LtsScheduler::schedule_batch(
    const telemetry::ClusterSnapshot* given,
    std::span<const spark::JobConfig> configs, SimTime now) const {
  obs::Tracer& tracer = obs::Tracer::global();
  auto& metrics = SchedulerMetrics::get();
  // The tracing rule (scheduler.hpp): the first decision's span is open
  // across the shared fetch, feature build and model call.
  const bool own_spans = given == nullptr;
  std::optional<obs::ScopedSpan> span;
  if (own_spans && !configs.empty()) {
    span.emplace(tracer, "schedule", now, /*reuse_open=*/true);
  }
  std::optional<telemetry::ClusterSnapshot> fetched;
  if (own_spans) fetched = fetcher_.fetch(now);
  std::vector<Decision> decisions;
  decisions.reserve(configs.size());
  if (configs.empty()) return decisions;
  const telemetry::ClusterSnapshot& raw = own_spans ? *fetched : *given;
  std::optional<telemetry::ClusterSnapshot> viewed;
  if (degraded_) viewed = view(raw);
  const telemetry::ClusterSnapshot& snapshot = viewed ? *viewed : raw;
  if (span) span->phase("fetch", now);

  // One pointer snapshot for the whole queue: even if a hot-swap lands
  // mid-queue, every candidate of every decision is scored by one model.
  const std::shared_ptr<const ml::Regressor> model = current_model();
  const bool model_usable = model != nullptr && model->is_fitted();
  bool use_fallback = false;
  if (degraded_) {
    std::size_t fresh = 0;
    for (const auto& node : snapshot.nodes) {
      if (!node.stale) ++fresh;
    }
    const bool snapshot_trusted =
        !snapshot.nodes.empty() &&
        static_cast<double>(fresh) >=
            kMinFreshFraction * static_cast<double>(snapshot.nodes.size());
    use_fallback = !model_usable || !snapshot_trusted;
  }

  // One row-major feature block over every (pod, node) candidate, one
  // batched predict. Rows are grouped by config, nodes in snapshot order
  // within each group.
  //
  // Queues are full of replicas: a deployment submits N pods with one spec,
  // and the workload model draws from a handful of app templates, so many
  // candidate rows are bit-for-bit equal. Each distinct row is scored once
  // and the result fanned out. Dedup keys on exact byte equality of the
  // feature vector — never a tolerance — so a prediction lands on exactly
  // the rows that would have produced it anyway and no decision can differ
  // from the undeduplicated block.
  const std::size_t n_nodes = snapshot.nodes.size();
  const std::size_t cols = FeatureConstructor::num_features(features_);
  std::vector<double> scores;
  if (!use_fallback) {
    const std::size_t n_rows = configs.size() * n_nodes;
    std::vector<double> block;          // distinct rows only
    block.reserve(n_rows * cols);
    std::vector<std::size_t> row_of;    // candidate row -> distinct row
    row_of.reserve(n_rows);
    // Open-addressed probe table keyed by a 64-bit mix of the raw double
    // bits; hash matches still compare the full row, so equality is exact.
    std::size_t cap = 16;
    while (cap < n_rows * 2) cap <<= 1;
    std::vector<std::int32_t> slot(cap, -1);  // distinct-row index
    std::vector<std::uint64_t> slot_hash(cap);
    for (const auto& config : configs) {
      for (const auto& node : snapshot.nodes) {
        const auto row = FeatureConstructor::build(node, config, features_);
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (const double v : row) {
          h ^= std::bit_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL +
               (h << 6) + (h >> 2);
        }
        std::size_t s = h & (cap - 1);
        std::size_t found = block.size() / cols;
        while (slot[s] >= 0) {
          const auto u = static_cast<std::size_t>(slot[s]);
          if (slot_hash[s] == h &&
              std::equal(row.begin(), row.end(),
                         block.begin() +
                             static_cast<std::ptrdiff_t>(u * cols))) {
            found = u;
            break;
          }
          s = (s + 1) & (cap - 1);
        }
        if (found == block.size() / cols) {
          slot[s] = static_cast<std::int32_t>(found);
          slot_hash[s] = h;
          block.insert(block.end(), row.begin(), row.end());
        }
        row_of.push_back(found);
      }
    }
    tracer.phase("features", snapshot.at);
    const std::size_t n_unique = block.size() / cols;
    std::vector<double> unique_scores(n_unique);
    if (risk_aversion_ > 0.0) {
      // Uncertainty needs the per-tree spread: the forest reads each tree's
      // leaf for the row from its flat kernel, one distinct row at a time
      // (still one snapshot fetch).
      for (std::size_t u = 0; u < n_unique; ++u) {
        const auto p = model->predict_with_uncertainty(
            std::span<const double>(block).subspan(u * cols, cols));
        unique_scores[u] = p.mean + risk_aversion_ * p.stddev;
      }
    } else {
      model->predict_batch(block, n_unique, cols, unique_scores);
    }
    tracer.phase("predict", snapshot.at);
    scores.resize(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      scores[r] = unique_scores[row_of[r]];
    }
  }

  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (c > 0) {
      if (own_spans) {
        span.emplace(tracer, "schedule", now, /*reuse_open=*/true);
        span->phase("fetch", now);
      }
      if (!use_fallback) {
        tracer.phase("features", snapshot.at);
        tracer.phase("predict", snapshot.at);
      }
    }
    metrics.decisions.inc();
    if (use_fallback) {
      metrics.fallbacks.inc();
      decisions.push_back(fallback_rank(snapshot));
    } else {
      std::vector<NodePrediction> predictions;
      predictions.reserve(n_nodes);
      int stale_demoted = 0;
      for (std::size_t i = 0; i < n_nodes; ++i) {
        const auto& node = snapshot.nodes[i];
        const bool demoted = degraded_ && node.stale;
        if (demoted) ++stale_demoted;
        predictions.push_back(
            NodePrediction{node.node, scores[c * n_nodes + i], demoted});
      }
      Decision decision = DecisionModule::rank(std::move(predictions));
      decision.stale_demoted = stale_demoted;
      if (stale_demoted > 0) metrics.stale_demoted.inc(stale_demoted);
      decisions.push_back(std::move(decision));
    }
    tracer.phase("rank", snapshot.at);
    span.reset();
  }
  return decisions;
}

Decision LtsScheduler::fallback_rank(
    const telemetry::ClusterSnapshot& snapshot) const {
  // Spreading heuristic in the spirit of kube's least-allocated scoring,
  // but over observed telemetry (the fallback still runs outside the
  // control plane): prefer low CPU load and a high share of the cluster's
  // best-case available memory. Deterministic — DecisionModule breaks ties
  // by node name.
  double max_mem = 0.0;
  for (const auto& node : snapshot.nodes) {
    max_mem = std::max(max_mem, node.mem_available);
  }
  std::vector<NodePrediction> predictions;
  predictions.reserve(snapshot.nodes.size());
  for (const auto& node : snapshot.nodes) {
    const double mem_frac =
        max_mem > 0.0 ? node.mem_available / max_mem : 0.0;
    predictions.push_back(NodePrediction{node.node, node.cpu_load +
                                                        (1.0 - mem_frac)});
  }
  Decision decision = DecisionModule::rank(std::move(predictions));
  decision.used_fallback = true;
  return decision;
}

std::string LtsScheduler::build_manifest(const spark::JobConfig& config,
                                         const std::string& job_name,
                                         const Decision& decision) const {
  return JobBuilder::render_manifest(config, job_name, decision.selected());
}

}  // namespace lts::core
