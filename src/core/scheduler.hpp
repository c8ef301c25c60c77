// LtsScheduler: the paper's prediction-and-ranking pipeline (§3.2.3).
//
//   job request -> Telemetry Fetcher -> Feature Constructor
//               -> Supervised Model  -> Decision Module -> Job Builder
//
// It runs in user space, outside the (simulated) Kubernetes control plane:
// the output is a placement decision plus a nodeAffinity-pinned manifest,
// and binding happens through the ordinary API server.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/job_builder.hpp"
#include "ml/model.hpp"
#include "spark/job.hpp"

namespace lts::core {

/// With the fallback policy on, if fewer than this fraction of snapshot rows
/// are fresh the scheduler distrusts the whole snapshot and uses the
/// fallback ranking instead of the model: at least a third of the cluster
/// must be reporting.
inline constexpr double kMinFreshFraction = 0.34;
static_assert(kMinFreshFraction >= 0.0 && kMinFreshFraction <= 1.0);

/// Fallback policy (fault tolerance): what the scheduler does when its
/// model or its telemetry is unusable. Off by default — then the scheduler
/// requires a fitted model and ranks exactly as the paper describes. On, it
/// falls back on an untrusted snapshot (kMinFreshFraction) or an unusable
/// model, and in the model path pushes stale-telemetry nodes to the bottom
/// of the ranking (their features are imputed guesses, not measurements).
struct FallbackOptions {
  bool enabled = false;
};

class LtsScheduler {
 public:
  /// `model` must already be fitted (offline training) on feature vectors
  /// of `features` layout. The scheduler does not own the TSDB; it queries
  /// through the fetcher.
  /// `risk_aversion` > 0 ranks nodes by predicted duration plus that many
  /// standard deviations of model uncertainty: a pessimistic policy that
  /// avoids placements the model is unsure about (extension beyond the
  /// paper; 0 reproduces its mean-duration ranking exactly).
  /// With `fallback.enabled`, `model` may be null or unfitted — every
  /// decision then uses the fallback ranking (a default-kube-like
  /// spreading heuristic over whatever telemetry is fresh).
  LtsScheduler(TelemetryFetcher fetcher,
               std::shared_ptr<const ml::Regressor> model,
               FeatureSet features = FeatureSet::kTable1,
               double risk_aversion = 0.0,
               FallbackOptions fallback = {});

  // One serving path. schedule() and schedule_from_snapshot() are a batch
  // of one through schedule_many() and schedule_many_from_snapshot(), which
  // share schedule_batch(): one snapshot, one feature block over every
  // (pod, node) candidate, one batched model call (a row's prediction does
  // not depend on its block, so batching never changes a decision).
  //
  // Tracing rule: a trace books each cost on the span that is open when
  // the cost is incurred. The fetching entry points give every decision a
  // "schedule" span (joined to the caller's when one is open) with phases
  // fetch -> features -> predict -> rank; the first decision's span is open
  // across the fetch, the feature build and the model call, and each later
  // decision marks those phases at no cost before its own rank. The
  // snapshot entry points open no span: the same phases minus fetch land on
  // whatever span the caller has open. A fallback decision has no features
  // or predict phase.

  /// Full pipeline: fetch telemetry as of `now`, score every candidate
  /// node, return the ranking.
  Decision schedule(const spark::JobConfig& config, SimTime now) const;

  /// Like schedule(), but from a pre-fetched snapshot (used when the caller
  /// already logged the same snapshot).
  Decision schedule_from_snapshot(const telemetry::ClusterSnapshot& snapshot,
                                  const spark::JobConfig& config) const;

  /// Ranks a whole queue of pending pods in one pass from one (cached)
  /// snapshot fetch. The decisions equal schedule() once per config at the
  /// same `now`: the cached snapshot is keyed on (TSDB epoch, now), so it
  /// equals a fresh fetch by construction.
  std::vector<Decision> schedule_many(
      std::span<const spark::JobConfig> configs, SimTime now) const;

  /// Batched variant of schedule_from_snapshot: no fetch and no span of its
  /// own.
  std::vector<Decision> schedule_many_from_snapshot(
      const telemetry::ClusterSnapshot& snapshot,
      std::span<const spark::JobConfig> configs) const;

  /// The manifest for a decision (Job Builder output).
  std::string build_manifest(const spark::JobConfig& config,
                             const std::string& job_name,
                             const Decision& decision) const;

  /// Atomically replaces the serving model (the online-retraining hot
  /// swap). `model` must be fitted and non-null: a failed refit keeps the
  /// previous model by simply never calling this. In-flight decisions are
  /// unaffected — each decision snapshots the pointer once on entry and
  /// scores every candidate node with that same model.
  void set_model(std::shared_ptr<const ml::Regressor> model);

  /// The currently-serving model pointer (may be null in fallback mode).
  std::shared_ptr<const ml::Regressor> current_model() const;

  const TelemetryFetcher& fetcher() const { return fetcher_; }
  const ml::Regressor& model() const;
  bool has_usable_model() const;
  FeatureSet feature_set() const { return features_; }
  const FallbackOptions& fallback() const { return fallback_; }

 private:
  /// Default-kube-like spreading ranking over raw telemetry: prefer nodes
  /// with low CPU load and plenty of free memory. Used when the model or
  /// the snapshot cannot be trusted.
  Decision fallback_rank(const telemetry::ClusterSnapshot& snapshot) const;

  /// Shared body of every entry point. With `given` null it fetches the
  /// snapshot at `now` and opens the per-decision spans; otherwise it ranks
  /// from `given` and only marks phases (see the tracing rule above).
  std::vector<Decision> schedule_batch(
      const telemetry::ClusterSnapshot* given,
      std::span<const spark::JobConfig> configs, SimTime now) const;

  TelemetryFetcher fetcher_;
  /// Guards model_ only: decisions copy the shared_ptr once, hot-swaps
  /// replace it. Everything else is immutable after construction.
  mutable std::mutex model_mutex_;
  std::shared_ptr<const ml::Regressor> model_;
  FeatureSet features_;
  double risk_aversion_;
  FallbackOptions fallback_;
};

}  // namespace lts::core
