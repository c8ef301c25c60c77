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

/// In degraded mode, a row is stale when its node exporter has not reported
/// within this many seconds of the snapshot time, or never reported: a few
/// scrape intervals.
inline constexpr SimTime kMaxStaleness = 10.0;
static_assert(kMaxStaleness > 0.0);

/// In degraded mode, if fewer than this fraction of snapshot rows are fresh
/// the scheduler distrusts the whole snapshot and uses the fallback ranking
/// instead of the model: at least a third of the cluster must be reporting.
inline constexpr double kMinFreshFraction = 0.34;
static_assert(kMinFreshFraction >= 0.0 && kMinFreshFraction <= 1.0);

class LtsScheduler {
 public:
  /// `model` must already be fitted (offline training) on feature vectors
  /// of `features` layout. The scheduler does not own the TSDB; it queries
  /// through the fetcher.
  /// `risk_aversion` > 0 ranks nodes by predicted duration plus that many
  /// standard deviations of model uncertainty: a pessimistic policy that
  /// avoids placements the model is unsure about (extension beyond the
  /// paper; 0 reproduces its mean-duration ranking exactly).
  /// `degraded` turns on the stale-telemetry policy (fault tolerance). Off,
  /// the scheduler requires a fitted model and ranks exactly as the paper
  /// describes, from telemetry as fetched. On, it ranks from view(): stale
  /// rows are marked and imputed, and a model ranking puts stale candidates
  /// below every fresh one (their features are imputed guesses, not
  /// measurements). A decision falls back to a default-kube-like spreading
  /// heuristic when the model is null or unfitted (so `model` may be
  /// either) or when fewer than kMinFreshFraction of the rows are fresh.
  LtsScheduler(TelemetryFetcher fetcher,
               std::shared_ptr<const ml::Regressor> model,
               FeatureSet features = FeatureSet::kTable1,
               double risk_aversion = 0.0, bool degraded = false);

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
  // degraded view of a fetched snapshot is built inside the fetch phase.
  // The snapshot entry points open no span: the same phases minus fetch
  // land on whatever span the caller has open. A fallback decision has no
  // features or predict phase.

  /// Full pipeline: fetch telemetry as of `now`, score every candidate
  /// node, return the ranking.
  Decision schedule(const spark::JobConfig& config, SimTime now) const;

  /// Like schedule(), but from a pre-fetched snapshot as the fetcher
  /// returns it (used when the caller already logged the same snapshot).
  Decision schedule_from_snapshot(const telemetry::ClusterSnapshot& snapshot,
                                  const spark::JobConfig& config) const;

  /// Ranks a whole queue of pending pods in one pass from one snapshot
  /// fetch. The decisions equal schedule() once per config at the same
  /// `now`.
  std::vector<Decision> schedule_many(
      std::span<const spark::JobConfig> configs, SimTime now) const;

  /// Batched variant of schedule_from_snapshot: no fetch and no span of its
  /// own.
  std::vector<Decision> schedule_many_from_snapshot(
      const telemetry::ClusterSnapshot& snapshot,
      std::span<const spark::JobConfig> configs) const;

  /// The snapshot a decision ranks from. In degraded mode, every row whose
  /// exporter has not reported within kMaxStaleness of `snapshot.at` (or
  /// never reported) is marked stale, and its telemetry is replaced by the
  /// median of the fresh rows, so a silent node scores as "average" instead
  /// of as a phantom idle one (a zeroed row looks maximally attractive to
  /// the model). Nothing is imputed when every row is stale. Otherwise the
  /// snapshot is returned as given.
  telemetry::ClusterSnapshot view(
      const telemetry::ClusterSnapshot& snapshot) const;

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

  /// The currently-serving model pointer (may be null in degraded mode).
  std::shared_ptr<const ml::Regressor> current_model() const;

  const TelemetryFetcher& fetcher() const { return fetcher_; }
  const ml::Regressor& model() const;
  bool has_usable_model() const;
  FeatureSet feature_set() const { return features_; }
  bool degraded() const { return degraded_; }

 private:
  /// Default-kube-like spreading ranking over the viewed telemetry: prefer
  /// nodes with low CPU load and plenty of free memory. Used when the model
  /// or the snapshot cannot be trusted. Stale rows are not demoted here.
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
  bool degraded_;
};

}  // namespace lts::core
