// Simulated experiment environment: the paper's §5.1 testbed in a box.
//
// One SimEnv owns a discrete-event engine, the 6-node/3-site cluster, the
// telemetry stack (node exporters + ping mesh + TSDB), a Kubernetes API
// server with the default scheduler, and a randomized set of background-load
// pods (§5.2). Everything is a deterministic function of the seed, so
// copying a warm SimEnv (or rebuilding one with the same seed) and running
// the same job with a *different* driver node is an exact counterfactual —
// the basis of the Table 4 ground truth.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/background.hpp"
#include "cluster/cluster.hpp"
#include "core/job_builder.hpp"
#include "fault/fault.hpp"
#include "k8s/api.hpp"
#include "k8s/scheduler.hpp"
#include "simcore/engine.hpp"
#include "spark/runtime.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/snapshot.hpp"

namespace lts::exp {

/// Simulated seconds a SimEnv runs before the first snapshot, so load
/// averages and rate() windows have settled.
inline constexpr SimTime kWarmup = 40.0;

struct EnvOptions {
  cluster::ClusterSpec cluster_spec = cluster::paper_cluster_spec();
  telemetry::SnapshotOptions snapshot;

  /// Background contention pods (the curl loops of §5.2): each scenario
  /// draws a count in [min, max] and random client/server node pairs.
  int min_background_pods = 1;
  int max_background_pods = 4;
  int min_parallel_fetches = 1;
  int max_parallel_fetches = 6;

  /// Per-node heterogeneity, drawn per environment: extra one-way access
  /// delay in [0, max] (virtualization path differences; observable through
  /// the ping mesh). Each node also runs a resident system-daemon CPU
  /// demand, observable through the load average.
  SimTime max_node_extra_delay = 12.0e-3;

  /// Fault schedule, applied through the environment's FaultInjector at
  /// construction. Empty (the default) leaves the event sequence — and so
  /// every output — exactly as without fault support.
  std::vector<fault::FaultSpec> faults;
};

/// Escalation steps of a drift staircase; each step raises severity
/// linearly until the final step reaches max_capacity_cut / max_rtt_spike.
inline constexpr int kDriftSteps = 4;
static_assert(kDriftSteps >= 1);

/// Knobs for a deterministic network-drift schedule: a staircase of
/// permanent, escalating WAN degradations (capacity cuts + RTT spikes) on
/// a fixed subset of links. Unlike generate_fault_schedule's transient
/// faults, drift never recovers — the environment a static model was
/// trained for progressively stops existing, which is the regime online
/// retraining (OnlineTrainer, bench_ext_retrain) is built for.
struct DriftScheduleOptions {
  /// First step lands here; keep it at or after warmup plus some healthy
  /// stream so the retrainer has pre-drift completions in its window.
  SimTime start = 80.0;
  /// How many WAN links drift (chosen deterministically from the seed).
  int drift_links = 2;
  /// Final fraction of link capacity removed, in [0, 1).
  double max_capacity_cut = 0.85;
  /// Final extra one-way propagation delay, seconds.
  SimTime max_rtt_spike = 0.060;
};

/// Deterministically generates the drift staircase against `spec`'s WAN
/// links. Same (spec, seed, options) -> same schedule. Each step re-injects
/// the link fault at a higher severity; the FaultInjector always mutates
/// relative to the pristine link state, so severities do not compound.
std::vector<fault::FaultSpec> generate_drift_schedule(
    const cluster::ClusterSpec& spec, std::uint64_t seed,
    const DriftScheduleOptions& options = {});

/// Builds a larger deployment in the same style as the paper's testbed:
/// `sites` site routers in a chain-of-distance full mesh (nearby sites get
/// short RTTs, distant pairs long ones), `nodes_per_site` nodes each, with
/// the paper's per-node resources. Node names stay "node-1".."node-N" in
/// global order. Used by the §8 "evaluation at larger scale" extension.
/// Throws lts::Error unless sites is in [1, 512], nodes_per_site in
/// [1, 4096] and the product at most 100 000.
cluster::ClusterSpec scaled_cluster_spec(int sites, int nodes_per_site);

class SimEnv {
 public:
  explicit SimEnv(std::uint64_t seed, EnvOptions options = {});

  /// Forks `other`: a copy whose every component is bound to its own engine,
  /// cluster, TSDB and API server, with event ids, Rng states, the job
  /// counter and the flows' lazy byte accounting copied verbatim. The
  /// aggregates (cluster, nodes, telemetry stack) clone the children they
  /// own; each leaf component takes its implicit member-wise copy and only
  /// re-points its collaborators, so a field added to a leaf is forked
  /// without being listed again. The copy keeps no pointer into `other`,
  /// so it may outlive it. A copy taken after warmup() continues bit for
  /// bit like a freshly warmed environment, so counterfactual runs fork one
  /// warm state instead of re-warming it. Reads only `other`'s raw state,
  /// so several threads may copy one idle environment at once. Every event
  /// is a record, so only a component stops a copy: it throws lts::Error
  /// naming the first event target registered on `other`'s engine that is
  /// not part of the environment (a running SparkApp, a stream runner).
  SimEnv(const SimEnv& other);
  SimEnv& operator=(const SimEnv&) = delete;

  sim::Engine& engine() { return engine_; }
  cluster::Cluster& cluster() { return *cluster_; }
  const telemetry::Tsdb& tsdb() const { return stack_->tsdb(); }
  k8s::ApiServer& api() { return api_; }
  k8s::DefaultScheduler& kube_scheduler() { return kube_scheduler_; }
  fault::FaultInjector& fault_injector() { return *faults_; }
  const std::vector<std::string>& node_names() const { return node_names_; }
  const EnvOptions& options() const { return options_; }
  std::uint64_t seed() const { return seed_; }

  /// Runs the engine until kWarmup; idempotent.
  void warmup();

  /// Telemetry snapshot of all nodes as of now.
  telemetry::ClusterSnapshot snapshot() const;

  /// Executes a job with its driver pinned on `driver_node` and executors
  /// placed by the default scheduler. `job_seed` drives the job's own
  /// randomness (DAG skew, startup jitter, task jitter) and must be held
  /// fixed across counterfactual runs. Binds and later removes the pods
  /// through the API server, so the scheduler sees realistic state.
  spark::AppResult run_job(const spark::JobConfig& config,
                           std::size_t driver_node, std::uint64_t job_seed);

  /// Builds the job's DAG and app on an already-bound placement, ready to
  /// submit. The job's own randomness (DAG Join skew, runtime jitter)
  /// derives from `job_seed` only, so placement never perturbs its draws.
  std::unique_ptr<spark::SparkApp> make_app(
      const spark::JobConfig& config, std::size_t driver_node,
      const std::vector<std::size_t>& executor_nodes, std::uint64_t job_seed);

  /// Full ranking the default Kubernetes scheduler would produce for this
  /// job's driver pod right now (the Table 4 baseline).
  k8s::ScheduleResult kube_ranking(const spark::JobConfig& config);

  /// Background load pods active in this environment (for inspection).
  std::size_t num_background_pods() const { return background_.size(); }
  const cluster::BackgroundLoad& background_pod(std::size_t i) const;

 private:
  std::uint64_t seed_;
  EnvOptions options_;
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<telemetry::TelemetryStack> stack_;
  k8s::ApiServer api_;
  k8s::DefaultScheduler kube_scheduler_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<cluster::BackgroundLoad>> background_;
  bool warmed_up_ = false;
  int job_counter_ = 0;
};

}  // namespace lts::exp
