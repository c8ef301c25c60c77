// Live job-stream runner: the operational complement to Table 4.
//
// A Poisson stream of jobs arrives at one living cluster; each is placed at
// its arrival instant by the configured policy and executes concurrently
// with earlier jobs (and the background load), so placement quality
// compounds through contention. Running the identical stream (same seed,
// same jobs, same arrivals) under different policies isolates the
// scheduler's end-to-end contribution: mean/percentile job completion time
// and makespan.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/online_trainer.hpp"
#include "core/scheduler.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "k8s/api.hpp"
#include "k8s/scheduler.hpp"
#include "ml/model.hpp"
#include "obs/metrics.hpp"
#include "spark/runtime.hpp"

namespace lts::exp {

enum class StreamPolicy {
  kModel,         // the paper's prediction-and-ranking scheduler
  kModelRetrain,  // kModel + online retraining on completed jobs (§2.4)
  kKubeDefault,   // default kube-scheduler choice for the driver pod
  kRandom,        // uniform random node
};

struct StreamOptions {
  int num_jobs = 40;
  SimTime mean_interarrival = 12.0;  // seconds, exponential
  std::uint64_t seed = 1;
  EnvOptions env;
  core::FeatureSet features = core::FeatureSet::kTable1;
  /// Runs the model policies' scheduler in degraded mode (fault tolerance;
  /// see LtsScheduler). Off by default: the model scheduler then behaves
  /// exactly as the paper describes. On, the model policies also accept a
  /// null model (every decision falls back to the spreading heuristic).
  bool degraded = false;
  /// Online retraining knobs, used only by kModelRetrain. Every completed
  /// job feeds the rolling window; a successful refit hot-swaps the
  /// scheduler's model mid-stream. The kModel policy ignores this
  /// entirely, and the pre-drawn job/arrival plan is policy-independent
  /// either way.
  core::RetrainOptions retrain;
};

struct StreamJobResult {
  std::string scenario_id;
  std::string driver_node;
  /// Pre-drawn arrival instant (when the job *asked* to run).
  SimTime planned_arrival = 0.0;
  /// Actual submission instant: the last time placement succeeded. Under
  /// backlog this is later than planned_arrival (retry path); a preempted
  /// multi-tenant job restarts from scratch and submits again.
  SimTime submitted = 0.0;
  /// submitted - planned_arrival: time spent waiting for capacity.
  SimTime queueing_delay = 0.0;
  double duration = 0.0;
  /// Placement attempts deferred before this job was placed.
  int placement_retries = 0;
};

struct StreamResult {
  std::vector<StreamJobResult> jobs;
  /// Last completion minus first *actual* submission. Queueing delay ahead
  /// of the first submit is reported per job, not silently absorbed here.
  double makespan = 0.0;
  /// kModelRetrain only: version serving at stream end (0 = the initial
  /// model was never replaced), every retrain attempt in order, and the
  /// model that was serving when the stream finished (null for other
  /// policies) — save_model(*final_model, path, model_version) ships it.
  std::uint64_t model_version = 0;
  std::vector<core::RetrainEvent> retrain_events;
  std::shared_ptr<const ml::Regressor> final_model;
};

/// Runs the stream under `policy`. `model` is only used by kModel (may be
/// null otherwise). The job sequence and arrival times depend only on
/// (options.seed, matrix), never on the policy, so results are directly
/// comparable across policies.
StreamResult run_job_stream(StreamPolicy policy,
                            std::shared_ptr<const ml::Regressor> model,
                            const std::vector<Scenario>& matrix,
                            const StreamOptions& options);

/// Stream progress counters against the global obs registry. With a tenant
/// name they carry a `tenant=` label so concurrent tenant streams keep
/// separate retry/completion series; an empty name yields the unlabeled
/// series the single-tenant runner has always reported. References stay
/// valid for the registry's lifetime — never shared global state.
struct StreamCounters {
  obs::Counter& jobs_completed;
  obs::Counter& placement_retries;
};
StreamCounters stream_counters(const std::string& tenant = {});

/// Human-readable per-node rejection reasons of a scheduling attempt, one
/// "\n  node: reason" line each (empty result explained too). Used by the
/// bounded-retry failure paths of both stream runners.
std::string describe_rejections(const k8s::ScheduleResult& result);

/// A stream job's state while it holds the cluster: its bound pods (driver
/// first) and its app. Both are empty until launch_job succeeds and again
/// once the job finishes.
struct LiveJob {
  std::vector<std::string> pods;
  std::unique_ptr<spark::SparkApp> app;

  /// Removes every bound pod of the job through the API server.
  void unbind(k8s::ApiServer& api);

  /// The job bookkeeping both stream runners do on the app's completion
  /// record: `job` gets its driver node, submit time, queueing delay and
  /// duration, the app is destroyed (its DAG, tables and engine target go
  /// with it) and the pods are unbound. Returns the app's result.
  spark::AppResult finish(k8s::ApiServer& api, StreamJobResult& job);
};

/// One job placement for launch_job: the policy already chose the driver's
/// node.
struct JobLaunch {
  const spark::JobConfig& config;
  const std::string& name;         // pod-name prefix
  const std::string& driver_node;  // the driver pod is pinned here
  std::uint64_t job_seed;          // the job's own DAG and app randomness
  /// Nodes the executors may use (a DRF offer); null = any node.
  const std::vector<std::string>* offer = nullptr;
};

/// Delay before a stream retries a placement that found no room, in both
/// stream runners: like a pending pod, the job waits for capacity to free.
constexpr SimTime kRetryDelay = 5.0;
/// Placement retry cap per job, in both stream runners. A job that is
/// still unplaceable after this many deferrals is permanently infeasible,
/// and the stream fails loudly naming the job, its config, and the
/// per-node rejection reasons from the last scheduling attempt — instead
/// of spinning until the opaque drain guard kills the whole run. 240
/// retries = 20 simulated minutes of backlog.
constexpr int kMaxPlacementRetries = 240;
static_assert(kMaxPlacementRetries >= 1);

/// The job launch both stream runners share. Binds the pinned driver, then
/// each executor through the default scheduler (restricted to the offer
/// when one is given). On the first infeasible pod it unbinds every pod of
/// the job and returns that attempt. Otherwise it records the pods in
/// `live`, builds the app (SimEnv::make_app), submits it with
/// `on_complete` as its completion record and returns nullopt; the
/// record's listener calls live.finish.
std::optional<k8s::ScheduleResult> launch_job(SimEnv& env,
                                              const JobLaunch& launch,
                                              LiveJob& live,
                                              sim::Event on_complete);

/// Last completion minus first *actual* submission over a finished
/// stream's jobs (StreamJobResult or a type extending it); `last_finish`,
/// when given, receives the last completion. Under backlog the first job
/// can submit later than its planned arrival and retries can reorder
/// submissions, so the earliest submit is a min over jobs — the planned
/// arrival would silently absorb queueing delay into the makespan.
template <class Job>
double makespan(const std::vector<Job>& jobs, SimTime* last_finish = nullptr) {
  SimTime first_submit = jobs.front().submitted;
  SimTime last = 0.0;
  for (const StreamJobResult& job : jobs) {
    first_submit = std::min(first_submit, job.submitted);
    last = std::max(last, job.submitted + job.duration);
  }
  if (last_finish != nullptr) *last_finish = last;
  return last - first_submit;
}

/// One-line human-readable job-config summary for diagnostics.
std::string describe_job_config(const spark::JobConfig& config);

}  // namespace lts::exp
