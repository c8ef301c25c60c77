#include "exp/stream.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/job_builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace lts::exp {

StreamCounters stream_counters(const std::string& tenant) {
  obs::Labels labels;
  if (!tenant.empty()) labels.emplace("tenant", tenant);
  return StreamCounters{
      obs::counter("lts_stream_jobs_completed_total", labels,
                   "Jobs completed by the live job-stream runner"),
      obs::counter(
          "lts_stream_placement_retries_total", labels,
          "Placements deferred because the cluster could not fit the job")};
}

std::string describe_rejections(const k8s::ScheduleResult& result) {
  if (result.rejected.empty()) {
    return "\n  (no per-node rejection reasons recorded)";
  }
  std::string out;
  for (const auto& [node, reason] : result.rejected) {
    out += "\n  " + node + ": " + reason;
  }
  return out;
}

void LiveJob::unbind(k8s::ApiServer& api) {
  for (const auto& pod : pods) api.remove_pod(pod);
  pods.clear();
}

spark::AppResult LiveJob::finish(k8s::ApiServer& api, StreamJobResult& job) {
  spark::AppResult result = app->result();
  app.reset();
  job.driver_node = result.driver_node;
  job.submitted = result.submit_time;
  job.queueing_delay = result.submit_time - job.planned_arrival;
  job.duration = result.duration();
  unbind(api);
  return result;
}

std::optional<k8s::ScheduleResult> launch_job(SimEnv& env,
                                              const JobLaunch& launch,
                                              LiveJob& live,
                                              sim::Event on_complete) {
  LTS_REQUIRE(live.pods.empty() && live.app == nullptr,
              "launch_job: " + launch.name + " is already launched");
  const spark::JobConfig& config = launch.config;
  const auto driver_pod = core::JobBuilder::driver_pod(config, launch.name,
                                                       launch.driver_node);
  const auto driver_fit = env.kube_scheduler().schedule(driver_pod);
  if (!driver_fit.feasible()) return driver_fit;
  env.api().bind(driver_pod, launch.driver_node);
  live.pods.push_back(driver_pod.name);
  std::vector<std::size_t> executor_nodes;
  for (int e = 0; e < config.executors; ++e) {
    auto pod = core::JobBuilder::executor_pod(config, launch.name, e);
    if (launch.offer != nullptr) {
      pod.node_affinity = k8s::NodeAffinity{*launch.offer};
    }
    const auto where = env.kube_scheduler().schedule(pod);
    if (!where.feasible()) {
      live.unbind(env.api());
      return where;
    }
    env.api().bind(pod, where.selected());
    live.pods.push_back(pod.name);
    executor_nodes.push_back(env.cluster().node_index(where.selected()));
  }

  live.app = env.make_app(config, env.cluster().node_index(launch.driver_node),
                          executor_nodes, launch.job_seed);
  live.app->submit(on_complete);
  return std::nullopt;
}

std::string describe_job_config(const spark::JobConfig& config) {
  constexpr double kMiB = 1024.0 * 1024.0;
  return strformat(
      "app=%s input_records=%lld executors=%d "
      "executor=%.1fcores/%.0fMiB driver=%.1fcores/%.0fMiB",
      spark::to_string(config.app),
      static_cast<long long>(config.input_records), config.executors,
      config.executor_cores, config.executor_memory / kMiB,
      config.driver_cores, config.driver_memory / kMiB);
}

namespace {

/// run_job_stream's driver, the stream's one event target. A job's arrival
/// and each of its retries resume it with kPlace, the job's app completion
/// with kComplete; the payload is the job's index in the plan.
class JobStream final : public sim::EventTarget {
 public:
  JobStream(StreamPolicy policy, std::shared_ptr<const ml::Regressor> model,
            const std::vector<Scenario>& matrix, const StreamOptions& options);
  ~JobStream() { env_.engine().remove_target(target_); }
  JobStream(const JobStream&) = delete;
  JobStream& operator=(const JobStream&) = delete;

  /// Schedules every arrival and steps until the last job completes.
  StreamResult run();

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "JobStream"; }

 private:
  enum Code : std::uint8_t { kPlace, kComplete };

  struct PlannedJob {
    const Scenario* scenario;
    SimTime arrival;
    std::uint64_t job_seed;
    std::size_t random_node;  // used by kRandom
  };
  // Decision-time context held until the job completes, at which point it
  // becomes one training row for the retrainer.
  struct PendingFeedback {
    bool valid = false;
    core::TrainingRecord record;
    double predicted = -1.0;  // <= 0 means no usable model prediction
  };

  /// Places job `j` now, from live state, or schedules its retry.
  void place(std::size_t j);
  /// Counts a deferred placement of job `j` and retries it kRetryDelay
  /// later; past kMaxPlacementRetries the stream fails loudly with the
  /// last attempt's per-node rejection reasons instead of spinning until
  /// the drain guard aborts the whole run.
  void retry(std::size_t j, const std::string& job_name,
             const k8s::ScheduleResult& last_attempt);
  void complete(std::size_t j);

  const StreamPolicy policy_;
  const StreamOptions& options_;
  const bool model_policy_;
  SimEnv env_;
  std::vector<PlannedJob> plan_;
  std::unique_ptr<core::LtsScheduler> scheduler_;  // model policies only
  std::unique_ptr<core::OnlineTrainer> retrainer_;  // kModelRetrain only
  std::vector<PendingFeedback> feedback_;
  StreamResult result_;
  std::vector<LiveJob> live_;
  int remaining_;
  const StreamCounters metrics_;
  const std::uint32_t target_;
};

JobStream::JobStream(StreamPolicy policy,
                     std::shared_ptr<const ml::Regressor> model,
                     const std::vector<Scenario>& matrix,
                     const StreamOptions& options)
    : policy_(policy),
      options_(options),
      model_policy_(policy == StreamPolicy::kModel ||
                    policy == StreamPolicy::kModelRetrain),
      env_(options.seed, options.env),
      remaining_(options.num_jobs),
      metrics_(stream_counters()),
      target_(env_.engine().add_target(this)) {
  const std::size_t n_nodes = env_.node_names().size();

  // Pre-draw the job sequence and arrival times: identical across policies.
  Rng stream_rng(options.seed ^ 0x57AE57AEULL);
  SimTime t = kWarmup;
  for (int j = 0; j < options.num_jobs; ++j) {
    t += stream_rng.exponential(options.mean_interarrival);
    plan_.push_back(PlannedJob{
        &sample_scenario(matrix, stream_rng), t,
        options.seed * 1000003ULL + static_cast<std::uint64_t>(j),
        static_cast<std::size_t>(stream_rng.uniform_int(
            0, static_cast<std::int64_t>(n_nodes) - 1))});
  }

  // Optional model scheduler (reused across decisions).
  if (model_policy_) {
    scheduler_ = std::make_unique<core::LtsScheduler>(
        core::TelemetryFetcher(env_.tsdb(), env_.node_names(),
                               options.env.snapshot),
        model, options.features, /*risk_aversion=*/0.0, options.degraded);
  }

  // Online retraining loop (kModelRetrain only): completions feed the
  // rolling window, successful refits hot-swap the scheduler's model. A
  // kRetrainFail fault makes attempts fail while active — the previous
  // model keeps serving.
  if (policy == StreamPolicy::kModelRetrain) {
    retrainer_ = std::make_unique<core::OnlineTrainer>(
        options.retrain, options.features, model);
    retrainer_->set_failure_hook(
        [this] { return env_.fault_injector().retrain_fail_active(); });
  }

  feedback_.resize(plan_.size());
  result_.jobs.resize(plan_.size());
  for (std::size_t j = 0; j < plan_.size(); ++j) {
    result_.jobs[j].scenario_id = plan_[j].scenario->id;
    result_.jobs[j].planned_arrival = plan_[j].arrival;
  }
  live_.resize(plan_.size());
}

StreamResult JobStream::run() {
  for (std::size_t j = 0; j < plan_.size(); ++j) {
    env_.engine().schedule_at(plan_[j].arrival,
                              sim::target_event(target_, kPlace, j));
  }
  while (remaining_ > 0) {
    LTS_REQUIRE(env_.engine().step(), "run_job_stream: engine drained early");
    LTS_REQUIRE(env_.engine().now() < plan_.back().arrival + 7200.0,
                "run_job_stream: stream failed to complete");
  }

  result_.makespan = makespan(result_.jobs);
  if (retrainer_) {
    result_.model_version = retrainer_->model_version();
    result_.retrain_events = retrainer_->events();
    result_.final_model = retrainer_->model();
  }
  return std::move(result_);
}

void JobStream::on_event(const sim::Event& event) {
  const auto j = static_cast<std::size_t>(event.payload);
  if (event.code == kPlace) {
    place(j);
  } else {
    complete(j);
  }
}

void JobStream::retry(std::size_t j, const std::string& job_name,
                      const k8s::ScheduleResult& last_attempt) {
  StreamJobResult& job = result_.jobs[j];
  ++job.placement_retries;
  metrics_.placement_retries.inc();
  if (job.placement_retries > kMaxPlacementRetries) {
    throw Error(strformat("run_job_stream: job %zu (%s, \"%s\") still "
                          "unplaceable after %d retries [%s]; per-node "
                          "rejections of the last attempt:",
                          j, plan_[j].scenario->id.c_str(), job_name.c_str(),
                          kMaxPlacementRetries,
                          describe_job_config(plan_[j].scenario->config)
                              .c_str()) +
                describe_rejections(last_attempt));
  }
  env_.engine().schedule_in(kRetryDelay, sim::target_event(target_, kPlace, j));
}

void JobStream::place(std::size_t j) {
  const PlannedJob& planned = plan_[j];
  const spark::JobConfig& config = planned.scenario->config;
  const std::string job_name =
      strformat("stream-%zu-%.0f", j, env_.engine().now());

  // Per-decision trace span for the model policy: the scheduler marks its
  // features/predict/rank phases on it, and "bind" lands below once the
  // pods are bound and the app submitted.
  std::optional<obs::ScopedSpan> span;
  if (model_policy_) {
    span.emplace(obs::Tracer::global(), "decision", env_.engine().now());
  }

  // Placement decision now, from live state.
  std::size_t driver_node = 0;
  switch (policy_) {
    case StreamPolicy::kModel:
    case StreamPolicy::kModelRetrain: {
      // Fetch explicitly (instead of scheduler->schedule) so the same
      // snapshot that produced the decision can seed the training row.
      const SimTime now = env_.engine().now();
      const auto snapshot = scheduler_->fetcher().fetch(now);
      if (span) span->phase("fetch", now);
      const auto decision =
          scheduler_->schedule_from_snapshot(snapshot, config);
      driver_node = env_.cluster().node_index(decision.selected());
      if (retrainer_) {
        PendingFeedback& fb = feedback_[j];
        fb.valid = true;
        fb.record.scenario_id = planned.scenario->id;
        fb.record.node = decision.selected();
        fb.record.snapshot_time = snapshot.at;
        // The row the decision ranked from: in degraded mode a stale node's
        // telemetry is its imputed row, as the model saw it.
        fb.record.telemetry =
            scheduler_->view(snapshot).by_name(decision.selected());
        fb.record.config = config;
        // Fallback rankings carry heuristic scores, not durations. A model
        // ranking's front is a fresh node: degraded mode ranks by the model
        // only while some rows are fresh, and they rank above stale ones.
        fb.predicted = decision.used_fallback
                           ? -1.0
                           : decision.ranking.front().predicted_duration;
      }
      break;
    }
    case StreamPolicy::kKubeDefault: {
      const auto ranking = env_.kube_ranking(config);
      if (!ranking.feasible()) {
        retry(j, job_name, ranking);
        return;
      }
      driver_node = env_.cluster().node_index(ranking.selected());
      break;
    }
    case StreamPolicy::kRandom:
      driver_node = planned.random_node;
      break;
  }

  // Driver pinned, executors via the default scheduler; an infeasible pod
  // unwinds the job's bindings and it retries later.
  const JobLaunch launch{config, job_name, env_.node_names()[driver_node],
                         planned.job_seed};
  const auto failed = launch_job(env_, launch, live_[j],
                                 sim::target_event(target_, kComplete, j));
  if (failed) {
    retry(j, job_name, *failed);
    return;
  }
  if (span) span->phase("bind", env_.engine().now());
}

void JobStream::complete(std::size_t j) {
  const spark::AppResult app_result =
      live_[j].finish(env_.api(), result_.jobs[j]);
  metrics_.jobs_completed.inc();
  if (retrainer_ && feedback_[j].valid) {
    PendingFeedback& fb = feedback_[j];
    fb.record.duration = app_result.duration();
    fb.record.shuffle_bytes = app_result.total_shuffle_bytes;
    fb.record.max_spill_penalty = app_result.max_spill_penalty;
    const auto event = retrainer_->on_completion(fb.record, fb.predicted);
    if (event && event->outcome == core::RetrainOutcome::kSwapped) {
      scheduler_->set_model(retrainer_->model());
    }
  }
  --remaining_;
}

}  // namespace

StreamResult run_job_stream(StreamPolicy policy,
                            std::shared_ptr<const ml::Regressor> model,
                            const std::vector<Scenario>& matrix,
                            const StreamOptions& options) {
  LTS_REQUIRE(options.num_jobs >= 1, "run_job_stream: num_jobs >= 1");
  LTS_REQUIRE(std::isfinite(options.mean_interarrival) &&
                  options.mean_interarrival > 0.0,
              "run_job_stream: mean_interarrival must be finite and > 0");
  const bool model_policy = policy == StreamPolicy::kModel ||
                            policy == StreamPolicy::kModelRetrain;
  if (model_policy && !options.degraded) {
    LTS_REQUIRE(model != nullptr && model->is_fitted(),
                "run_job_stream: model policies need a fitted model");
  }
  return JobStream(policy, std::move(model), matrix, options).run();
}

}  // namespace lts::exp
