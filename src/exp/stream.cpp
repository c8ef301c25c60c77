#include "exp/stream.hpp"

#include <algorithm>
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

std::optional<k8s::ScheduleResult> launch_job(
    SimEnv& env, const JobLaunch& launch, LiveJob& live, StreamJobResult& job,
    std::function<void(const spark::AppResult&)> on_complete) {
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
  live.app->submit([&env, &live, &job, on_complete = std::move(on_complete)](
                       const spark::AppResult& app_result) {
    job.driver_node = app_result.driver_node;
    job.submitted = app_result.submit_time;
    job.queueing_delay = app_result.submit_time - job.planned_arrival;
    job.duration = app_result.duration();
    live.unbind(env.api());
    on_complete(app_result);
  });
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

StreamResult run_job_stream(StreamPolicy policy,
                            std::shared_ptr<const ml::Regressor> model,
                            const std::vector<Scenario>& matrix,
                            const StreamOptions& options) {
  LTS_REQUIRE(options.num_jobs >= 1, "run_job_stream: num_jobs >= 1");
  const bool model_policy = policy == StreamPolicy::kModel ||
                            policy == StreamPolicy::kModelRetrain;
  if (model_policy && !options.fallback.enabled) {
    LTS_REQUIRE(model != nullptr && model->is_fitted(),
                "run_job_stream: model policies need a fitted model");
  }

  SimEnv env(options.seed, options.env);
  const std::size_t n_nodes = env.node_names().size();

  // Pre-draw the job sequence and arrival times: identical across policies.
  Rng stream_rng(options.seed ^ 0x57AE57AEULL);
  struct PlannedJob {
    const Scenario* scenario;
    SimTime arrival;
    std::uint64_t job_seed;
    std::size_t random_node;  // used by kRandom
  };
  std::vector<PlannedJob> plan;
  SimTime t = kWarmup;
  for (int j = 0; j < options.num_jobs; ++j) {
    t += stream_rng.exponential(options.mean_interarrival);
    plan.push_back(PlannedJob{
        &sample_scenario(matrix, stream_rng), t,
        options.seed * 1000003ULL + static_cast<std::uint64_t>(j),
        static_cast<std::size_t>(stream_rng.uniform_int(
            0, static_cast<std::int64_t>(n_nodes) - 1))});
  }

  // Optional model scheduler (reused across decisions).
  std::unique_ptr<core::LtsScheduler> scheduler;
  if (model_policy) {
    scheduler = std::make_unique<core::LtsScheduler>(
        core::TelemetryFetcher(env.tsdb(), env.node_names(),
                               options.env.snapshot, options.degradation),
        model, options.features, /*risk_aversion=*/0.0, options.fallback);
  }

  // Online retraining loop (kModelRetrain only): completions feed the
  // rolling window, successful refits hot-swap the scheduler's model. A
  // kRetrainFail fault makes attempts fail while active — the previous
  // model keeps serving.
  std::unique_ptr<core::OnlineTrainer> retrainer;
  if (policy == StreamPolicy::kModelRetrain) {
    core::RetrainOptions retrain_options = options.retrain;
    retrain_options.enabled = true;
    retrainer = std::make_unique<core::OnlineTrainer>(
        retrain_options, options.features, model);
    retrainer->set_failure_hook(
        [&env] { return env.fault_injector().retrain_fail_active(); });
  }

  // Decision-time context held until the job completes, at which point it
  // becomes one training row for the retrainer.
  struct PendingFeedback {
    bool valid = false;
    core::TrainingRecord record;
    double predicted = -1.0;  // <= 0 means no usable model prediction
  };
  std::vector<PendingFeedback> feedback(plan.size());

  StreamResult result;
  result.jobs.resize(plan.size());
  for (std::size_t j = 0; j < plan.size(); ++j) {
    result.jobs[j].scenario_id = plan[j].scenario->id;
    result.jobs[j].planned_arrival = plan[j].arrival;
  }
  std::vector<LiveJob> live(plan.size());
  int remaining = options.num_jobs;
  const StreamCounters metrics = stream_counters();

  // Placement may be infeasible while the cluster is backlogged; like real
  // pending pods, the job retries a few seconds later — but only
  // options.max_placement_retries times. A permanently-infeasible job
  // (e.g. one whose pods can never fit any node) fails the stream loudly
  // with the last attempt's per-node rejection reasons instead of spinning
  // until the drain guard aborts the whole run with no explanation.
  auto try_place = std::make_shared<std::function<void(std::size_t)>>();
  // The stored lambda must not capture try_place strongly — that's a
  // shared_ptr cycle (the function would own itself and leak). The local
  // strong reference above outlives the event loop below, so weak_ptr
  // locks always succeed while events can still fire.
  *try_place = [&, weak = std::weak_ptr(try_place)](std::size_t j) {
    const PlannedJob& planned = plan[j];
    const spark::JobConfig& config = planned.scenario->config;
    const std::string job_name =
        strformat("stream-%zu-%.0f", j, env.engine().now());
    auto retry = [&, weak, j,
                  job_name](const k8s::ScheduleResult& last_attempt) {
      StreamJobResult& job = result.jobs[j];
      ++job.placement_retries;
      metrics.placement_retries.inc();
      if (job.placement_retries > options.max_placement_retries) {
        throw Error(strformat(
                        "run_job_stream: job %zu (%s, \"%s\") still "
                        "unplaceable after %d retries [%s]; per-node "
                        "rejections of the last attempt:",
                        j, plan[j].scenario->id.c_str(), job_name.c_str(),
                        options.max_placement_retries,
                        describe_job_config(config).c_str()) +
                    describe_rejections(last_attempt));
      }
      env.engine().schedule_in(kRetryDelay, [weak, j] {
        if (const auto fn = weak.lock()) (*fn)(j);
      });
    };

    // Per-decision trace span for the model policy: the scheduler marks its
    // features/predict/rank phases on it, and "bind" lands below once the
    // pods are bound and the app submitted.
    std::optional<obs::ScopedSpan> span;
    if (model_policy) {
      span.emplace(obs::Tracer::global(), "decision", env.engine().now());
    }

    // Placement decision now, from live state.
    std::size_t driver_node = 0;
    switch (policy) {
      case StreamPolicy::kModel:
      case StreamPolicy::kModelRetrain: {
        // Fetch explicitly (instead of scheduler->schedule) so the same
        // snapshot that produced the decision can seed the training row.
        const SimTime now = env.engine().now();
        const auto snapshot = scheduler->fetcher().fetch_shared(now);
        if (span) span->phase("fetch", now);
        const auto decision =
            scheduler->schedule_from_snapshot(*snapshot, config);
        driver_node = env.cluster().node_index(decision.selected());
        if (retrainer) {
          PendingFeedback& fb = feedback[j];
          fb.valid = true;
          fb.record.scenario_id = planned.scenario->id;
          fb.record.node = decision.selected();
          fb.record.snapshot_time = snapshot->at;
          fb.record.telemetry = snapshot->by_name(decision.selected());
          fb.record.config = config;
          // Fallback rankings carry heuristic scores, not durations;
          // OnlineTrainer also rejects stale-demoted scores (>= 1e8).
          fb.predicted = decision.used_fallback
                             ? -1.0
                             : decision.ranking.front().predicted_duration;
        }
        break;
      }
      case StreamPolicy::kKubeDefault: {
        const auto ranking = env.kube_ranking(config);
        if (!ranking.feasible()) {
          retry(ranking);
          return;
        }
        driver_node = env.cluster().node_index(ranking.selected());
        break;
      }
      case StreamPolicy::kRandom:
        driver_node = planned.random_node;
        break;
    }

    // Driver pinned, executors via the default scheduler; an infeasible pod
    // unwinds the job's bindings and it retries later.
    const JobLaunch launch{config, job_name, env.node_names()[driver_node],
                           planned.job_seed};
    const auto failed = launch_job(
        env, launch, live[j], result.jobs[j],
        [&, j](const spark::AppResult& app_result) {
          metrics.jobs_completed.inc();
          if (retrainer && feedback[j].valid) {
            PendingFeedback& fb = feedback[j];
            fb.record.duration = app_result.duration();
            fb.record.shuffle_bytes = app_result.total_shuffle_bytes;
            fb.record.max_spill_penalty = app_result.max_spill_penalty;
            const auto event =
                retrainer->on_completion(fb.record, fb.predicted);
            if (event && event->outcome == core::RetrainOutcome::kSwapped) {
              scheduler->set_model(retrainer->model());
            }
          }
          --remaining;
        });
    if (failed) {
      retry(*failed);
      return;
    }
    if (span) span->phase("bind", env.engine().now());
  };

  for (std::size_t j = 0; j < plan.size(); ++j) {
    env.engine().schedule_at(plan[j].arrival,
                             [try_place, j] { (*try_place)(j); });
  }

  while (remaining > 0) {
    LTS_REQUIRE(env.engine().step(), "run_job_stream: engine drained early");
    LTS_REQUIRE(env.engine().now() < plan.back().arrival + 7200.0,
                "run_job_stream: stream failed to complete");
  }

  result.makespan = makespan(result.jobs);
  if (retrainer) {
    result.model_version = retrainer->model_version();
    result.retrain_events = retrainer->events();
    result.final_model = retrainer->model();
  }
  return result;
}

}  // namespace lts::exp
