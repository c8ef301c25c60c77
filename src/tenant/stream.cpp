#include "tenant/stream.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/job_builder.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace lts::tenant {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// FNV-1a over the tenant name: a stable, platform-independent salt for the
/// per-tenant RNG streams (std::hash would not be reproducible).
std::uint64_t name_salt(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Total requests of one job's pods: the quantity DRF accounts per tenant.
k8s::Resources job_demand(const spark::JobConfig& config) {
  const double e = static_cast<double>(config.executors);
  return {config.driver_cores + e * config.executor_cores,
          config.driver_memory + e * config.executor_memory};
}

std::string job_key(std::size_t j) { return strformat("job-%06zu", j); }

}  // namespace

std::vector<SimTime> draw_arrivals(int num_jobs, const ArrivalOptions& options,
                                   Rng& rng, SimTime start) {
  LTS_REQUIRE(num_jobs >= 1, "draw_arrivals: num_jobs >= 1");
  LTS_REQUIRE(options.mean_interarrival > 0.0,
              "draw_arrivals: mean_interarrival > 0");
  std::vector<SimTime> arrivals;
  arrivals.reserve(static_cast<std::size_t>(num_jobs));
  SimTime t = start;
  switch (options.process) {
    case ArrivalProcess::kExponential:
      for (int j = 0; j < num_jobs; ++j) {
        t += rng.exponential(options.mean_interarrival);
        arrivals.push_back(t);
      }
      break;
    case ArrivalProcess::kBursty: {
      LTS_REQUIRE(options.burst_size >= 1, "draw_arrivals: burst_size >= 1");
      LTS_REQUIRE(options.burst_spacing >= 0.0,
                  "draw_arrivals: burst_spacing >= 0");
      // Bursts of `burst_size` jobs `burst_spacing` apart; burst gaps are
      // exponential with mean burst_size * mean_interarrival so the
      // long-run arrival rate matches the exponential process.
      const SimTime gap_mean =
          static_cast<SimTime>(options.burst_size) * options.mean_interarrival;
      while (static_cast<int>(arrivals.size()) < num_jobs) {
        t += rng.exponential(gap_mean);
        SimTime at = t;
        for (int b = 0;
             b < options.burst_size &&
             static_cast<int>(arrivals.size()) < num_jobs;
             ++b) {
          arrivals.push_back(at);
          at += options.burst_spacing;
        }
        t = std::max(t, at - options.burst_spacing);
      }
      break;
    }
    case ArrivalProcess::kDiurnal: {
      LTS_REQUIRE(options.diurnal_amplitude >= 0.0 &&
                      options.diurnal_amplitude < 1.0,
                  "draw_arrivals: diurnal_amplitude in [0, 1)");
      LTS_REQUIRE(options.diurnal_period > 0.0,
                  "draw_arrivals: diurnal_period > 0");
      // Rate-modulated renewal process: the instantaneous rate factor is
      // 1 + A * sin(2*pi*t/P), so gaps shrink at the daily peak and stretch
      // in the trough while the long-run mean gap stays mean_interarrival.
      for (int j = 0; j < num_jobs; ++j) {
        const double factor =
            1.0 + options.diurnal_amplitude *
                      std::sin(2.0 * kPi * t / options.diurnal_period);
        t += rng.exponential(options.mean_interarrival) / factor;
        arrivals.push_back(t);
      }
      break;
    }
  }
  // Strictly increasing, so same-tenant arrival events keep queue order.
  for (std::size_t j = 1; j < arrivals.size(); ++j) {
    if (arrivals[j] <= arrivals[j - 1]) {
      arrivals[j] = arrivals[j - 1] + 1e-9;
    }
  }
  return arrivals;
}

namespace {

/// run_tenant_streams' driver, the run's one event target. Its records: a
/// job's arrival and its app's completion (payload: the tenant's index in
/// the options << 32 | the job's index in its plan), the allocation round
/// a completion asks for, and the 5 s retry tick.
class TenantStreams final : public sim::EventTarget {
 public:
  TenantStreams(const std::vector<exp::Scenario>& matrix,
                const TenantStreamsOptions& options);
  ~TenantStreams() { env_.engine().remove_target(target_); }
  TenantStreams(const TenantStreams&) = delete;
  TenantStreams& operator=(const TenantStreams&) = delete;

  /// Schedules every arrival and steps until the last job completes.
  TenantStreamsResult run();

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "TenantStreams"; }

 private:
  enum Code : std::uint8_t { kArrival, kPump, kTick, kComplete };

  struct PlannedJob {
    const exp::Scenario* scenario = nullptr;
    SimTime arrival = 0.0;
    std::uint64_t job_seed = 0;
    std::uint64_t random_draw = 0;  // kRandom's pre-drawn pick
  };

  // Per-tenant runtime state. The plan — arrivals, scenarios, seeds, the
  // kRandom draw — is a function of (options.seed, tenant name, arrival
  // options, matrix) only: identical across sharing modes and across every
  // tenant's level-two policy, so fairness comparisons hold the workload
  // fixed. std::map keys the pump's iteration by tenant name (ordered).
  struct TenantRun {
    std::size_t index = 0;  // in options.tenants
    const TenantStreamOptions* options = nullptr;
    TenantStreamResult* result = nullptr;
    std::vector<PlannedJob> plan;
    /// Job indices awaiting placement, kept sorted ascending (= arrival
    /// order; preempted jobs re-enter at their original position).
    std::vector<std::size_t> pending;
    std::vector<exp::LiveJob> live;
    std::unique_ptr<core::LtsScheduler> scheduler;  // kModel only
    exp::StreamCounters counters;
    obs::Counter* preemptions = nullptr;
  };

  sim::Event job_event(Code code, const TenantRun& run, std::size_t j) const {
    return sim::target_event(target_, code, run.index << 32 | j);
  }
  k8s::Resources free_capacity();
  std::vector<std::string> offered_nodes();
  /// Cancels a running job, releases its pods and accounting, and
  /// re-queues it at its original position in the tenant's queue.
  void evict(const PreemptionVictim& victim);
  /// Attempts to place tenant `name`'s job `j` right now. On success the
  /// job's pods are bound, its usage charged, and its app submitted.
  /// Returns false if the offer could not be used; `count_failure` then
  /// decides whether this counts against the job's retry budget.
  bool try_place(const std::string& name, std::size_t j, bool count_failure);
  /// One pump = repeated allocation rounds until a full round places
  /// nothing. Each round offers the free nodes to tenants hungriest-first
  /// (kDrf) or to the globally earliest pending job (kFifo), head-of-queue
  /// only per tenant; a tenant that cannot use the offer passes it on.
  /// Pumps fire on arrivals, completions, evictions, and the 5 s retry
  /// tick — deferral counting (and the bounded-retry failure) happens only
  /// on arrival/tick pumps, so opportunistic re-checks after completions do
  /// not inflate the retry budget.
  void pump(bool count_failures);
  void complete(TenantRun& run, std::size_t j);

  const TenantStreamsOptions& options_;
  exp::SimEnv env_;
  DrfAllocator alloc_;
  TenantStreamsResult result_;
  std::map<std::string, TenantRun> runs_;
  std::vector<TenantRun*> by_index_;  // runs_ in options.tenants order
  int remaining_ = 0;
  SimTime last_arrival_ = 0.0;
  obs::Counter& offer_rounds_counter_;
  bool tick_scheduled_ = false;
  const std::uint32_t target_;
};

/// DRF shares are measured against the cluster-wide allocatable total.
k8s::Resources allocatable_total(exp::SimEnv& env) {
  k8s::Resources capacity;
  for (const auto& node : env.api().nodes()) {
    capacity = capacity + node.allocatable;
  }
  return capacity;
}

std::vector<TenantSpec> tenant_specs(const TenantStreamsOptions& options) {
  std::vector<TenantSpec> specs;
  specs.reserve(options.tenants.size());
  for (const auto& t : options.tenants) specs.push_back(t.spec);
  return specs;
}

TenantStreams::TenantStreams(const std::vector<exp::Scenario>& matrix,
                             const TenantStreamsOptions& options)
    : options_(options),
      env_(options.seed, options.env),
      alloc_(tenant_specs(options), allocatable_total(env_)),
      offer_rounds_counter_(obs::counter(
          "lts_tenant_offer_rounds_total", {},
          "Two-level allocation rounds with at least one offer")),
      target_(env_.engine().add_target(this)) {
  result_.tenants.resize(options.tenants.size());
  for (std::size_t i = 0; i < options.tenants.size(); ++i) {
    const TenantStreamOptions& topt = options.tenants[i];
    const std::string& name = topt.spec.name;
    TenantStreamResult& tres = result_.tenants[i];
    tres.tenant = name;
    tres.jobs.resize(static_cast<std::size_t>(topt.num_jobs));

    auto [it, inserted] = runs_.emplace(
        name, TenantRun{i, &topt, &tres, {}, {}, {}, nullptr,
                        exp::stream_counters(name), nullptr});
    LTS_REQUIRE(inserted, "run_tenant_streams: duplicate tenant " + name);
    TenantRun& run = it->second;
    by_index_.push_back(&run);
    run.preemptions = &obs::counter(
        "lts_tenant_preemptions_total", {{"tenant", name}},
        "Jobs preempted (cancelled and re-queued) while over quota");

    Rng rng(options.seed ^ name_salt(name) ^ 0x57AE57AEULL);
    const auto arrivals =
        draw_arrivals(topt.num_jobs, topt.arrivals, rng, exp::kWarmup);
    const std::uint64_t tenant_seed = options.seed ^ name_salt(name);
    run.plan.reserve(arrivals.size());
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      run.plan.push_back(PlannedJob{
          &exp::sample_scenario(matrix, rng), arrivals[j],
          tenant_seed * 1000003ULL + static_cast<std::uint64_t>(j), rng()});
      tres.jobs[j].scenario_id = run.plan[j].scenario->id;
      tres.jobs[j].planned_arrival = arrivals[j];
      last_arrival_ = std::max(last_arrival_, arrivals[j]);
    }
    run.live.resize(arrivals.size());
    if (topt.policy == exp::StreamPolicy::kModel) {
      run.scheduler = std::make_unique<core::LtsScheduler>(
          core::TelemetryFetcher(env_.tsdb(), env_.node_names(),
                                 options.env.snapshot),
          topt.model, options.features);
    }
    remaining_ += topt.num_jobs;
  }
}

TenantStreamsResult TenantStreams::run() {
  for (auto& [name, run] : runs_) {
    for (std::size_t j = 0; j < run.plan.size(); ++j) {
      env_.engine().schedule_at(run.plan[j].arrival,
                                job_event(kArrival, run, j));
    }
  }

  while (remaining_ > 0) {
    LTS_REQUIRE(env_.engine().step(),
                "run_tenant_streams: engine drained early");
    LTS_REQUIRE(env_.engine().now() < last_arrival_ + 14400.0,
                "run_tenant_streams: streams failed to complete");
  }

  alloc_.integrate_to(env_.engine().now());
  for (auto& tres : result_.tenants) {
    tres.share_integral = alloc_.share_integral(tres.tenant);
    SimTime last_finish = 0.0;
    tres.makespan = exp::makespan(tres.jobs, &last_finish);
    result_.horizon = std::max(result_.horizon, last_finish);
  }
  result_.jain_share = alloc_.time_averaged_jain();
  return std::move(result_);
}

void TenantStreams::on_event(const sim::Event& event) {
  if (event.code == kPump || event.code == kTick) {
    if (event.code == kTick) tick_scheduled_ = false;
    pump(/*count_failures=*/event.code == kTick);
    return;
  }
  TenantRun& run = *by_index_[event.payload >> 32];
  const std::size_t j = event.payload & 0xffffffffULL;
  if (event.code == kComplete) {
    complete(run, j);
    return;
  }
  run.pending.insert(
      std::lower_bound(run.pending.begin(), run.pending.end(), j), j);
  pump(true);
}

void TenantStreams::complete(TenantRun& run, std::size_t j) {
  const std::string& name = run.options->spec.name;
  run.live[j].finish(env_.api(), run.result->jobs[j]);
  alloc_.release(name, job_key(j), env_.engine().now());
  run.counters.jobs_completed.inc();
  --remaining_;
  // Freed capacity: run another allocation round, as a record of its own
  // after every event already queued at this instant. Running it inline
  // would reorder those events against the round's placements.
  env_.engine().schedule_in(0.0, sim::target_event(target_, kPump));
}

k8s::Resources TenantStreams::free_capacity() {
  k8s::Resources free;
  for (const auto& node : env_.api().nodes()) {
    if (!node.ready) continue;
    const k8s::Resources headroom = node.allocatable - node.requested;
    free.cpu += std::max(0.0, headroom.cpu);
    free.memory += std::max(0.0, headroom.memory);
  }
  return free;
}

std::vector<std::string> TenantStreams::offered_nodes() {
  std::vector<std::string> offered;
  for (const auto& node : env_.api().nodes()) {
    const k8s::Resources headroom = node.allocatable - node.requested;
    if (node.ready && headroom.cpu > 0.0 && headroom.memory > 0.0) {
      offered.push_back(node.name);
    }
  }
  return offered;
}

void TenantStreams::evict(const PreemptionVictim& victim) {
  TenantRun& run = runs_.at(victim.tenant);
  const std::size_t j = std::stoul(victim.job.substr(4));
  exp::LiveJob& live = run.live[j];
  LTS_ASSERT(live.app != nullptr);
  live.app->cancel();
  live.app.reset();
  live.unbind(env_.api());
  alloc_.release(victim.tenant, victim.job, env_.engine().now());
  run.pending.insert(
      std::lower_bound(run.pending.begin(), run.pending.end(), j), j);
  ++run.result->jobs[j].preemptions;
  ++run.result->preemptions_suffered;
  ++result_.total_preemptions;
  run.preemptions->inc();
}

bool TenantStreams::try_place(const std::string& name, std::size_t j,
                              bool count_failure) {
  TenantRun& run = runs_.at(name);
  const PlannedJob& planned = run.plan[j];
  const spark::JobConfig& config = planned.scenario->config;
  const k8s::Resources demand = job_demand(config);
  const QosClass qos = alloc_.classify(name, demand);
  // Newest-first eviction among a tenant's own jobs: later jobs carry
  // lower priority.
  const int priority = -static_cast<int>(j);
  const std::string pod_prefix =
      strformat("%s-%zu-%.0f", name.c_str(), j, env_.engine().now());

  k8s::ScheduleResult last_attempt;
  // Placement loop. The first iteration is a straight attempt; for a
  // Guaranteed job under kDrf on a *counted* attempt, failures escalate
  // through evictions — first the aggregate preemption plan, then, if
  // aggregate free capacity covers the demand but per-node packing still
  // fails (fragmentation: evicted 1-core pods leave holes a bigger
  // executor cannot use), one remaining candidate at a time. Each
  // iteration either returns, breaks, or evicts at least one charged
  // job, so the loop terminates. Gating on count_failure matters for
  // liveness: an uncounted pump round that evicted without placing would
  // let the victim re-place into the freed hole in the same round,
  // restoring the exact prior state — an infinite allocation loop at one
  // simulated instant. Counted attempts happen at most once per retry
  // tick, so eviction work is paced by simulated time and the bounded
  // retry budget still catches a genuinely unplaceable guaranteed job.
  bool bulk_planned = false;
  for (;;) {
    const auto offered = offered_nodes();
    bool placed = false;
    if (offered.empty()) {
      last_attempt = {};
      for (const auto& node : env_.node_names()) {
        last_attempt.rejected.emplace_back(
            node, "not offered: no unreserved capacity");
      }
    } else {
      const std::set<std::string> offer_set(offered.begin(), offered.end());
      std::string driver;
      bool have_driver = false;
      switch (run.options->policy) {
        case exp::StreamPolicy::kModel: {
          telemetry::ClusterSnapshot snapshot =
              run.scheduler->fetcher().fetch(env_.engine().now());
          snapshot.nodes.erase(
              std::remove_if(snapshot.nodes.begin(), snapshot.nodes.end(),
                             [&](const telemetry::NodeTelemetry& n) {
                               return offer_set.count(n.node) == 0;
                             }),
              snapshot.nodes.end());
          driver =
              run.scheduler->schedule_from_snapshot(snapshot, config)
                  .selected();
          have_driver = true;
          break;
        }
        case exp::StreamPolicy::kKubeDefault: {
          auto pod = core::JobBuilder::driver_pod(config, pod_prefix, "");
          pod.node_affinity = k8s::NodeAffinity{offered};
          const auto ranking = env_.kube_scheduler().schedule(pod);
          if (!ranking.feasible()) {
            last_attempt = ranking;
          } else {
            driver = ranking.selected();
            have_driver = true;
          }
          break;
        }
        case exp::StreamPolicy::kRandom:
          driver = offered[planned.random_draw % offered.size()];
          have_driver = true;
          break;
        case exp::StreamPolicy::kModelRetrain:
          LTS_ASSERT(false);  // rejected at options validation
      }

      if (have_driver) {
        const auto failed = exp::launch_job(
            env_, {config, pod_prefix, driver, planned.job_seed, &offered},
            run.live[j], job_event(kComplete, run, j));
        if (failed) {
          last_attempt = *failed;
        } else {
          alloc_.charge(name, job_key(j), demand, qos, priority,
                       env_.engine().now());
          placed = true;
        }
      }
    }

    if (placed) return true;
    if (!count_failure || options_.sharing != SharingMode::kDrf ||
        qos != QosClass::kGuaranteed) {
      break;
    }
    const k8s::Resources free = free_capacity();
    if (!bulk_planned) {
      bulk_planned = true;
      const auto victims = alloc_.plan_preemption(name, demand, free);
      if (!victims.empty()) {
        for (const auto& victim : victims) evict(victim);
        continue;  // retry against the freed capacity
      }
    }
    if (demand.cpu > free.cpu || demand.memory > free.memory) {
      break;  // genuinely insufficient: nothing left worth evicting
    }
    // Aggregate capacity covers the demand yet packing failed —
    // fragmentation. Evict the next candidate (re-queried each time, so
    // a tenant dropping back within quota regains protection) and retry.
    const auto candidates = alloc_.preemption_candidates(name);
    if (candidates.empty()) break;
    evict(candidates.front());
  }

  if (count_failure) {
    TenantJobResult& job = run.result->jobs[j];
    ++job.placement_retries;
    run.counters.placement_retries.inc();
    if (job.placement_retries > exp::kMaxPlacementRetries) {
      throw Error(
          strformat("run_tenant_streams: tenant %s job %zu (%s) still "
                    "unplaceable after %d retries [%s]; per-node "
                    "rejections of the last attempt:",
                    name.c_str(), j, run.plan[j].scenario->id.c_str(),
                    exp::kMaxPlacementRetries,
                    exp::describe_job_config(config).c_str()) +
          exp::describe_rejections(last_attempt));
    }
  }
  return false;
}

void TenantStreams::pump(bool count_failures) {
  for (int round = 0;; ++round) {
    std::vector<std::string> hungry;
    for (const auto& [name, run] : runs_) {
      if (!run.pending.empty()) hungry.push_back(name);
    }
    if (hungry.empty()) break;
    ++result_.offer_rounds;
    offer_rounds_counter_.inc();

    std::vector<std::string> order;
    if (options_.sharing == SharingMode::kDrf) {
      order = alloc_.offer_order(std::move(hungry));
    } else {
      // Unweighted FIFO: the offer goes to the tenant whose head-of-queue
      // job has waited longest, regardless of shares.
      order = std::move(hungry);
      std::sort(order.begin(), order.end(),
                [&](const std::string& a, const std::string& b) {
                  const TenantRun& ra = runs_.at(a);
                  const TenantRun& rb = runs_.at(b);
                  const SimTime aa =
                      ra.plan[ra.pending.front()].arrival;
                  const SimTime ab =
                      rb.plan[rb.pending.front()].arrival;
                  if (aa != ab) return aa < ab;
                  return a < b;
                });
    }

    bool progress = false;
    for (const auto& name : order) {
      TenantRun& run = runs_.at(name);
      if (run.pending.empty()) continue;  // drained by a preemption requeue
      const std::size_t j = run.pending.front();
      if (try_place(name, j, count_failures && round == 0)) {
        run.pending.erase(run.pending.begin());
        progress = true;
      }
    }
    if (!progress) break;
  }

  bool backlog = false;
  for (const auto& [name, run] : runs_) backlog |= !run.pending.empty();
  if (backlog && !tick_scheduled_) {
    tick_scheduled_ = true;
    env_.engine().schedule_in(exp::kRetryDelay,
                              sim::target_event(target_, kTick));
  }
}

}  // namespace

TenantStreamsResult run_tenant_streams(const std::vector<exp::Scenario>& matrix,
                                       const TenantStreamsOptions& options) {
  LTS_REQUIRE(!options.tenants.empty(), "run_tenant_streams: no tenants");
  for (const auto& t : options.tenants) {
    LTS_REQUIRE(t.num_jobs >= 1, "run_tenant_streams: tenant " + t.spec.name +
                                     " num_jobs >= 1");
    LTS_REQUIRE(t.policy != exp::StreamPolicy::kModelRetrain,
                "run_tenant_streams: kModelRetrain is single-tenant only");
    if (t.policy == exp::StreamPolicy::kModel) {
      LTS_REQUIRE(t.model != nullptr && t.model->is_fitted(),
                  "run_tenant_streams: tenant " + t.spec.name +
                      " uses kModel but has no fitted model");
    }
  }
  return TenantStreams(matrix, options).run();
}

std::vector<TenantSummary> summarize_tenants(
    const TenantStreamsResult& result) {
  std::vector<TenantSummary> summaries;
  summaries.reserve(result.tenants.size());
  for (const auto& tres : result.tenants) {
    TenantSummary s;
    s.tenant = tres.tenant;
    s.jobs = tres.jobs.size();
    s.preemptions_suffered = tres.preemptions_suffered;
    s.share_integral = tres.share_integral;
    std::vector<double> durations;
    std::vector<double> queueing;
    for (const auto& job : tres.jobs) {
      durations.push_back(job.duration);
      queueing.push_back(job.queueing_delay);
      s.placement_retries += static_cast<std::size_t>(job.placement_retries);
    }
    if (!durations.empty()) {
      s.mean_jct = mean(durations);
      s.p95_jct = percentile(durations, 95);
      s.mean_queueing_delay = mean(queueing);
      s.p95_queueing_delay = percentile(queueing, 95);
    }
    summaries.push_back(std::move(s));
  }
  return summaries;
}

}  // namespace lts::tenant
