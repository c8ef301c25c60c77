#include "exp/envgen.hpp"

#include "spark/workloads.hpp"
#include "util/string_util.hpp"

namespace lts::exp {

namespace {

// Chain-of-distance RTT mesh: rtt(a, b) = min(kRttBase + kRttPerHop *
// (b - a), kRttMax), like a string of geographically spread sites, over
// pairwise WAN links of kWanCapacityBps per direction.
constexpr SimTime kRttBase = 0.008;
constexpr SimTime kRttPerHop = 0.014;
constexpr SimTime kRttMax = 0.090;
constexpr Rate kWanCapacityBps = 600e6;

// System-reserved resources subtracted from node capacity to form the
// Kubernetes allocatable values.
constexpr double kCpuReserve = 0.5;
constexpr Bytes kMemoryReserve = 1.0 * 1024 * 1024 * 1024;

// Per-node resident system-daemon CPU demand, drawn per environment in
// [min, max].
constexpr double kMinDaemonCpu = 0.2;
constexpr double kMaxDaemonCpu = 2.0;

// Abort guard: a job exceeding this much simulated time is a bug.
constexpr SimTime kMaxJobDuration = 1800.0;

// Seconds between the steps of a drift staircase.
constexpr SimTime kDriftStepInterval = 90.0;
static_assert(kDriftStepInterval > 0.0);

}  // namespace

cluster::ClusterSpec scaled_cluster_spec(int sites, int nodes_per_site) {
  // The shape comes from outside input (lts topology --sites/
  // --nodes-per-site), so it is bounded rather than clamped: far past the
  // testbed's scale the flow model's constants stop meaning anything.
  LTS_REQUIRE(sites >= 1 && sites <= 512,
              "scaled_cluster_spec: sites must be in [1, 512]");
  LTS_REQUIRE(nodes_per_site >= 1 && nodes_per_site <= 4096,
              "scaled_cluster_spec: nodes_per_site must be in [1, 4096]");
  LTS_REQUIRE(static_cast<long long>(sites) * nodes_per_site <= 100000,
              "scaled_cluster_spec: total nodes must be <= 100000");

  cluster::ClusterSpec spec = cluster::paper_cluster_spec();
  spec.sites.clear();
  spec.wan_links.clear();
  int node = 0;
  for (int s = 0; s < sites; ++s) {
    cluster::SiteSpec site;
    site.name = "site-" + std::to_string(s + 1);
    for (int n = 0; n < nodes_per_site; ++n) {
      site.node_names.push_back("node-" + std::to_string(++node));
    }
    spec.sites.push_back(std::move(site));
  }
  for (int a = 0; a < sites; ++a) {
    for (int b = a + 1; b < sites; ++b) {
      cluster::WanLinkSpec wan;
      wan.site_a = "site-" + std::to_string(a + 1);
      wan.site_b = "site-" + std::to_string(b + 1);
      wan.rtt = std::min(kRttBase + kRttPerHop * static_cast<double>(b - a),
                         kRttMax);
      wan.capacity_bps = kWanCapacityBps;
      spec.wan_links.push_back(wan);
    }
  }
  return spec;
}

std::vector<fault::FaultSpec> generate_drift_schedule(
    const cluster::ClusterSpec& spec, std::uint64_t seed,
    const DriftScheduleOptions& options) {
  LTS_REQUIRE(options.drift_links >= 1,
              "generate_drift_schedule: drift_links >= 1");
  LTS_REQUIRE(
      options.max_capacity_cut >= 0.0 && options.max_capacity_cut < 1.0,
      "generate_drift_schedule: max_capacity_cut in [0, 1)");
  LTS_REQUIRE(options.max_rtt_spike >= 0.0,
              "generate_drift_schedule: max_rtt_spike >= 0");

  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0xd81f);

  if (spec.wan_links.empty()) {
    // Single-site shapes (scaled_cluster_spec(1, N)) have no WAN links to
    // drift. Degrade gracefully to intra-site drift: permanent capacity
    // cuts on a sample of node access links, escalating on the same
    // staircase. RTT spikes are skipped — they are defined on WAN site
    // pairs — so the caller must have asked for a capacity component at
    // all.
    LTS_REQUIRE(options.max_capacity_cut > 0.0,
                "generate_drift_schedule: topology has no WAN links and "
                "max_capacity_cut is 0 — nothing can drift");
    std::vector<std::string> node_names;
    for (const auto& site : spec.sites) {
      node_names.insert(node_names.end(), site.node_names.begin(),
                        site.node_names.end());
    }
    LTS_REQUIRE(!node_names.empty(),
                "generate_drift_schedule: cluster has no WAN links and no "
                "nodes");
    const std::size_t n_nodes =
        std::min<std::size_t>(static_cast<std::size_t>(options.drift_links),
                              node_names.size());
    const auto chosen_nodes =
        rng.sample_without_replacement(node_names.size(), n_nodes);
    std::vector<fault::FaultSpec> schedule;
    schedule.reserve(n_nodes * static_cast<std::size_t>(kDriftSteps));
    for (int step = 1; step <= kDriftSteps; ++step) {
      const SimTime at = options.start +
                         static_cast<double>(step - 1) * kDriftStepInterval;
      const double scale =
          static_cast<double>(step) / static_cast<double>(kDriftSteps);
      for (const std::size_t node_idx : chosen_nodes) {
        fault::FaultSpec cut;
        cut.kind = fault::FaultKind::kNodeLinkDegrade;
        cut.target = node_names[node_idx];
        cut.at = at;
        cut.duration = 0.0;  // permanent: drift does not heal
        cut.severity = options.max_capacity_cut * scale;
        schedule.push_back(std::move(cut));
      }
    }
    return schedule;
  }
  const std::size_t n_links =
      std::min<std::size_t>(static_cast<std::size_t>(options.drift_links),
                            spec.wan_links.size());
  const auto chosen =
      rng.sample_without_replacement(spec.wan_links.size(), n_links);

  std::vector<fault::FaultSpec> schedule;
  schedule.reserve(n_links * static_cast<std::size_t>(kDriftSteps) * 2);
  for (int step = 1; step <= kDriftSteps; ++step) {
    const SimTime at =
        options.start + static_cast<double>(step - 1) * kDriftStepInterval;
    const double scale =
        static_cast<double>(step) / static_cast<double>(kDriftSteps);
    for (const std::size_t link_idx : chosen) {
      const auto& wan = spec.wan_links[link_idx];
      const std::string target = wan.site_a + ":" + wan.site_b;
      if (options.max_capacity_cut > 0.0) {
        fault::FaultSpec cut;
        cut.kind = fault::FaultKind::kLinkDegrade;
        cut.target = target;
        cut.at = at;
        cut.duration = 0.0;  // permanent: drift does not heal
        cut.severity = options.max_capacity_cut * scale;
        schedule.push_back(std::move(cut));
      }
      if (options.max_rtt_spike > 0.0) {
        fault::FaultSpec spike;
        spike.kind = fault::FaultKind::kRttSpike;
        spike.target = target;
        spike.at = at;
        spike.duration = 0.0;
        spike.severity = options.max_rtt_spike * scale;
        schedule.push_back(std::move(spike));
      }
    }
  }
  return schedule;
}

SimEnv::SimEnv(std::uint64_t seed, EnvOptions options)
    : seed_(seed),
      options_(std::move(options)),
      kube_scheduler_(api_, seed_ ^ 0xcafef00dULL) {
  Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 0x1234);

  // Per-node heterogeneity (see EnvOptions): drawn before construction so
  // the ping mesh measures it from the first probe.
  cluster::ClusterSpec spec = options_.cluster_spec;
  if (spec.node_access_extra_delay.empty() &&
      options_.max_node_extra_delay > 0.0) {
    const std::size_t total_nodes = spec.num_nodes();
    for (std::size_t i = 0; i < total_nodes; ++i) {
      spec.node_access_extra_delay.push_back(
          rng.uniform(0.0, options_.max_node_extra_delay));
    }
  }
  cluster_ = std::make_unique<cluster::Cluster>(engine_, spec);
  node_names_ = cluster_->node_names();
  stack_ = std::make_unique<telemetry::TelemetryStack>(*cluster_, rng.split());

  // Register nodes with the API server; allocatable = capacity - reserved.
  for (std::size_t i = 0; i < cluster_->num_nodes(); ++i) {
    const auto& node = cluster_->node(i);
    api_.register_node(
        node.name(),
        k8s::Resources{node.cores() - kCpuReserve,
                       node.memory_capacity() - kMemoryReserve},
        {{"topology.kubernetes.io/zone", node.site()},
         {"kubernetes.io/hostname", node.name()}});
  }
  faults_ = std::make_unique<fault::FaultInjector>(*cluster_, stack_.get(),
                                                   &api_);
  faults_->apply_all(options_.faults);

  // Resident system daemons (kubelet, exporters, OS services): a small
  // persistent CPU demand per node, visible in the load average.
  for (std::size_t i = 0; i < cluster_->num_nodes(); ++i) {
    cluster_->node(i).cpu().add_persistent(
        rng.uniform(kMinDaemonCpu, kMaxDaemonCpu));
  }

  // Background contention pods (§5.2), bound through the API server so the
  // default scheduler sees their requests — but crucially not their traffic.
  Rng bg_rng = rng.split();
  const int n_bg = static_cast<int>(bg_rng.uniform_int(
      options_.min_background_pods, options_.max_background_pods));
  const auto n_nodes = static_cast<std::int64_t>(cluster_->num_nodes());
  for (int b = 0; b < n_bg; ++b) {
    const auto client =
        static_cast<std::size_t>(bg_rng.uniform_int(0, n_nodes - 1));
    std::size_t server =
        static_cast<std::size_t>(bg_rng.uniform_int(0, n_nodes - 2));
    if (server >= client) ++server;
    cluster::BackgroundLoadOptions bg_opts;
    bg_opts.parallel_fetches = static_cast<int>(bg_rng.uniform_int(
        options_.min_parallel_fetches, options_.max_parallel_fetches));
    bg_opts.client_memory =
        bg_rng.uniform(0.5, 2.5) * 1024 * 1024 * 1024;
    bg_opts.server_memory =
        bg_rng.uniform(0.25, 1.0) * 1024 * 1024 * 1024;

    // BestEffort pods: no resource requests, exactly like an ad-hoc curl
    // pod. The default scheduler therefore cannot see this load at all —
    // the §3.1 blindness the paper's baseline suffers from.
    k8s::PodSpec client_pod;
    client_pod.name = strformat("bg-%d-client", b);
    client_pod.labels["app"] = "background-curl";
    api_.bind(client_pod, node_names_[client]);
    k8s::PodSpec server_pod;
    server_pod.name = strformat("bg-%d-server", b);
    server_pod.labels["app"] = "background-http";
    api_.bind(server_pod, node_names_[server]);

    auto load = std::make_unique<cluster::BackgroundLoad>(
        *cluster_, client, server, bg_opts, bg_rng.split());
    load->start_in(bg_rng.uniform(0.0, 5.0));
    background_.push_back(std::move(load));
  }
}

SimEnv::SimEnv(const SimEnv& other)
    : seed_(other.seed_),
      options_(other.options_),
      engine_(other.engine_),
      cluster_(std::make_unique<cluster::Cluster>(*other.cluster_, engine_)),
      stack_(std::make_unique<telemetry::TelemetryStack>(*other.stack_,
                                                         *cluster_)),
      api_(other.api_),
      kube_scheduler_(other.kube_scheduler_, api_),
      faults_(std::make_unique<fault::FaultInjector>(
          *other.faults_, *cluster_, stack_.get(), &api_)),
      node_names_(other.node_names_),
      warmed_up_(other.warmed_up_),
      job_counter_(other.job_counter_) {
  background_.reserve(other.background_.size());
  for (const auto& load : other.background_) {
    background_.push_back(
        std::make_unique<cluster::BackgroundLoad>(*load, *cluster_));
  }
  engine_.require_rebound(other.engine_);
}

void SimEnv::warmup() {
  if (warmed_up_) return;
  engine_.run_until(kWarmup);
  warmed_up_ = true;
}

telemetry::ClusterSnapshot SimEnv::snapshot() const {
  return telemetry::build_snapshot(stack_->tsdb(), node_names_,
                                   engine_.now(), options_.snapshot);
}

const cluster::BackgroundLoad& SimEnv::background_pod(std::size_t i) const {
  LTS_REQUIRE(i < background_.size(), "SimEnv: background index");
  return *background_[i];
}

k8s::ScheduleResult SimEnv::kube_ranking(const spark::JobConfig& config) {
  const auto pod = core::JobBuilder::driver_pod(
      config, strformat("probe-%d", job_counter_), /*pinned_node=*/"");
  // A fresh scheduler instance: the probe must not consume (or correlate
  // with) the tie-break stream used for real pod placement.
  k8s::DefaultScheduler probe_scheduler(api_, seed_ ^ 0xba5e11e0ULL);
  return probe_scheduler.schedule(pod);
}

spark::AppResult SimEnv::run_job(const spark::JobConfig& config,
                                 std::size_t driver_node,
                                 std::uint64_t job_seed) {
  LTS_REQUIRE(driver_node < cluster_->num_nodes(),
              "SimEnv: driver node out of range");
  const std::string job_name = strformat("job-%d", ++job_counter_);

  // Bind the driver where the scheduler-under-test decided (nodeAffinity);
  // the Spark operator creates the driver pod first, executors follow.
  const auto driver_pod = core::JobBuilder::driver_pod(
      config, job_name, node_names_[driver_node]);
  api_.bind(driver_pod, node_names_[driver_node]);

  // Executors go through the default scheduler, one by one (§4: "executor
  // pods are placed independently by the default Kubernetes scheduler").
  std::vector<std::size_t> executor_nodes;
  std::vector<std::string> bound_pods{driver_pod.name};
  executor_nodes.reserve(static_cast<std::size_t>(config.executors));
  for (int e = 0; e < config.executors; ++e) {
    const auto pod = core::JobBuilder::executor_pod(config, job_name, e);
    const auto result = kube_scheduler_.schedule(pod);
    LTS_REQUIRE(result.feasible(),
                "SimEnv: no feasible node for executor pod");
    api_.bind(pod, result.selected());
    bound_pods.push_back(pod.name);
    executor_nodes.push_back(cluster_->node_index(result.selected()));
  }

  const auto app = make_app(config, driver_node, executor_nodes, job_seed);
  app->submit();
  const SimTime deadline = engine_.now() + kMaxJobDuration;
  while (!app->result().completed) {
    LTS_REQUIRE(engine_.step(), "SimEnv: event queue drained mid-job");
    LTS_REQUIRE(engine_.now() <= deadline,
                "SimEnv: job exceeded kMaxJobDuration");
  }

  for (const auto& pod_name : bound_pods) {
    api_.remove_pod(pod_name);
  }
  return app->result();
}

std::unique_ptr<spark::SparkApp> SimEnv::make_app(
    const spark::JobConfig& config, std::size_t driver_node,
    const std::vector<std::size_t>& executor_nodes, std::uint64_t job_seed) {
  Rng dag_rng(job_seed * 0x2545f4914f6cdd1dULL + 0x9e37);
  auto dag = spark::build_dag(config, dag_rng);
  Rng app_rng(job_seed * 0xda942042e4dd58b5ULL + 0x7f4a);
  return std::make_unique<spark::SparkApp>(*cluster_, config, std::move(dag),
                                           driver_node, executor_nodes,
                                           app_rng);
}

}  // namespace lts::exp
