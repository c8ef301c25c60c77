#include "exp/scenario.hpp"

#include "util/string_util.hpp"

namespace lts::exp {

namespace {

// Injected fault lifetimes are exponential with this mean, floored at 5 s.
constexpr SimTime kMeanFaultDuration = 45.0;

}  // namespace

std::vector<Scenario> paper_scenario_matrix() {
  std::vector<Scenario> out;
  const spark::AppType apps[] = {spark::AppType::kSort,
                                 spark::AppType::kPageRank,
                                 spark::AppType::kJoin,
                                 spark::AppType::kGroupBy};
  const std::int64_t input_sizes[] = {100000, 250000, 500000, 1000000,
                                      2000000};
  const int executor_counts[] = {2, 4, 6};

  for (const auto app : apps) {
    int index = 0;
    for (const auto records : input_sizes) {
      for (const auto executors : executor_counts) {
        Scenario s;
        s.id = strformat("%s-%02d", spark::to_string(app), ++index);
        s.config.app = app;
        s.config.input_records = records;
        s.config.record_bytes = 200.0;
        s.config.executors = executors;
        s.config.executor_cores = (index % 2 == 0) ? 2.0 : 1.0;
        // Alternate memory allocations so some configurations run tight
        // (spill-prone) and others comfortable.
        s.config.executor_memory = (index % 3 == 0)
                                       ? 768.0 * 1024 * 1024
                                       : 1536.0 * 1024 * 1024;
        s.config.driver_cores = 1.0;
        s.config.driver_memory = 1024.0 * 1024 * 1024;
        s.config.shuffle_partitions = 0;  // engine default
        if (app == spark::AppType::kPageRank) {
          s.config.iterations = 2 + (index % 3);  // 2..4
        }
        if (app == spark::AppType::kJoin) {
          s.config.join_skew = 1.1 + 0.1 * (index % 5);  // 1.1..1.5
        }
        out.push_back(std::move(s));
      }
    }
  }
  LTS_ASSERT(out.size() == 60);
  return out;
}

std::vector<Scenario> extension_scenario_matrix() {
  std::vector<Scenario> out;
  const spark::AppType apps[] = {spark::AppType::kMlPipeline,
                                 spark::AppType::kStreaming};
  const std::int64_t input_sizes[] = {250000, 500000, 1000000};
  for (const auto app : apps) {
    int index = 0;
    for (const auto records : input_sizes) {
      for (const int executors : {3, 5}) {
        Scenario s;
        s.id = strformat("%s-%02d", spark::to_string(app), ++index);
        s.config.app = app;
        s.config.input_records = records;
        s.config.record_bytes = 200.0;
        s.config.executors = executors;
        s.config.executor_memory = 1536.0 * 1024 * 1024;
        s.config.iterations = 2 + (index % 2);
        out.push_back(std::move(s));
      }
    }
  }
  LTS_ASSERT(out.size() == 12);
  return out;
}

const Scenario& sample_scenario(const std::vector<Scenario>& matrix,
                                Rng& rng) {
  LTS_REQUIRE(!matrix.empty(), "sample_scenario: empty matrix");
  const auto idx = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(matrix.size()) - 1));
  return matrix[idx];
}

std::vector<fault::FaultSpec> generate_fault_schedule(
    const cluster::ClusterSpec& spec, std::uint64_t seed,
    const FaultScheduleOptions& options) {
  LTS_REQUIRE(options.faults_per_100s >= 0.0,
              "generate_fault_schedule: negative rate");
  LTS_REQUIRE(options.horizon > 0.0, "generate_fault_schedule: horizon > 0");

  std::vector<std::string> node_names;
  for (const auto& site : spec.sites) {
    for (const auto& name : site.node_names) node_names.push_back(name);
  }
  LTS_REQUIRE(!node_names.empty(), "generate_fault_schedule: no nodes");

  Rng rng(seed * 0x6a09e667f3bcc909ULL + 0xfa17);
  auto pick_node = [&] {
    return node_names[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(node_names.size()) - 1))];
  };
  auto pick_link = [&] {
    const auto& wan = spec.wan_links[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.wan_links.size()) - 1))];
    return wan.site_a + ":" + wan.site_b;
  };

  const int count = static_cast<int>(
      options.faults_per_100s * options.horizon / 100.0 + 0.5);
  std::vector<fault::FaultSpec> schedule;
  schedule.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    fault::FaultSpec fault;
    fault.at = options.start + rng.uniform(0.0, options.horizon);
    fault.duration = std::max(5.0, rng.exponential(kMeanFaultDuration));

    // Kind mix: mostly link trouble and telemetry trouble, the occasional
    // whole-site partition (drastic, so rare even when the schedule is
    // dense), and crashes only when the consumer can survive them.
    const double kind_draw = rng.uniform();
    if (!spec.wan_links.empty() && kind_draw < 0.08) {
      fault.kind = fault::FaultKind::kSitePartition;
      const auto& site = spec.sites[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.sites.size()) - 1))];
      fault.target = site.name;
    } else if (options.include_crashes && kind_draw < 0.20) {
      fault.kind = fault::FaultKind::kNodeCrash;
      fault.target = pick_node();
    } else if (!spec.wan_links.empty() && kind_draw < 0.50) {
      fault.kind = fault::FaultKind::kLinkDegrade;
      fault.target = pick_link();
      fault.severity = rng.uniform(0.5, 0.95);  // cut most of the capacity
    } else if (!spec.wan_links.empty() && kind_draw < 0.70) {
      fault.kind = fault::FaultKind::kRttSpike;
      fault.target = pick_link();
      fault.severity = rng.uniform(0.010, 0.060);  // +10..60 ms one-way
    } else if (kind_draw < 0.88) {
      fault.kind = fault::FaultKind::kExporterSilence;
      fault.target = pick_node();
    } else {
      fault.kind = fault::FaultKind::kExporterDelay;
      fault.target = pick_node();
      fault.severity = rng.uniform(5.0, 25.0);  // seconds of reporting lag
    }
    schedule.push_back(std::move(fault));
  }
  return schedule;
}

}  // namespace lts::exp
