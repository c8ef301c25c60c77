#include "exp/collector.hpp"

#include "util/thread_pool.hpp"

namespace lts::exp {

std::uint64_t sample_seed(const CollectorOptions& options,
                          std::size_t scenario_index, std::size_t target_node,
                          int repeat) {
  // Distinct well-spread stream per sample; SplitMix-style mixing inside
  // Rng's reseed handles the rest.
  return options.base_seed + 1000003ULL * scenario_index +
         10007ULL * target_node + 101ULL * static_cast<std::uint64_t>(repeat);
}

CsvTable collect_training_data(const std::vector<Scenario>& scenarios,
                               const CollectorOptions& options) {
  LTS_REQUIRE(!scenarios.empty(), "collect_training_data: no scenarios");
  LTS_REQUIRE(options.repeats >= 1, "collect_training_data: repeats >= 1");
  core::TrainingLogger logger;

  const std::size_t num_nodes = options.env.cluster_spec.num_nodes();
  LTS_REQUIRE(num_nodes >= 1, "collect_training_data: cluster has no nodes");
  const auto repeats = static_cast<std::size_t>(options.repeats);
  const std::size_t total = scenarios.size() * num_nodes * repeats;
  std::size_t done = 0;

  // Every sample is a pure function of its seed, so a scenario's
  // nodes x repeats samples run concurrently, each into its own slot; the
  // rows are then logged (and progress reported) on this thread in the
  // serial loop's (target, repeat) order, whatever the pool size.
  struct Sample {
    telemetry::ClusterSnapshot snapshot;
    spark::AppResult result;
  };
  std::vector<Sample> samples(num_nodes * repeats);
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    // lts-lint: shared-guarded(partitioned: item i writes only samples[i]; scenarios and options are read-only)
    ThreadPool::global().parallel_for(samples.size(), [&](std::size_t i) {
      const std::size_t target = i / repeats;
      const int rep = static_cast<int>(i % repeats);
      const std::uint64_t seed = sample_seed(options, s, target, rep);
      SimEnv env(seed, options.env);
      env.warmup();
      if (options.residual_job) {
        Rng residual_rng(seed ^ 0x4e51d0a1ULL);
        const auto& warm = sample_scenario(scenarios, residual_rng);
        const auto node = static_cast<std::size_t>(residual_rng.uniform_int(
            0, static_cast<std::int64_t>(num_nodes) - 1));
        env.run_job(warm.config, node, seed ^ 0x4e51d0a2ULL);
      }
      samples[i].snapshot = env.snapshot();
      samples[i].result = env.run_job(scenario.config, target,
                                      /*job_seed=*/seed ^ 0x5eedf00dULL);
    });
    for (const Sample& sample : samples) {
      logger.log_run(scenario.id, sample.snapshot, scenario.config,
                     sample.result);
      ++done;
      if (options.progress) options.progress(done, total);
    }
  }
  return logger.table();
}

}  // namespace lts::exp
