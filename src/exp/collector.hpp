// Batch data collector: the §5.2 experiment workflow.
//
// For every job configuration, for every target node, for `repeats`
// repetitions: build a fresh randomized environment, warm it up, snapshot
// telemetry, run the job with the driver pinned on the target node, and log
// (pre-launch telemetry of that node, job config, measured duration). With
// the paper's parameters (60 configs x 6 nodes x 10 repeats) this yields the
// 3600-sample training corpus. Each sample is a pure function of its seed,
// so a configuration's samples run concurrently on ThreadPool::global();
// the log is byte-identical for any pool size.
#pragma once

#include <functional>

#include "core/logger.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"

namespace lts::exp {

struct CollectorOptions {
  int repeats = 10;
  std::uint64_t base_seed = 1000;
  EnvOptions env;
  /// Run one unrecorded job (random config and placement) to completion
  /// before the telemetry snapshot and the measured job. Its residual
  /// traffic contaminates the rate windows exactly the way back-to-back
  /// production jobs do, matching the live-stream distribution (see
  /// bench_ext_e2e_stream). Off by default: the paper's batch workflow
  /// (§5.2) runs jobs in fresh conditions.
  bool residual_job = false;
  /// Called after each sample with (samples done, samples total), on the
  /// calling thread, in log order.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Runs the batch and returns the training log (TrainingLogger schema).
CsvTable collect_training_data(const std::vector<Scenario>& scenarios,
                               const CollectorOptions& options);

/// Deterministic per-sample seed, exposed so tests can reproduce any single
/// sample in isolation.
std::uint64_t sample_seed(const CollectorOptions& options,
                          std::size_t scenario_index, std::size_t target_node,
                          int repeat);

}  // namespace lts::exp
