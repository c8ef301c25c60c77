// Scenario matrix: the paper's 60 distinct job configurations (§5.2) across
// the four application/shuffle-pattern variants, covering a range of input
// sizes, executor counts and memory allocations.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "spark/job.hpp"
#include "util/rng.hpp"

namespace lts::exp {

struct Scenario {
  std::string id;           // e.g. "sort-07"
  spark::JobConfig config;
};

/// The 60-configuration matrix: 15 per application (sort, pagerank, join,
/// groupby) = input sizes {1e5, 2.5e5, 5e5, 1e6, 2e6} x executors {2, 4, 6},
/// with memory, partitions, iterations and skew varied deterministically
/// across the grid.
std::vector<Scenario> paper_scenario_matrix();

/// Extension scenarios (§8 future-work applications): 12 configurations of
/// the distributed-ML-pipeline and multi-stage-streaming apps. These app
/// types are NOT in the paper's matrix, so a model trained on
/// paper_scenario_matrix() sees them as the all-zero app one-hot — the
/// generalization experiment of bench_ext_workloads.
std::vector<Scenario> extension_scenario_matrix();

/// Draws one scenario uniformly from the matrix.
const Scenario& sample_scenario(const std::vector<Scenario>& matrix,
                                Rng& rng);

/// Knobs for a randomized-but-deterministic fault schedule (the
/// fault-injection experiments of bench_ext_faults).
struct FaultScheduleOptions {
  /// Mean number of faults injected per 100 simulated seconds; the
  /// escalation knob the bench sweeps.
  double faults_per_100s = 1.0;
  /// Faults are injected in [start, start + horizon). `start` should be at
  /// or after the environment's warmup so schedulers decide under faults,
  /// not before telemetry exists.
  SimTime start = 40.0;
  SimTime horizon = 600.0;
  /// Node crashes hang any job whose pods they host — fine for a live
  /// stream (the job just takes forever... bounded by recovery), fatal for
  /// counterfactual ground-truth replays, which must run each candidate
  /// placement to completion. Accuracy experiments keep this off.
  bool include_crashes = false;
};

/// Deterministically generates a fault schedule against `spec`'s nodes,
/// sites and WAN links. Same (spec, seed, options) -> same schedule, so the
/// identical fault timeline can be replayed under every scheduler policy.
std::vector<fault::FaultSpec> generate_fault_schedule(
    const cluster::ClusterSpec& spec, std::uint64_t seed,
    const FaultScheduleOptions& options = {});

}  // namespace lts::exp
