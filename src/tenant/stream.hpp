// Multi-tenant two-level job streams: DRF offers below, per-tenant
// schedulers above, one shared cluster.
//
// Level one is the DrfAllocator: each allocation round it offers the
// cluster's free nodes to tenants hungriest-first (or in plain arrival
// order under SharingMode::kFifo, the unfair baseline the fairness bench
// compares against). Level two is whatever each tenant brought — the
// paper's prediction-and-ranking scheduler or a baseline policy — run
// against the offered node subset only. A within-quota (Guaranteed) job
// that cannot fit may preempt over-quota BestEffort jobs of other tenants;
// victims are cancelled, unbound, and re-queued at their tenant's head.
//
// Every tenant's job sequence and arrival times are pre-drawn from a
// per-tenant seed stream, so the plan is identical across sharing modes
// and per-tenant policies — exactly the plan-identity discipline of the
// single-tenant run_job_stream, extended to a tenant mix.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "ml/model.hpp"
#include "tenant/drf.hpp"
#include "util/rng.hpp"

namespace lts::tenant {

/// Arrival processes for tenant job streams. All are pre-drawn in full
/// before the stream starts, so arrivals never depend on execution.
enum class ArrivalProcess {
  kExponential,  // Poisson stream (the single-tenant default)
  kBursty,       // bursts of back-to-back jobs, exponential burst gaps
  kDiurnal,      // rate-modulated renewal: sinusoidal day/night cycle
};

struct ArrivalOptions {
  ArrivalProcess process = ArrivalProcess::kExponential;
  /// Long-run mean gap between consecutive jobs, all processes.
  SimTime mean_interarrival = 12.0;

  /// kBursty: jobs arrive in bursts of this size, `burst_spacing` apart;
  /// burst gaps are exponential with mean burst_size * mean_interarrival,
  /// preserving the long-run rate.
  int burst_size = 4;
  SimTime burst_spacing = 1.0;

  /// kDiurnal: instantaneous rate = base * (1 + amplitude * sin(2πt/P)).
  /// Gaps are drawn exponential(mean) and divided by the local rate factor.
  double diurnal_amplitude = 0.6;  // in [0, 1)
  SimTime diurnal_period = 600.0;  // seconds
};

/// Pre-draws `num_jobs` arrival instants starting at `start`, consuming
/// `rng` deterministically. Strictly increasing.
std::vector<SimTime> draw_arrivals(int num_jobs, const ArrivalOptions& options,
                                   Rng& rng, SimTime start);

/// Level-one offer policy.
enum class SharingMode {
  kDrf,   // weighted DRF offers + guaranteed-quota preemption
  kFifo,  // unweighted global arrival order, no preemption (baseline)
};

/// One tenant's stream: its DRF spec, its level-two policy, its workload.
struct TenantStreamOptions {
  TenantSpec spec;
  /// Level-two scheduler. kModelRetrain is not supported here (online
  /// retraining is a single-tenant experiment); kModel needs `model`.
  exp::StreamPolicy policy = exp::StreamPolicy::kKubeDefault;
  std::shared_ptr<const ml::Regressor> model;
  int num_jobs = 10;
  ArrivalOptions arrivals;
};

struct TenantStreamsOptions {
  std::vector<TenantStreamOptions> tenants;
  SharingMode sharing = SharingMode::kDrf;
  std::uint64_t seed = 1;
  exp::EnvOptions env;
  core::FeatureSet features = core::FeatureSet::kTable1;
};

struct TenantJobResult : exp::StreamJobResult {
  /// Times this job was preempted (cancelled and restarted from scratch).
  int preemptions = 0;
};

struct TenantStreamResult {
  std::string tenant;
  std::vector<TenantJobResult> jobs;
  /// Last completion minus first actual submission, this tenant only.
  double makespan = 0.0;
  /// ∫ weighted dominant share dt over the whole run — what DRF equalizes.
  double share_integral = 0.0;
  int preemptions_suffered = 0;
};

struct TenantStreamsResult {
  /// One entry per input tenant, same order.
  std::vector<TenantStreamResult> tenants;
  /// Time-averaged instantaneous Jain index over the tenants' weighted
  /// dominant shares (see DrfAllocator::time_averaged_jain): the run-level
  /// fairness number the bench gates on.
  double jain_share = 0.0;
  /// Simulated end of the run (last completion).
  double horizon = 0.0;
  int total_preemptions = 0;
  /// Allocation rounds in which at least one offer was extended.
  int offer_rounds = 0;
};

/// Runs every tenant's stream against one shared SimEnv under the given
/// sharing mode. Per-tenant plans depend only on (options.seed,
/// tenant name, arrivals, matrix) — never on the sharing mode or on any
/// tenant's policy — so results are directly comparable across modes.
TenantStreamsResult run_tenant_streams(const std::vector<exp::Scenario>& matrix,
                                       const TenantStreamsOptions& options);

/// Per-tenant digest for benches and tests.
struct TenantSummary {
  std::string tenant;
  std::size_t jobs = 0;
  double mean_jct = 0.0;
  double p95_jct = 0.0;
  double mean_queueing_delay = 0.0;
  double p95_queueing_delay = 0.0;
  std::size_t placement_retries = 0;
  int preemptions_suffered = 0;
  double share_integral = 0.0;
};

std::vector<TenantSummary> summarize_tenants(const TenantStreamsResult& result);

}  // namespace lts::tenant
