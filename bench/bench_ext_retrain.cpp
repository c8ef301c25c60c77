// Online-retraining experiment: does closing the training loop at serving
// time pay for itself when the network drifts away from the training
// distribution?
//
// One offline model is trained on pristine-cluster data, then serves a live
// job stream under two conditions:
//
//   * stationary — the cluster stays as it was during data collection;
//   * drifting   — a deterministic escalating WAN degradation staircase
//     (generate_drift_schedule) permanently cuts link capacity and inflates
//     RTTs in steps, so the (telemetry -> duration) mapping the model
//     learned goes progressively stale.
//
// Each condition runs the identical pre-drawn stream (same seed, same jobs,
// same arrivals) under the static policy (kModel: the offline model serves
// unchanged) and the retrained policy (kModelRetrain: completed jobs feed a
// rolling window, periodic + drift-triggered refits hot-swap the model).
// Retraining should match the static scheduler on the stationary stream
// (nothing to learn, nothing to lose) and beat it on the drifting one.
//
// Output: human-readable tables, a JSON blob on stdout, and
// BENCH_retrain.json for the CI perf-artifact trail.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/trainer.hpp"
#include "exp/benchio.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;
  const auto matrix = exp::paper_scenario_matrix();

  std::printf("Training the offline scheduler model (720 samples)...\n");
  exp::CollectorOptions collect;
  collect.repeats = 2;
  collect.base_seed = 12000;
  const CsvTable log = exp::collect_training_data(matrix, collect);
  const auto model = std::shared_ptr<const ml::Regressor>(
      core::Trainer::train("random_forest",
                           core::Trainer::dataset_from_log(log)));

  exp::BenchReport report("retrain");
  report.note("initial_model", "random_forest (offline, 720 samples)");
  report.note("stream", "120 jobs, mean interarrival 10 s, seed 51000");
  report.note("drift", "escalating permanent WAN degradation staircase");

  struct Condition {
    const char* label;
    bool drift;
  };
  const Condition conditions[] = {{"stationary", false}, {"drifting", true}};
  struct Policy {
    const char* label;
    exp::StreamPolicy policy;
  };
  const Policy policies[] = {
      {"static", exp::StreamPolicy::kModel},
      {"retrained", exp::StreamPolicy::kModelRetrain},
  };

  Json results = Json::object();
  for (const auto& condition : conditions) {
    std::printf("=== %s stream ===\n", condition.label);
    AsciiTable table({"Scheduler", "mean JCT (s)", "P50 JCT (s)",
                      "P99 JCT (s)", "makespan (s)", "retrains"});
    Json condition_json = Json::object();
    for (const auto& p : policies) {
      exp::StreamOptions stream;
      stream.num_jobs = 120;
      stream.mean_interarrival = 10.0;
      stream.seed = 51000;
      if (condition.drift) {
        // Capacity-only drift: the cut is nearly invisible in the RTT
        // features the offline model leans on, but it chokes shuffles —
        // exactly the mapping shift retraining is supposed to catch.
        exp::DriftScheduleOptions drift;
        drift.max_capacity_cut = 0.93;
        drift.max_rtt_spike = 0.0;
        stream.env.faults = exp::generate_drift_schedule(
            stream.env.cluster_spec, stream.seed, drift);
      }
      // Mostly drift-triggered: the periodic schedule is a slow safety net
      // and the EWMA trigger does the real work, so a stationary stream
      // (error stays low) retrains rarely while each drift step (error
      // jumps) pulls a refit forward. The short window keeps refits
      // focused on post-step completions.
      stream.retrain.retrain_every = 40;
      stream.retrain.min_rows = 30;
      stream.retrain.window_size = 90;
      stream.retrain.drift_threshold = 0.35;
      stream.retrain.drift_cooldown = 6;
      const auto run = exp::run_job_stream(p.policy, model, matrix, stream);
      const auto summary = exp::summarize_stream(run);
      table.add_row_numeric(
          p.label,
          {summary.mean_jct, summary.p50_jct, summary.p99_jct,
           summary.makespan, static_cast<double>(summary.retrains)},
          1);
      const std::string bench =
          std::string(condition.label) + "/" + p.label;
      report.add(bench, "mean_jct", summary.mean_jct, "s");
      report.add(bench, "p50_jct", summary.p50_jct, "s");
      report.add(bench, "p99_jct", summary.p99_jct, "s");
      report.add(bench, "makespan", summary.makespan, "s");
      report.add(bench, "retrains",
                 static_cast<double>(summary.retrains), "count");
      report.add(bench, "retrain_failures",
                 static_cast<double>(summary.retrain_failures), "count");
      report.add(bench, "retrain_skips",
                 static_cast<double>(summary.retrain_skips), "count");
      report.add(bench, "model_version",
                 static_cast<double>(summary.model_version), "version");
      condition_json[p.label] = summary.to_json();
      for (const auto& event : run.retrain_events) {
        std::printf("  [%s] retrain -> %s: version %llu, %zu rows, "
                    "drift %.3f%s\n",
                    p.label, core::to_string(event.outcome).c_str(),
                    static_cast<unsigned long long>(event.version),
                    event.window_rows, event.drift_score,
                    event.drift_triggered ? " [drift-triggered]" : "");
      }
    }
    std::printf("%s\n",
                table.render(std::string("Live stream (") + condition.label +
                             "): static vs retrained")
                    .c_str());
    results[condition.label] = condition_json;
  }

  report.write("BENCH_retrain.json");
  std::printf("JSON results:\n%s\n", results.dump(2).c_str());
  std::printf("bench report written to BENCH_retrain.json\n");
  return 0;
}
