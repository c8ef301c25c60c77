// Fault-injection experiment: how scheduling quality degrades as the
// substrate and the telemetry pipeline fail, and what the degradation
// policies buy back.
//
// For each fault rate (faults per 100 simulated seconds) we generate one
// deterministic fault schedule — WAN capacity cuts, RTT spikes, exporter
// silences/delays, occasional site partitions; no node crashes, so the
// counterfactual ground-truth replays terminate — and measure:
//
//   * Top-1/Top-2 node-selection accuracy (the Table 4 protocol) of the LTS
//     model with and without the scheduler's degraded mode (staleness
//     marking + imputation + stale demotion + fallback), vs the default
//     Kubernetes scheduler and random placement;
//   * P50/P99 job completion time of a live 30-job stream placed by each
//     policy under the identical fault timeline.
//
// Output: human-readable tables per rate, then one machine-readable JSON
// results table on stdout.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "fault/fault.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;
  const auto matrix = exp::paper_scenario_matrix();

  std::printf("Training the scheduler model (720 samples)...\n");
  exp::CollectorOptions collect;
  collect.repeats = 2;
  collect.base_seed = 12000;
  const CsvTable log = exp::collect_training_data(matrix, collect);
  const auto model = std::shared_ptr<const ml::Regressor>(
      core::Trainer::train("random_forest",
                           core::Trainer::dataset_from_log(log)));

  Json results = Json::array();
  for (const double rate : {0.0, 2.0, 6.0, 12.0}) {
    std::printf("=== fault rate %.0f / 100 s ===\n", rate);
    exp::FaultScheduleOptions fault_options;
    fault_options.faults_per_100s = rate;
    fault_options.include_crashes = false;

    // --- Top-k accuracy under faults (Table 4 protocol) -----------------
    // Faults concentrate on the pre-decision telemetry window and the
    // measured job's execution (decision at t=40, job done well before
    // t=160), so the configured rate is the rate the decision actually
    // experiences.
    exp::FaultScheduleOptions eval_faults = fault_options;
    eval_faults.start = 10.0;
    eval_faults.horizon = 150.0;
    exp::EvalOptions eval;
    eval.num_scenarios = 10;
    eval.truth_repeats = 1;
    eval.base_seed = 770000;
    eval.env.faults = exp::generate_fault_schedule(
        eval.env.cluster_spec, /*seed=*/9000 + static_cast<int>(rate),
        eval_faults);
    // Escalate telemetry loss with the fault rate: silence 0/1/2/3 node
    // exporters across the decision window, so every decision at higher
    // rates is made from a snapshot with that many stale rows. This is the
    // axis that separates the degraded scheduler (stale rows imputed and
    // demoted) from the plain one (stale rows taken at face value).
    const char* kSilenced[] = {"node-2", "node-5", "node-3"};
    const int silenced = rate >= 12 ? 3 : rate >= 6 ? 2 : rate >= 2 ? 1 : 0;
    for (int i = 0; i < silenced; ++i) {
      fault::FaultSpec silence;
      silence.kind = fault::FaultKind::kExporterSilence;
      silence.target = kSilenced[i];
      silence.at = 15.0 + 5.0 * i;
      silence.duration = 200.0;
      eval.env.faults.push_back(silence);
    }
    std::vector<exp::MethodUnderTest> methods(2);
    methods[0].name = "lts";
    methods[0].model = model;
    methods[1].name = "lts_degraded";
    methods[1].model = model;
    methods[1].degraded = true;
    const auto accuracy = exp::evaluate_methods(methods, matrix, eval);

    AsciiTable acc_table({"Method", "Top-1", "Top-2", "Regret (s)"});
    for (const auto& acc : accuracy.accuracy) {
      acc_table.add_row_numeric(acc.method,
                                {acc.top1, acc.top2, acc.mean_regret}, 3);
    }
    std::printf("%s\n", acc_table.render("Node-selection accuracy").c_str());

    // --- live stream JCT under the same fault timeline ------------------
    struct Policy {
      const char* label;
      exp::StreamPolicy policy;
      std::shared_ptr<const ml::Regressor> model;
      bool degraded;
    };
    const Policy policies[] = {
        {"lts_degraded", exp::StreamPolicy::kModel, model, true},
        {"lts", exp::StreamPolicy::kModel, model, false},
        {"kube_default", exp::StreamPolicy::kKubeDefault, nullptr, false},
        {"random", exp::StreamPolicy::kRandom, nullptr, false},
    };
    AsciiTable jct_table(
        {"Scheduler", "P50 JCT (s)", "P99 JCT (s)", "makespan (s)"});
    Json stream_json = Json::object();
    // The stream runs for ~320 s of simulated time; spread its faults over
    // the whole run.
    exp::FaultScheduleOptions stream_faults = fault_options;
    stream_faults.start = 10.0;
    stream_faults.horizon = 350.0;
    for (const auto& p : policies) {
      exp::StreamOptions stream;
      stream.num_jobs = 30;
      stream.mean_interarrival = 12.0;
      stream.seed = 33000;
      stream.env.faults = exp::generate_fault_schedule(
          stream.env.cluster_spec, /*seed=*/9000 + static_cast<int>(rate),
          stream_faults);
      stream.degraded = p.degraded;
      const auto run = exp::run_job_stream(p.policy, p.model, matrix, stream);
      std::vector<double> durations;
      for (const auto& job : run.jobs) durations.push_back(job.duration);
      const double p50 = percentile(durations, 50);
      const double p99 = percentile(durations, 99);
      jct_table.add_row_numeric(p.label, {p50, p99, run.makespan}, 1);
      JsonObject row;
      row["p50_jct_s"] = p50;
      row["p99_jct_s"] = p99;
      row["makespan_s"] = run.makespan;
      stream_json[p.label] = Json(std::move(row));
    }
    std::printf("%s\n",
                jct_table.render("Live stream: 30 jobs under faults").c_str());

    JsonObject entry;
    entry["fault_rate_per_100s"] = rate;
    Json acc_json = Json::object();
    for (const auto& acc : accuracy.accuracy) {
      JsonObject row;
      row["top1"] = acc.top1;
      row["top2"] = acc.top2;
      row["mean_regret_s"] = acc.mean_regret;
      acc_json[acc.method] = Json(std::move(row));
    }
    entry["accuracy"] = acc_json;
    entry["stream"] = stream_json;
    results.push_back(Json(std::move(entry)));
  }

  std::printf("JSON results:\n%s\n", results.dump(2).c_str());
  return 0;
}
