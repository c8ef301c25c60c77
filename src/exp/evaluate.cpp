#include "exp/evaluate.hpp"

#include <algorithm>

#include "core/scheduler.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace lts::exp {

const MethodAccuracy& EvalResult::by_method(const std::string& name) const {
  for (const auto& m : accuracy) {
    if (m.method == name) return m;
  }
  throw Error("EvalResult: no method named " + name);
}

namespace {

/// Ranks node indices by ascending key, ties broken by index for
/// determinism.
std::vector<std::size_t> rank_by(const std::vector<double>& keys) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  return order;
}

bool hit_topk(const std::vector<std::size_t>& ranking, std::size_t fastest,
              int k) {
  const std::size_t limit =
      std::min(ranking.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < limit; ++i) {
    if (ranking[i] == fastest) return true;
  }
  return false;
}

}  // namespace

EvalResult evaluate_methods(const std::vector<MethodUnderTest>& models,
                            const std::vector<Scenario>& matrix,
                            const EvalOptions& options) {
  LTS_REQUIRE(options.num_scenarios >= 1, "evaluate_methods: no scenarios");
  LTS_REQUIRE(options.truth_repeats >= 1,
              "evaluate_methods: truth_repeats >= 1");
  EvalResult result;

  std::vector<std::string> method_order = {"kube_default", "random"};
  for (const auto& h : options.heuristics) method_order.push_back(h);
  for (const auto& entry : models) {
    LTS_REQUIRE(entry.degraded ||
                    (entry.model != nullptr && entry.model->is_fitted()),
                "evaluate_methods: model '" + entry.name + "' not fitted");
    method_order.push_back(entry.name);
  }
  std::map<std::string, int> top1_hits, top2_hits;
  std::map<std::string, double> regret_sum;

  const std::size_t n_nodes = options.env.cluster_spec.num_nodes();
  LTS_REQUIRE(n_nodes >= 1, "evaluate_methods: cluster has no nodes");
  const auto repeats = static_cast<std::size_t>(options.truth_repeats);
  obs::Counter& scenarios_counter = obs::counter(
      "lts_eval_scenarios_total", {},
      "Evaluation scenarios completed (counterfactual truth computed)");
  const auto scenario_seed = [&](int s) {
    return options.base_seed + 7919ULL * static_cast<std::uint64_t>(s);
  };
  const auto warm_env = [&](int s) {
    auto env = std::make_unique<SimEnv>(scenario_seed(s), options.env);
    env->warmup();
    return env;
  };
  // Each scenario's environment is warmed once: every method ranks from it
  // and every counterfactual run forks it. The next scenario's environment
  // warms alongside this scenario's runs.
  std::unique_ptr<SimEnv> next_env = warm_env(0);
  for (int s = 0; s < options.num_scenarios; ++s) {
    scenarios_counter.inc();
    const std::uint64_t seed = scenario_seed(s);
    Rng pick_rng(seed ^ 0xabcdef12ULL);
    const Scenario& scenario = sample_scenario(matrix, pick_rng);
    const std::uint64_t job_seed = seed ^ 0x5eedf00dULL;

    ScenarioOutcome outcome;
    outcome.scenario_id = scenario.id;
    outcome.seed = seed;

    // --- simulation: the counterfactuals, forked from the warm state ------
    // Item 0 warms the next scenario's environment; item
    // 1 + node * repeats + rep forks this scenario's and runs the job on
    // `node`. Forks only read the warm environment, and each item writes
    // only its own slot, so the outcome does not depend on the pool size or
    // on interleaving. A worker holds one fork at a time.
    const std::unique_ptr<SimEnv> ranking_env = std::move(next_env);
    const telemetry::ClusterSnapshot snapshot = ranking_env->snapshot();
    std::vector<double> run_durations(n_nodes * repeats);
    // lts-lint: shared-guarded(partitioned: item 0 writes only next_env, item 1 + k only run_durations[k]; ranking_env is only read)
    ThreadPool::global().parallel_for(
        1 + run_durations.size(), [&](std::size_t i) {
          if (i == 0) {
            if (s + 1 < options.num_scenarios) next_env = warm_env(s + 1);
            return;
          }
          const std::size_t node = (i - 1) / repeats;
          const std::uint64_t rep = (i - 1) % repeats;
          SimEnv env(*ranking_env);
          run_durations[i - 1] =
              env.run_job(scenario.config, node,
                          job_seed + 0x9e3779b9ULL * rep)
                  .duration();
        });

    // --- method rankings, all from the state at warmup time -------------
    // On this thread, in method order: obs::Tracer is single-threaded.
    {
      SimEnv& env = *ranking_env;
      const std::size_t n = env.node_names().size();

      // Baseline: the default Kubernetes scheduler's ranking for the
      // driver pod (resource-requests only, network-blind).
      const auto kube = env.kube_ranking(scenario.config);
      std::vector<std::size_t> kube_rank;
      for (const auto& scored : kube.ranking) {
        kube_rank.push_back(env.cluster().node_index(scored.name));
      }
      outcome.rankings["kube_default"] = std::move(kube_rank);

      // Baseline: uniform random order.
      std::vector<std::size_t> random_rank(n);
      for (std::size_t i = 0; i < n; ++i) random_rank[i] = i;
      Rng shuffle_rng(seed ^ 0x12341234ULL);
      shuffle_rng.shuffle(random_rank);
      outcome.rankings["random"] = std::move(random_rank);

      // Telemetry heuristics (ablation baselines).
      for (const auto& h : options.heuristics) {
        std::vector<double> keys(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const auto& t = snapshot.nodes[i];
          if (h == "least_cpu") {
            keys[i] = t.cpu_load;
          } else if (h == "least_rtt") {
            keys[i] = t.rtt_mean;
          } else {
            throw Error("evaluate_methods: unknown heuristic " + h);
          }
        }
        outcome.rankings[h] = rank_by(keys);
      }

      // Supervised models: the paper's prediction-and-ranking pipeline, one
      // "evaluate/<method>" trace span each. Every method ranks from the
      // same snapshot; a degraded method's scheduler views it first.
      for (const auto& entry : models) {
        const std::string span_name = "evaluate/" + entry.name;
        obs::ScopedSpan span(obs::Tracer::global(), span_name.c_str(),
                             snapshot.at);
        core::LtsScheduler scheduler(
            core::TelemetryFetcher(env.tsdb(), env.node_names(),
                                   options.env.snapshot),
            entry.model, entry.features, entry.risk_aversion, entry.degraded);
        const auto decision =
            scheduler.schedule_from_snapshot(snapshot, scenario.config);
        std::vector<std::size_t> ranked;
        ranked.reserve(decision.ranking.size());
        for (const auto& p : decision.ranking) {
          ranked.push_back(env.cluster().node_index(p.node));
        }
        outcome.rankings[entry.name] = std::move(ranked);
      }
    }

    // --- counterfactual ground truth: per-node mean, in repeat order -------
    {
      for (std::size_t node = 0; node < n_nodes; ++node) {
        double total = 0.0;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
          total += run_durations[node * repeats + rep];
        }
        outcome.node_durations.push_back(
            total / static_cast<double>(options.truth_repeats));
      }
      outcome.fastest_node = static_cast<std::size_t>(
          std::min_element(outcome.node_durations.begin(),
                           outcome.node_durations.end()) -
          outcome.node_durations.begin());
    }

    for (const auto& method : method_order) {
      const auto& ranking = outcome.rankings.at(method);
      if (hit_topk(ranking, outcome.fastest_node, 1)) ++top1_hits[method];
      if (hit_topk(ranking, outcome.fastest_node, 2)) ++top2_hits[method];
      regret_sum[method] +=
          outcome.node_durations[ranking.front()] -
          outcome.node_durations[outcome.fastest_node];
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.progress) {
      options.progress(static_cast<std::size_t>(s + 1),
                       static_cast<std::size_t>(options.num_scenarios));
    }
  }

  for (const auto& method : method_order) {
    MethodAccuracy acc;
    acc.method = method;
    acc.scenarios = options.num_scenarios;
    acc.top1 = static_cast<double>(top1_hits[method]) /
               static_cast<double>(options.num_scenarios);
    acc.top2 = static_cast<double>(top2_hits[method]) /
               static_cast<double>(options.num_scenarios);
    acc.mean_regret =
        regret_sum[method] / static_cast<double>(options.num_scenarios);
    result.accuracy.push_back(std::move(acc));
  }
  return result;
}

Json StreamSummary::to_json() const {
  Json j = Json::object();
  j["mean_jct_s"] = mean_jct;
  j["p50_jct_s"] = p50_jct;
  j["p95_jct_s"] = p95_jct;
  j["p99_jct_s"] = p99_jct;
  j["makespan_s"] = makespan;
  j["jobs"] = static_cast<double>(jobs);
  j["mean_queueing_delay_s"] = mean_queueing_delay;
  j["p95_queueing_delay_s"] = p95_queueing_delay;
  j["placement_retries"] = static_cast<double>(placement_retries);
  j["model_version"] = static_cast<double>(model_version);
  j["retrains"] = static_cast<double>(retrains);
  j["retrain_failures"] = static_cast<double>(retrain_failures);
  j["retrain_skips"] = static_cast<double>(retrain_skips);
  j["retrain_rejections"] = static_cast<double>(retrain_rejections);
  return j;
}

StreamSummary summarize_stream(const StreamResult& result) {
  StreamSummary summary;
  std::vector<double> durations;
  std::vector<double> queueing;
  durations.reserve(result.jobs.size());
  queueing.reserve(result.jobs.size());
  for (const auto& job : result.jobs) {
    durations.push_back(job.duration);
    queueing.push_back(job.queueing_delay);
    summary.placement_retries +=
        static_cast<std::size_t>(job.placement_retries);
  }
  summary.jobs = durations.size();
  if (!durations.empty()) {
    summary.mean_jct = mean(durations);
    summary.p50_jct = percentile(durations, 50);
    summary.p95_jct = percentile(durations, 95);
    summary.p99_jct = percentile(durations, 99);
    summary.mean_queueing_delay = mean(queueing);
    summary.p95_queueing_delay = percentile(queueing, 95);
  }
  summary.makespan = result.makespan;
  summary.model_version = result.model_version;
  for (const auto& event : result.retrain_events) {
    switch (event.outcome) {
      case core::RetrainOutcome::kSwapped: ++summary.retrains; break;
      case core::RetrainOutcome::kFailed: ++summary.retrain_failures; break;
      case core::RetrainOutcome::kSkipped: ++summary.retrain_skips; break;
      case core::RetrainOutcome::kRejected:
        ++summary.retrain_rejections;
        break;
    }
  }
  return summary;
}

}  // namespace lts::exp
