// Serving-path decision throughput: a queue of pending pods ranked on the
// paper topology, run twice — once per pod (schedule() at queue depth 1:
// every decision sweeps the TSDB and makes its own batch-of-one model call,
// as a decision on a live stream does) and once per queue (schedule_many:
// one snapshot fetch, exact dedup of replica rows and one flattened
// predict_batch over every distinct (pod, node) candidate). Both rank the identical queue; the run
// FAILS (nonzero exit) if any decision — node order or predicted duration,
// compared bit-for-bit — diverges between them.
//
// Reports decisions/sec plus p50/p99 per-decision latency for both sides
// and emits BENCH_decision_throughput.json via exp::BenchReport; CI uploads
// it as the perf-trajectory artifact. The per-pod side keeps its original
// "scalar_*" JSON keys so the trajectory stays comparable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/scheduler.hpp"
#include "exp/benchio.hpp"
#include "exp/envgen.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace lts;

/// Forest with the Table-1 feature layout, trained on a synthetic corpus
/// where duration tracks load and network rates: rankings are non-trivial.
std::shared_ptr<const ml::Regressor> train_model(std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.set_feature_names(core::FeatureConstructor::feature_names());
  telemetry::NodeTelemetry t;
  t.node = "x";
  t.rtt_mean = 0.03;
  t.rtt_max = 0.07;
  t.rtt_std = 0.02;
  t.mem_available = 6.0 * 1024 * 1024 * 1024;
  spark::JobConfig config;
  for (int i = 0; i < 600; ++i) {
    t.cpu_load = rng.uniform(0.0, 6.0);
    t.tx_rate = rng.uniform(1e6, 200e6);
    t.rx_rate = rng.uniform(1e6, 100e6);
    config.app = spark::kAllAppTypes[static_cast<std::size_t>(i) %
                                     spark::kNumAppTypes];
    config.input_records = 100000 * (1 + i % 10);
    const auto x = core::FeatureConstructor::build(t, config);
    data.add_row(x, 2.0 + t.cpu_load + t.tx_rate / 100e6 +
                        config.input_records / 4e5 + 0.05 * rng.normal());
  }
  auto model = ml::create_regressor("random_forest");
  model->fit(data);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

/// A queue the way a real control plane sees one: deployments and batch
/// jobs submit replicas, so the 64 pending pods come from 16 distinct pod
/// templates (4 app types x 4 size/executor shapes), 4 replicas each.
/// Replicas are interleaved rather than adjacent — the batched path's row
/// dedup keys on content, not position.
std::vector<spark::JobConfig> make_queue(std::size_t n) {
  constexpr std::size_t kTemplates = 16;
  std::vector<spark::JobConfig> templates;
  for (std::size_t s = 0; s < kTemplates; ++s) {
    spark::JobConfig config;
    config.app = spark::kAllAppTypes[s % spark::kNumAppTypes];
    const auto shape = static_cast<long long>(s / spark::kNumAppTypes);
    config.input_records = 200000 * (1 + shape);
    config.executors = 2 + static_cast<int>(shape % 3);
    config.validate();
    templates.push_back(config);
  }
  std::vector<spark::JobConfig> configs;
  for (std::size_t q = 0; q < n; ++q) {
    configs.push_back(templates[q % kTemplates]);
  }
  return configs;
}

bool decisions_equal(const core::Decision& a, const core::Decision& b) {
  if (a.used_fallback != b.used_fallback ||
      a.stale_demoted != b.stale_demoted ||
      a.ranking.size() != b.ranking.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].node != b.ranking[i].node ||
        a.ranking[i].predicted_duration != b.ranking[i].predicted_duration) {
      return false;
    }
  }
  return true;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

struct PathResult {
  std::vector<core::Decision> decisions;
  double wall_seconds = 0.0;
  std::vector<double> per_decision_us;
};

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main() {
  // Paper topology (6 nodes / 3 sites), warmed so load averages and NIC
  // rate windows carry signal.
  exp::SimEnv env(118);
  env.warmup();
  const SimTime now = env.engine().now();
  const auto model = train_model(7);

  constexpr std::size_t kQueue = 64;
  constexpr int kIterations = 200;
  const auto configs = make_queue(kQueue);

  // Per-pod side: every schedule() pays a full TSDB sweep and one model
  // call for its own candidates.
  core::LtsScheduler per_pod(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), model);
  // Batched side: one sweep and one schedule_many per queue.
  core::LtsScheduler batched(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), model);

  PathResult per_pod_result, batched_result;
  using Clock = std::chrono::steady_clock;
  bool identical = true;

  for (int it = 0; it < kIterations; ++it) {
    std::vector<core::Decision> seq;
    seq.reserve(kQueue);
    const auto seq_begin = Clock::now();
    for (const auto& config : configs) {
      const auto d_begin = Clock::now();
      seq.push_back(per_pod.schedule(config, now));
      per_pod_result.per_decision_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - d_begin)
              .count());
    }
    per_pod_result.wall_seconds +=
        std::chrono::duration<double>(Clock::now() - seq_begin).count();

    const auto batch_begin = Clock::now();
    auto batch = batched.schedule_many(configs, now);
    const double batch_seconds =
        std::chrono::duration<double>(Clock::now() - batch_begin).count();
    batched_result.wall_seconds += batch_seconds;
    batched_result.per_decision_us.push_back(batch_seconds * 1e6 /
                                             static_cast<double>(kQueue));

    for (std::size_t q = 0; q < kQueue; ++q) {
      identical = identical && decisions_equal(seq[q], batch[q]);
    }
    if (it == 0) {
      per_pod_result.decisions = std::move(seq);
      batched_result.decisions = std::move(batch);
    }
  }

  const double total =
      static_cast<double>(kQueue) * static_cast<double>(kIterations);
  const double per_pod_dps = total / per_pod_result.wall_seconds;
  const double batched_dps = total / batched_result.wall_seconds;
  const double speedup = batched_dps / per_pod_dps;

  exp::BenchReport report("decision_throughput");
  report.note("workload",
              "64-pod queue (16 pod templates x 4 replicas) on the paper "
              "topology (6 nodes / 3 sites), random-forest model, 200 "
              "iterations");
  report.note("baseline",
              "per-pod serving loop: schedule() at queue depth 1 (a TSDB "
              "sweep and a batch-of-one predict_batch per decision); "
              "reported as scalar_*");
  report.note("optimized",
              "schedule_many: one snapshot fetch + exact dedup of "
              "replica (pod, node) rows + flattened predict_batch over the "
              "distinct candidates");
  const std::string label = "queue/" + std::to_string(kQueue);
  report.add(label, "scalar_decisions_per_sec", per_pod_dps, "1/s");
  report.add(label, "batched_decisions_per_sec", batched_dps, "1/s");
  report.add(label, "speedup", speedup);
  report.add(label, "scalar_p50_us",
             percentile(per_pod_result.per_decision_us, 0.50), "us");
  report.add(label, "scalar_p99_us",
             percentile(per_pod_result.per_decision_us, 0.99), "us");
  report.add(label, "batched_p50_us",
             percentile(batched_result.per_decision_us, 0.50), "us");
  report.add(label, "batched_p99_us",
             percentile(batched_result.per_decision_us, 0.99), "us");
  report.add(label, "decisions_identical", identical ? 1.0 : 0.0);

  AsciiTable table({"path", "decisions/sec", "p50 (us)", "p99 (us)"});
  table.add_row({"per-pod", fmt(per_pod_dps, "%.0f"),
                 fmt(percentile(per_pod_result.per_decision_us, 0.50)),
                 fmt(percentile(per_pod_result.per_decision_us, 0.99))});
  table.add_row({"batched", fmt(batched_dps, "%.0f"),
                 fmt(percentile(batched_result.per_decision_us, 0.50)),
                 fmt(percentile(batched_result.per_decision_us, 0.99))});
  std::printf("%s", table.render("Decision throughput (64-pod queue)")
                        .c_str());
  std::printf("\nspeedup: %.1fx  decisions identical: %s\n", speedup,
              identical ? "yes" : "NO");
  report.write("BENCH_decision_throughput.json");
  std::printf("wrote BENCH_decision_throughput.json\n");

  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: batched decisions diverged from the per-pod path\n");
    return 1;
  }
  return 0;
}
