// Repository benchmark driver: runs one workload of the paper's pipeline from
// a seed and prints one `RESULT {...}` JSON line with its metrics, the
// simulator-only outputs run.py compares against expected.json, and the
// outcome of every correctness check.
//
//   lts_perfbench --workload table4|live_stream --seed N
//                 --seconds S --trace 0|1 --trace-out spans.csv
//
// Workloads (README.md says why each was chosen):
//   table4       timed: collect the 3600-sample corpus, train three model
//                families, run the 100-scenario counterfactual evaluation.
//   live_stream  timed: 12-job Poisson streams under LTS and kube-default
//                at light and heavy load, 24 stream seeds per load.
// Every workload reports every end-to-end metric: the groups outside its
// timed phase come from fixed-size probes run after it. One of them is the
// decision probe, a closed loop of one caller over 8 frozen clusters with
// full TSDB rings, timing schedule() at queue depth 1 and schedule_many()
// on a 64-pod queue. Both workloads are fixed-size; --seconds is accepted
// and does not change the work.
//
// A shared host can have slow spells of seconds in which the same work takes
// up to twice as long (README.md gives a measurement). Timings are therefore
// made of short pieces of work, each run on several passes that fall in
// different spells, and each piece counts with its fastest pass.
//
// With --trace 1 the registry is switched on, spans are recorded around each
// public call into a layer, and the per-layer metrics are printed instead.
// The traced run replays the corpus collection by driving SimEnv directly
// and fails unless the replayed CSV is byte-identical to
// collect_training_data's, so the per-layer split measures the same work.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/logger.hpp"
#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lts;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- spans ------------------------------------------------------------------

/// In-memory span log: (name, start, end, parent) around calls made from this
/// file. Off in untraced runs, where time() is a plain call.
class Spans {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  /// Opens a span for the lifetime of the object.
  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans) {
      if (!spans_.on_) return;
      index_ = static_cast<int>(spans_.spans_.size());
      const int parent = spans_.open_.empty() ? -1 : spans_.open_.back();
      spans_.spans_.push_back({name, spans_.now(), 0.0, parent});
      spans_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      spans_.spans_[static_cast<std::size_t>(index_)].end = spans_.now();
      spans_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
  };

  template <typename F>
  decltype(auto) time(const char* name, F&& f) {
    Scope scope(*this, name);
    return f();
  }

  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.end - s.start);
    }
    return out;
  }
  double total(const char* name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }
  std::size_t count(const char* name) const { return durations(name).size(); }

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "id,name,start_s,end_s,parent\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%zu,%s,%.9f,%.9f,%d\n", i, s.name,
                    s.start, s.end, s.parent);
      out << buf;
    }
    LTS_REQUIRE(out.good(), "cannot write span log " + path);
  }

 private:
  double now() const { return seconds_since(origin_); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- inputs -------------------------------------------------------------------

/// Every seed-dependent input derives from the --seed argument. Seed 0 gives
/// the seeds of the existing benches (bench_table4_accuracy,
/// bench_ext_e2e_stream, bench_decision_throughput); others shift each base
/// far past the range one run's per-sample seeds cover.
struct Seeds {
  explicit Seeds(std::uint64_t seed) : offset(seed * 100000000ULL) {}
  std::uint64_t batch_corpus() const { return 12000 + offset; }
  std::uint64_t stream_corpus() const { return 15000 + offset; }
  std::uint64_t eval() const { return 770000 + offset; }
  std::uint64_t stream(int k) const {
    return 33000 + offset + static_cast<std::uint64_t>(k);
  }
  std::uint64_t cluster() const { return 118 + offset; }
  std::uint64_t queue() const { return 7 + offset; }
  std::uint64_t offset;
};

/// Fixed sizes of the phases. The timed phase of each workload runs at full
/// size; the probes that give its other end-to-end metrics are smaller.
constexpr int kBatchRepeats = 10;       // 60 x 6 x 10 = 3600 samples
constexpr int kStreamCorpusRepeats = 5;  // 60 x 6 x 5 = 1800 samples
constexpr int kEvalScenarios = 100;      // table4 (the paper's protocol)
constexpr int kEvalProbeScenarios = 50;  // live_stream
constexpr int kEvalReplayScenarios = 10;  // traced replay of the evaluation
// Streams: many short streams rather than a few long ones. The background
// load sets most of a stream's simulation cost and much of its JCTs; the
// 24 streams of a load cover its 4 pod counts x 6 fetch counts once each
// (set_background_cell), so every --seed runs the same mix of them.
constexpr int kStreamSeeds = 24;       // live_stream, per load
constexpr int kStreamJobs = 12;        // live_stream
constexpr int kStreamProbeSeeds = 12;  // table4, per load
constexpr int kStreamProbeJobs = 12;   // table4
// Decisions: 8 independently seeded clusters, so one draw of background
// load does not set the tree paths a decision walks, each asked about 32
// distinct jobs: 256 decisions, enough for a p95 with 12 beyond it.
constexpr std::size_t kDecisionClusters = 8;
constexpr std::size_t kDecisionJobs = 32;
constexpr int kProbePasses = 3;
constexpr int kPipelinePasses = 2;  // table4's pipeline (see run_table4)
constexpr std::size_t kQueuePods = 64;  // 16 templates x 4 replicas
constexpr std::size_t kQueueTemplates = 16;
constexpr SimTime kTsdbFill = 720 * 2.0;  // ring capacity x scrape interval

// ---- result accumulation -------------------------------------------------------

struct Model {
  std::shared_ptr<const ml::Regressor> linear, xgboost, forest;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Seeds seeds{0};
  Spans spans{false};
  std::vector<exp::Scenario> matrix = exp::paper_scenario_matrix();

  Json e2e = Json::object();
  Json layer = Json::object();
  Json sim = Json::object();
  Json info = Json::object();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  // Decision probe: each schedule call's and each cluster's fastest
  // schedule_many call.
  std::vector<double> decision_us;
  std::vector<double> batch_seconds;
  // Traced-only tallies.
  std::vector<double> fetch_us, features_us, rank_us, kube_us;
  double predict_rows = 0.0, predict_seconds = 0.0;
  double replay_events = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0;
  double eval_library_warmups = 0.0;
  std::size_t eval_distinct_warmups = 0, eval_replayed = 0;

  void metric(const char* name, double value, const char* unit) {
    Json m = Json::object();
    m["value"] = value;
    m["unit"] = unit;
    e2e[name] = m;
  }
  void layer_metric(const char* name, double value, const char* unit) {
    Json m = Json::object();
    m["value"] = value;
    m["unit"] = unit;
    layer[name] = m;
  }
  /// Records `units` attempted units of work; all of them fail unless `ok`.
  void check(bool ok, std::size_t units, const std::string& what) {
    attempted += units;
    if (ok) return;
    failed += units;
    errors.push_back(what);
  }
};

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

double counter_value(const char* name) { return obs::counter(name).value(); }

/// Cache counters read around a stream.
class CacheTally {
 public:
  explicit CacheTally(Run& run)
      : run_(run),
        hits_(counter_value("lts_snapshot_cache_hits_total")),
        misses_(counter_value("lts_snapshot_cache_misses_total")) {}
  ~CacheTally() {
    run_.cache_hits += counter_value("lts_snapshot_cache_hits_total") - hits_;
    run_.cache_misses +=
        counter_value("lts_snapshot_cache_misses_total") - misses_;
  }
  CacheTally(const CacheTally&) = delete;
  CacheTally& operator=(const CacheTally&) = delete;

 private:
  Run& run_;
  double hits_, misses_;
};

/// Switches the global registry off for a scope (the untraced baseline of a
/// traced run) and back to its previous state after.
class RegistryOff {
 public:
  RegistryOff() : was_(obs::MetricsRegistry::global().enabled()) {
    obs::MetricsRegistry::global().set_enabled(false);
  }
  ~RegistryOff() { obs::MetricsRegistry::global().set_enabled(was_); }
  RegistryOff(const RegistryOff&) = delete;
  RegistryOff& operator=(const RegistryOff&) = delete;

 private:
  bool was_;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of every telemetry value of a snapshot: equal digests mean equal
/// warm states as far as any scheduler can see.
std::uint64_t snapshot_digest(const telemetry::ClusterSnapshot& snapshot) {
  std::uint64_t h =
      fnv1a(0xcbf29ce484222325ULL, &snapshot.at, sizeof snapshot.at);
  for (const auto& n : snapshot.nodes) {
    for (const double v :
         {n.rtt_mean, n.rtt_max, n.rtt_std, n.tx_rate, n.rx_rate, n.cpu_load,
          n.mem_available, n.uplink_util, n.downlink_util, n.queue_delay,
          n.active_flows, n.last_seen}) {
      h = fnv1a(h, &v, sizeof v);
    }
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string csv_bytes(const CsvTable& table) {
  std::ostringstream out;
  table.write(out);
  return out.str();
}

// ---- collect ----------------------------------------------------------------------

/// Traced replay of collect_training_data: the same loop, driving SimEnv
/// directly with a span around each call.
CsvTable replay_collect(Run& run, const exp::CollectorOptions& options) {
  Spans& spans = run.spans;
  const double events0 = counter_value("lts_sim_events_processed_total");
  core::TrainingLogger logger;
  Spans::Scope root(spans, "replay.collect");
  const std::size_t num_nodes =
      spans.time("exp.simenv_ctor", [&] {
             return std::make_unique<exp::SimEnv>(options.base_seed,
                                                  options.env);
           })->node_names().size();
  for (std::size_t s = 0; s < run.matrix.size(); ++s) {
    const auto& scenario = run.matrix[s];
    for (std::size_t target = 0; target < num_nodes; ++target) {
      for (int rep = 0; rep < options.repeats; ++rep) {
        const std::uint64_t seed = exp::sample_seed(options, s, target, rep);
        auto env = spans.time("exp.simenv_ctor", [&] {
          return std::make_unique<exp::SimEnv>(seed, options.env);
        });
        spans.time("simcore.warmup", [&] { env->warmup(); });
        if (options.residual_job) {
          Rng residual_rng(seed ^ 0x4e51d0a1ULL);
          const auto& warm = exp::sample_scenario(run.matrix, residual_rng);
          const auto node = static_cast<std::size_t>(residual_rng.uniform_int(
              0, static_cast<std::int64_t>(num_nodes) - 1));
          spans.time("spark.run_job", [&] {
            env->run_job(warm.config, node, seed ^ 0x4e51d0a2ULL);
          });
        }
        const auto snapshot =
            spans.time("telemetry.snapshot", [&] { return env->snapshot(); });
        const auto result = spans.time("spark.run_job", [&] {
          return env->run_job(scenario.config, target, seed ^ 0x5eedf00dULL);
        });
        logger.log_run(scenario.id, snapshot, scenario.config, result);
      }
    }
  }
  run.replay_events +=
      counter_value("lts_sim_events_processed_total") - events0;
  return logger.table();
}

void check_corpus(Run& run, const CsvTable& log, int repeats) {
  const std::size_t expected_rows =
      run.matrix.size() * 6 * static_cast<std::size_t>(repeats);
  bool durations_ok = log.num_rows() == expected_rows;
  if (durations_ok) {
    for (const double d : log.column_double("duration")) {
      durations_ok = durations_ok && finite_positive(d);
    }
  }
  run.check(durations_ok, expected_rows,
            "corpus: expected " + std::to_string(expected_rows) +
                " rows with finite positive durations, got " +
                std::to_string(log.num_rows()));
}

CsvTable collect(Run& run, const exp::CollectorOptions& options) {
  const auto t0 = Clock::now();
  const CsvTable log = [&] {
    RegistryOff off;
    return run.spans.time("exp.collect_training_data", [&] {
      return exp::collect_training_data(run.matrix, options);
    });
  }();
  const double library_s = seconds_since(t0);
  check_corpus(run, log, options.repeats);
  if (run.trace) {
    const auto t0 = Clock::now();
    const CsvTable replayed = replay_collect(run, options);
    const double replay_s = seconds_since(t0);
    run.check(csv_bytes(replayed) == csv_bytes(log), 1,
              "traced collection replay is not byte-identical to "
              "collect_training_data");
    run.layer_metric("exp.collect_s", library_s, "s");
    run.layer_metric("obs.trace_overhead_ratio", replay_s / library_s,
                     "ratio");
  }
  return log;
}

// ---- train -------------------------------------------------------------------------

std::shared_ptr<const ml::Regressor> train(Run& run, const char* family,
                                           const char* span,
                                           const ml::Dataset& data) {
  return std::shared_ptr<const ml::Regressor>(run.spans.time(
      span, [&] { return core::Trainer::train(family, data); }));
}

/// Batch prediction throughput on the holdout matrix (Trainer's split).
void time_holdout_predict(Run& run, const ml::Regressor& model,
                          const ml::Dataset& data) {
  Rng rng(5);
  const auto split = data.train_test_split(0.2, rng);
  const ml::Matrix& x = split.second.x();
  std::vector<double> out(x.rows());
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    model.predict_batch(x.data(), x.rows(), x.cols(), out);
    run.predict_seconds += seconds_since(t0);
    run.predict_rows += static_cast<double>(x.rows());
  }
}

// ---- evaluate ----------------------------------------------------------------------

using Methods = std::vector<exp::MethodUnderTest>;

bool same_outcome(const exp::ScenarioOutcome& a,
                  const exp::ScenarioOutcome& b) {
  return a.scenario_id == b.scenario_id && a.seed == b.seed &&
         a.rankings == b.rankings && a.fastest_node == b.fastest_node &&
         a.node_durations.size() == b.node_durations.size() &&
         std::memcmp(a.node_durations.data(), b.node_durations.data(),
                     a.node_durations.size() * sizeof(double)) == 0;
}

/// Traced replay of evaluate_methods' per-scenario protocol for the first
/// scenarios. Each scenario also runs through the library on its own
/// (evaluate_methods with one scenario and that scenario's seed), and the
/// library run, the replay and the full evaluation must agree bit for bit.
///
/// The library's warmups are measured, not assumed: the simulator events
/// evaluate_methods processed for the scenario, less the events of the
/// replay's jobs, over the events of one warmup. The distinct warm states
/// are counted from digests of the replay's warmed environments.
void replay_evaluate(Run& run, const Model& model, const Methods& methods,
                     const exp::EvalOptions& options,
                     const exp::EvalResult& result) {
  Spans& spans = run.spans;
  const auto events = [] {
    return counter_value("lts_sim_events_processed_total");
  };
  const double replay0 = events();
  double library_events_total = 0.0;
  Spans::Scope root(spans, "replay.evaluate");
  bool ok = true;
  for (int s = 0; s < kEvalReplayScenarios && s < options.num_scenarios; ++s) {
    const std::uint64_t seed =
        options.base_seed + 7919ULL * static_cast<std::uint64_t>(s);
    const auto& expected = result.outcomes[static_cast<std::size_t>(s)];

    exp::EvalOptions one = options;
    one.num_scenarios = 1;
    one.base_seed = seed;
    double mark = events();
    const auto library = exp::evaluate_methods(methods, run.matrix, one);
    const double library_events = events() - mark;
    library_events_total += library_events;
    ok = ok && same_outcome(library.outcomes.at(0), expected);

    Rng pick_rng(seed ^ 0xabcdef12ULL);
    const auto& scenario = exp::sample_scenario(run.matrix, pick_rng);
    const std::uint64_t job_seed = seed ^ 0x5eedf00dULL;
    double warmup_events = 0.0, job_events = 0.0;
    std::size_t warmups = 0;
    std::vector<std::uint64_t> warm_states;
    const auto warm = [&] {
      auto env = spans.time("exp.simenv_ctor", [&] {
        return std::make_unique<exp::SimEnv>(seed, options.env);
      });
      mark = events();
      spans.time("simcore.warmup", [&] { env->warmup(); });
      warmup_events += events() - mark;
      ++warmups;
      warm_states.push_back(snapshot_digest(env->snapshot()));
      return env;
    };
    {
      auto env = warm();
      const auto snapshot =
          spans.time("telemetry.snapshot", [&] { return env->snapshot(); });
      const auto kube = spans.time(
          "k8s.kube_ranking", [&] { return env->kube_ranking(scenario.config); });
      std::vector<std::size_t> kube_rank;
      for (const auto& scored : kube.ranking) {
        kube_rank.push_back(env->cluster().node_index(scored.name));
      }
      ok = ok && kube_rank == expected.rankings.at("kube_default");
      core::LtsScheduler scheduler(
          core::TelemetryFetcher(env->tsdb(), env->node_names(),
                                 options.env.snapshot),
          model.forest);
      const auto decision = spans.time("core.schedule_from_snapshot", [&] {
        return scheduler.schedule_from_snapshot(snapshot, scenario.config);
      });
      std::vector<std::size_t> ranked;
      for (const auto& p : decision.ranking) {
        ranked.push_back(env->cluster().node_index(p.node));
      }
      ok = ok && ranked == expected.rankings.at("random_forest");
    }
    const std::size_t nodes = expected.node_durations.size();
    for (std::size_t node = 0; node < nodes; ++node) {
      double total = 0.0;
      for (int rep = 0; rep < options.truth_repeats; ++rep) {
        auto env = warm();
        mark = events();
        total += spans
                     .time("spark.run_job",
                           [&] {
                             return env->run_job(
                                 scenario.config, node,
                                 job_seed + 0x9e3779b9ULL *
                                                static_cast<std::uint64_t>(rep));
                           })
                     .duration();
        job_events += events() - mark;
      }
      ok = ok && total / static_cast<double>(options.truth_repeats) ==
                     expected.node_durations[node];
    }
    const double events_per_warmup =
        warmup_events / static_cast<double>(warmups);
    run.eval_library_warmups +=
        (library_events - job_events) / events_per_warmup;
    std::sort(warm_states.begin(), warm_states.end());
    run.eval_distinct_warmups += static_cast<std::size_t>(
        std::unique(warm_states.begin(), warm_states.end()) -
        warm_states.begin());
    run.eval_replayed += 1;
  }
  run.replay_events += events() - replay0 - library_events_total;
  run.check(ok, 1,
            "traced evaluation replay differs from evaluate_methods' "
            "outcomes");
}

exp::EvalOptions eval_options(const Run& run, int num_scenarios) {
  exp::EvalOptions options;
  options.num_scenarios = num_scenarios;
  options.base_seed = run.seeds.eval();
  return options;
}

Methods methods_of(const Model& model) {
  return {{"linear", model.linear},
          {"xgboost", model.xgboost},
          {"random_forest", model.forest}};
}

/// Checks an evaluation's outcomes and records its metrics.
void report_evaluation(Run& run, const exp::EvalResult& result,
                       int num_scenarios) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  bool ok = result.outcomes.size() == static_cast<std::size_t>(num_scenarios);
  for (const auto& outcome : result.outcomes) {
    ok = ok && outcome.node_durations.size() == 6;
    for (const double d : outcome.node_durations) {
      ok = ok && finite_positive(d);
      digest = fnv1a(digest, &d, sizeof d);
    }
  }
  run.check(ok, static_cast<std::size_t>(num_scenarios),
            "evaluation: expected " + std::to_string(num_scenarios) +
                " scenarios with 6 finite positive counterfactual durations "
                "each");
  // Top-1 is a hit-or-miss over 100 scenarios and spreads too widely from
  // one --seed to the next to gate on; the mean rank the forest gives the
  // actual fastest node uses every scenario's whole ranking.
  const auto& forest = result.by_method("random_forest");
  double rank_sum = 0.0;
  for (const auto& outcome : result.outcomes) {
    const auto& ranking = outcome.rankings.at("random_forest");
    rank_sum += static_cast<double>(
        std::find(ranking.begin(), ranking.end(), outcome.fastest_node) -
        ranking.begin() + 1);
  }
  run.metric("fastest_rank_forest",
             rank_sum / static_cast<double>(result.outcomes.size()), "rank");
  run.metric("top2_forest", forest.top2, "ratio");
  run.info["top1_forest"] = forest.top1;
  run.info["top1_xgboost"] = result.by_method("xgboost").top1;
  run.info["top2_xgboost"] = result.by_method("xgboost").top2;
  run.info["regret_forest_s"] = forest.mean_regret;
  run.sim["eval_duration_digest"] = hex64(digest);
  for (const char* method : {"kube_default", "random"}) {
    const auto& acc = result.by_method(method);
    run.sim[std::string(method) + "_top1"] = acc.top1;
    run.sim[std::string(method) + "_top2"] = acc.top2;
  }
}

exp::EvalResult evaluate(Run& run, const Model& model, int num_scenarios) {
  const exp::EvalOptions options = eval_options(run, num_scenarios);
  const Methods methods = methods_of(model);
  auto result = run.spans.time("exp.evaluate_methods", [&] {
    return exp::evaluate_methods(methods, run.matrix, options);
  });
  report_evaluation(run, result, num_scenarios);
  if (run.trace) replay_evaluate(run, model, methods, options, result);
  return result;
}

// ---- streams ------------------------------------------------------------------------

/// One pass of streams: every job's JCT in run order, and each (seed, load)
/// pair's host seconds, per load.
struct StreamPass {
  std::vector<double> jcts;
  std::vector<double> pair_seconds[2];
};

/// The background load (pod count x parallel fetches per pod) sets most of
/// a stream's simulation cost. Left to each stream seed's draw, it makes the
/// cost of 20 streams move by up to half from one --seed to the next.
/// Stream k instead gets cell k of the grid the environment draws from, pod
/// counts fastest; every other input of the stream stays the seed's.
void set_background_cell(exp::EnvOptions& env, int k) {
  const int pod_counts = env.max_background_pods - env.min_background_pods + 1;
  const int fetch_counts =
      env.max_parallel_fetches - env.min_parallel_fetches + 1;
  env.min_background_pods += k % pod_counts;
  env.max_background_pods = env.min_background_pods;
  env.min_parallel_fetches += (k / pod_counts) % fetch_counts;
  env.max_parallel_fetches = env.min_parallel_fetches;
}

/// Runs LTS and kube-default streams at light and heavy load and records the
/// JCT metrics. Every run of the same streams records the same values.
StreamPass streams(Run& run, const std::shared_ptr<const ml::Regressor>& forest,
                   int num_seeds, int num_jobs) {
  const double loads[] = {35.0, 12.0};
  StreamPass out;
  std::vector<double> lts_light, lts_heavy, lts_all, kube_all;
  for (std::size_t load = 0; load < 2; ++load) {
    for (int k = 0; k < num_seeds; ++k) {
      const auto t0 = Clock::now();
      exp::StreamOptions options;
      options.num_jobs = num_jobs;
      options.mean_interarrival = loads[load];
      options.seed = run.seeds.stream(k);
      set_background_cell(options.env, k);
      for (const bool lts : {true, false}) {
        bool ok = true;
        try {
          CacheTally tally(run);
          const auto result = run.spans.time(
              lts ? "exp.run_job_stream.lts" : "exp.run_job_stream.kube", [&] {
                return exp::run_job_stream(
                    lts ? exp::StreamPolicy::kModel
                        : exp::StreamPolicy::kKubeDefault,
                    lts ? forest : nullptr, run.matrix, options);
              });
          ok = result.jobs.size() == static_cast<std::size_t>(num_jobs);
          for (const auto& job : result.jobs) {
            ok = ok && finite_positive(job.duration);
            out.jcts.push_back(job.duration);
            auto& pool = lts ? (load == 0 ? lts_light : lts_heavy) : kube_all;
            pool.push_back(job.duration);
            if (lts) lts_all.push_back(job.duration);
          }
        } catch (const std::exception& e) {
          ok = false;
          run.errors.push_back(std::string("stream: ") + e.what());
        }
        run.check(ok, static_cast<std::size_t>(num_jobs),
                  "stream: every job must complete");
      }
      out.pair_seconds[load].push_back(seconds_since(t0));
    }
  }
  const auto safe = [](const std::vector<double>& xs, double q) {
    return xs.empty() ? 0.0 : (q < 0 ? mean(xs) : percentile(xs, q));
  };
  run.metric("lts_jct_mean_light_s", safe(lts_light, -1), "s");
  run.metric("lts_jct_mean_heavy_s", safe(lts_heavy, -1), "s");
  run.metric("lts_jct_p95_s", safe(lts_all, 95), "s");
  run.metric("kube_jct_mean_s", safe(kube_all, -1), "s");
  run.sim["kube_jct_mean_s"] = safe(kube_all, -1);
  return out;
}

/// Host seconds of one pass of streams with the host's slow spells taken
/// out: the sum over (seed, load) pairs of each pair's fastest pass. Every
/// pass must repeat the first one's JCTs bit for bit.
double stream_seconds(Run& run, const std::vector<StreamPass>& passes) {
  bool same = true;
  for (const auto& pass : passes) same = same && pass.jcts == passes[0].jcts;
  run.check(same, 1, "stream: a later pass changed a JCT");
  double seconds = 0.0;
  for (std::size_t load = 0; load < 2; ++load) {
    std::vector<double> fastest = passes[0].pair_seconds[load];
    for (const auto& pass : passes) {
      for (std::size_t k = 0; k < fastest.size(); ++k) {
        fastest[k] = std::min(fastest[k], pass.pair_seconds[load][k]);
      }
    }
    for (const double s : fastest) seconds += s;
  }
  return seconds;
}

// ---- decisions ----------------------------------------------------------------------

/// Frozen clusters whose TSDB rings are full, as a long-running metrics
/// server's are, and the jobs the decision probe asks about.
struct Fixture {
  std::vector<std::unique_ptr<exp::SimEnv>> envs;
  std::vector<spark::JobConfig> jobs;   // kDecisionJobs distinct jobs
  std::vector<spark::JobConfig> queue;  // the first 16 of them x 4, interleaved
};

/// Distinct templates keep the batch's deduplicated row count (16 x 6) the
/// same for every seed.
Fixture make_fixture(Run& run) {
  Fixture fixture;
  for (std::size_t e = 0; e < kDecisionClusters; ++e) {
    // Cells 0, 3, ..., 21 of the background grid: 1-4 pods and 1-6 fetches
    // each, the same for every --seed, as the streams' cells are.
    exp::EnvOptions options;
    set_background_cell(options, 3 * static_cast<int>(e));
    auto env =
        std::make_unique<exp::SimEnv>(run.seeds.cluster() + e, options);
    env->warmup();
    env->engine().run_until(env->engine().now() + kTsdbFill);
    fixture.envs.push_back(std::move(env));
  }
  Rng rng(run.seeds.queue());
  for (const std::size_t pick :
       rng.sample_without_replacement(run.matrix.size(), kDecisionJobs)) {
    fixture.jobs.push_back(run.matrix[pick].config);
  }
  for (std::size_t q = 0; q < kQueuePods; ++q) {
    fixture.queue.push_back(fixture.jobs[q % kQueueTemplates]);
  }
  return fixture;
}

bool same_decision(const core::Decision& a, const core::Decision& b) {
  if (a.used_fallback != b.used_fallback ||
      a.stale_demoted != b.stale_demoted ||
      a.ranking.size() != b.ranking.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].node != b.ranking[i].node ||
        std::memcmp(&a.ranking[i].predicted_duration,
                    &b.ranking[i].predicted_duration, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Traced-only: times the layers under one decision separately.
void time_decision_layers(Run& run, exp::SimEnv& env,
                          const core::TelemetryFetcher& fetcher,
                          const core::LtsScheduler& scheduler,
                          const ml::Regressor& model,
                          const spark::JobConfig& config, SimTime now) {
  using US = std::chrono::duration<double, std::micro>;
  auto t0 = Clock::now();
  const auto snapshot = run.spans.time("core.TelemetryFetcher.fetch",
                                       [&] { return fetcher.fetch(now); });
  run.fetch_us.push_back(US(Clock::now() - t0).count());

  t0 = Clock::now();
  std::vector<double> x;
  run.spans.time("core.FeatureConstructor.build", [&] {
    for (const auto& node : snapshot.nodes) {
      const auto row = core::FeatureConstructor::build(node, config);
      x.insert(x.end(), row.begin(), row.end());
    }
  });
  run.features_us.push_back(US(Clock::now() - t0).count());

  const std::size_t rows = snapshot.nodes.size();
  std::vector<double> out(rows);
  t0 = Clock::now();
  run.spans.time("ml.predict_batch", [&] {
    model.predict_batch(x, rows, x.size() / rows, out);
  });
  run.predict_seconds += seconds_since(t0);
  run.predict_rows += static_cast<double>(rows);

  t0 = Clock::now();
  run.spans.time("core.schedule_many_from_snapshot", [&] {
    return scheduler.schedule_many_from_snapshot(
        snapshot, std::span<const spark::JobConfig>(&config, 1));
  });
  run.rank_us.push_back(US(Clock::now() - t0).count());

  t0 = Clock::now();
  run.spans.time("k8s.kube_ranking", [&] { return env.kube_ranking(config); });
  run.kube_us.push_back(US(Clock::now() - t0).count());
}

/// The decision probe: a closed loop with one caller over the frozen
/// clusters, so every call can be made again. A pass asks each cluster
/// about every job at queue depth 1 (schedule) and, after every
/// kJobsPerBatch of them, schedules the 64-pod queue in one schedule_many
/// call. The fetcher's cache is off, so every call sweeps the TSDB, as a
/// decision on a live stream does. A call's latency is its fastest pass,
/// and a cluster's schedule_many latency its fastest call; the workloads
/// run other work between passes, so the passes fall in different spells
/// of the host.
class DecisionProbe {
 public:
  DecisionProbe(Run& run, const Fixture& fixture, const Model& model)
      : run_(run),
        fixture_(fixture),
        model_(model),
        decision_us_(fixture.envs.size() * fixture.jobs.size(), kInf),
        batch_seconds_(fixture.envs.size(), kInf),
        first_(decision_us_.size()) {
    fetchers_.reserve(fixture.envs.size());
    for (const auto& env : fixture.envs) {
      fetchers_.emplace_back(env->tsdb(), env->node_names());
      fetchers_.back().set_cache_enabled(false);
      schedulers_.push_back(std::make_unique<core::LtsScheduler>(
          fetchers_.back(), model.forest));
    }
  }

  void pass() {
    constexpr std::size_t kJobsPerBatch = 8;
    const std::size_t jobs = fixture_.jobs.size();
    for (std::size_t e = 0; e < fixture_.envs.size(); ++e) {
      const core::LtsScheduler& scheduler = *schedulers_[e];
      const SimTime now = fixture_.envs[e]->engine().now();
      for (std::size_t j = 0; j < jobs; ++j) {
        auto t0 = Clock::now();
        auto decision = run_.spans.time("core.LtsScheduler.schedule", [&] {
          return scheduler.schedule(fixture_.jobs[j], now);
        });
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        const std::size_t d = e * jobs + j;
        decision_us_[d] = std::min(decision_us_[d], us);
        if (passes_ == 0) {
          first_[d] = std::move(decision);
        } else {
          ++checked_;
          if (!same_decision(first_[d], decision)) ++mismatched_;
        }
        if (run_.trace && passes_ == 0) {
          time_decision_layers(run_, *fixture_.envs[e], fetchers_[e],
                               scheduler, *model_.forest, fixture_.jobs[j],
                               now);
        }
        if ((j + 1) % kJobsPerBatch != 0) continue;
        t0 = Clock::now();
        const auto batch =
            run_.spans.time("core.LtsScheduler.schedule_many", [&] {
              return scheduler.schedule_many(fixture_.queue, now);
            });
        batch_seconds_[e] = std::min(batch_seconds_[e], seconds_since(t0));
        // Every queued job has had its own decision once the pass has
        // asked about the first kQueueTemplates jobs.
        if (passes_ == 0 && j + 1 == jobs) {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            ++checked_;
            if (!same_decision(batch[i],
                               first_[e * jobs + i % kQueueTemplates])) {
              ++mismatched_;
            }
          }
        }
      }
    }
    ++passes_;
  }

  /// Records the samples and the checks; returns the number of passes.
  int finish() {
    run_.check(mismatched_ == 0 && checked_ > 0, checked_,
               "decisions: schedule_many differs from per-pod schedule, or a "
               "decision differs from the same call on another pass");
    run_.decision_us = decision_us_;
    run_.batch_seconds = batch_seconds_;
    return passes_;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  Run& run_;
  const Fixture& fixture_;
  const Model& model_;
  std::vector<core::TelemetryFetcher> fetchers_;
  std::vector<std::unique_ptr<core::LtsScheduler>> schedulers_;
  std::vector<double> decision_us_;
  std::vector<double> batch_seconds_;
  std::vector<core::Decision> first_;
  std::size_t checked_ = 0, mismatched_ = 0;
  int passes_ = 0;
};

// ---- workloads ------------------------------------------------------------------------

/// The outputs of table4's timed pipeline and, when it ran in chunks, each
/// chunk's host seconds.
struct Pipeline {
  CsvTable corpus;
  Model model;
  exp::EvalResult eval;
  std::vector<double> chunk_seconds;
};

exp::CollectorOptions batch_corpus_options(const Run& run) {
  exp::CollectorOptions options;
  options.repeats = kBatchRepeats;
  options.base_seed = run.seeds.batch_corpus();
  return options;
}

/// Fits the three families through train_and_evaluate (holdout 0.2), as
/// bench_table4_accuracy does; `call(span, fit)` makes each fit.
template <typename Call>
Model fit_families(Run& run, const ml::Dataset& data, Call&& call) {
  Model model;
  const struct {
    const char* family;
    const char* span;
    std::shared_ptr<const ml::Regressor>* slot;
  } families[] = {{"linear", "core.train.linear", &model.linear},
                  {"xgboost", "core.train.xgboost", &model.xgboost},
                  {"random_forest", "core.train.random_forest", &model.forest}};
  for (const auto& f : families) {
    std::unique_ptr<ml::Regressor> fitted;
    const auto report = call(f.span, [&] {
      return core::Trainer::train_and_evaluate(f.family, data, 0.2, 5, Json(),
                                               &fitted);
    });
    run.check(!report.skipped && fitted != nullptr, 1,
              std::string("training skipped: ") + f.family);
    *f.slot = std::move(fitted);
  }
  return model;
}

/// The pipeline as three whole library calls, with the traced replays; the
/// traced run's reference for the chunked pipeline.
Pipeline table4_whole(Run& run) {
  Pipeline p;
  p.corpus = collect(run, batch_corpus_options(run));
  const ml::Dataset data = core::Trainer::dataset_from_log(p.corpus);
  p.model = fit_families(run, data, [&](const char* span, auto&& fit) {
    return run.spans.time(span, fit);
  });
  p.eval = evaluate(run, p.model, kEvalScenarios);
  time_holdout_predict(run, *p.model.forest, data);
  return p;
}

/// The evaluation of every scenario from one-scenario evaluations in
/// scenario order, summed and divided as evaluate_methods does.
exp::EvalResult join_evaluations(const std::vector<exp::EvalResult>& parts) {
  exp::EvalResult all;
  all.accuracy = parts.front().accuracy;
  for (auto& acc : all.accuracy) {
    acc.top1 = acc.top2 = acc.mean_regret = 0.0;
    acc.scenarios = static_cast<int>(parts.size());
  }
  for (const auto& part : parts) {
    all.outcomes.push_back(part.outcomes.at(0));
    for (std::size_t m = 0; m < all.accuracy.size(); ++m) {
      all.accuracy[m].top1 += part.accuracy.at(m).top1;
      all.accuracy[m].top2 += part.accuracy.at(m).top2;
      all.accuracy[m].mean_regret += part.accuracy.at(m).mean_regret;
    }
  }
  const auto n = static_cast<double>(parts.size());
  for (auto& acc : all.accuracy) {
    acc.top1 /= n;
    acc.top2 /= n;
    acc.mean_regret /= n;
  }
  return all;
}

/// The pipeline in chunks of a fraction of a second to a few seconds, each
/// timed: the corpus one scenario at a time, the dataset, the three fits,
/// and the evaluation one scenario at a time. collect_training_data on one
/// scenario, with the base seed moved as sample_seed moves it for that
/// scenario, gives every sample the seed it has in the call over the whole
/// matrix; evaluate_methods on one scenario with that scenario's seed as its
/// base gives the scenario's outcome in the whole evaluation. The chunks do
/// the work of the whole calls, plus the throwaway SimEnv that
/// collect_training_data builds per call. Traced runs check that the
/// outputs are the same.
Pipeline table4_chunked(Run& run) {
  Pipeline p;
  const auto chunk = [&](const char*, auto&& work) {
    const auto t0 = Clock::now();
    auto out = work();
    p.chunk_seconds.push_back(seconds_since(t0));
    return out;
  };
  const exp::CollectorOptions corpus = batch_corpus_options(run);
  for (std::size_t s = 0; s < run.matrix.size(); ++s) {
    exp::CollectorOptions one = corpus;
    one.base_seed = exp::sample_seed(corpus, s, 0, 0);
    const std::vector<exp::Scenario> scenario{run.matrix[s]};
    const CsvTable part = chunk("", [&] {
      return exp::collect_training_data(scenario, one);
    });
    if (s == 0) p.corpus = CsvTable(part.header());
    for (std::size_t r = 0; r < part.num_rows(); ++r) {
      p.corpus.add_row(part.row(r));
    }
  }
  const ml::Dataset data =
      chunk("", [&] { return core::Trainer::dataset_from_log(p.corpus); });
  p.model = fit_families(run, data, chunk);
  const exp::EvalOptions eval = eval_options(run, kEvalScenarios);
  const Methods methods = methods_of(p.model);
  std::vector<exp::EvalResult> parts;
  for (int s = 0; s < eval.num_scenarios; ++s) {
    exp::EvalOptions one = eval;
    one.num_scenarios = 1;
    one.base_seed = eval.base_seed + 7919ULL * static_cast<std::uint64_t>(s);
    parts.push_back(chunk("", [&] {
      return exp::evaluate_methods(methods, run.matrix, one);
    }));
  }
  p.eval = join_evaluations(parts);
  return p;
}

bool same_pipeline(const Pipeline& a, const Pipeline& b) {
  bool same = csv_bytes(a.corpus) == csv_bytes(b.corpus) &&
              a.eval.outcomes.size() == b.eval.outcomes.size() &&
              a.eval.accuracy.size() == b.eval.accuracy.size();
  for (std::size_t i = 0; same && i < a.eval.outcomes.size(); ++i) {
    same = same_outcome(a.eval.outcomes[i], b.eval.outcomes[i]);
  }
  for (std::size_t m = 0; same && m < a.eval.accuracy.size(); ++m) {
    const auto& x = a.eval.accuracy[m];
    const auto& y = b.eval.accuracy[m];
    same = x.method == y.method && x.top1 == y.top1 && x.top2 == y.top2 &&
           x.mean_regret == y.mean_regret;
  }
  return same;
}

/// Stream-matched forest (residual-job corpus), as bench_ext_e2e_stream.
ml::Dataset stream_matched_setup(Run& run, Model& model) {
  exp::CollectorOptions collect_options;
  collect_options.repeats = kStreamCorpusRepeats;
  collect_options.base_seed = run.seeds.stream_corpus();
  collect_options.residual_job = true;
  ml::Dataset data =
      core::Trainer::dataset_from_log(collect(run, collect_options));
  model.forest = train(run, "random_forest", "core.train.random_forest", data);
  return data;
}

void train_quality_models(Run& run, Model& model, const ml::Dataset& data) {
  model.linear = train(run, "linear", "core.train.linear", data);
  model.xgboost = train(run, "xgboost", "core.train.xgboost", data);
  if (run.trace) time_holdout_predict(run, *model.forest, data);
}

void run_table4(Run& run) {
  // The pipeline's inputs are the scenario matrix and constant options; the
  // only fixture the run builds is the decision probe's frozen clusters.
  // It is built once before the pipeline and once after each pass of it, so
  // that the builds fall in different spells of the host, and the median
  // build is reported. The decision probe's passes follow the builds.
  std::vector<double> setups;
  const auto build_fixture = [&] {
    const auto t0 = Clock::now();
    Fixture built = make_fixture(run);
    setups.push_back(seconds_since(t0));
    return built;
  };
  const Fixture fixture = build_fixture();

  // Untraced, the chunked pipeline runs kPipelinePasses times and wall_s
  // sums each chunk's fastest pass. Traced, the whole calls run with their
  // replays, and then one chunked pass that must give the same outputs.
  std::vector<Pipeline> passes;
  Model model;
  std::unique_ptr<DecisionProbe> probe;
  double timed_s = 0.0;
  for (int p = 0; p < kPipelinePasses; ++p) {
    const auto t0 = Clock::now();
    passes.push_back(run.spans.time("phase.timed", [&] {
      return run.trace && p == 0 ? table4_whole(run) : table4_chunked(run);
    }));
    timed_s += seconds_since(t0);
    if (p == 0) model = passes[0].model;
    run.spans.time("phase.probe", [&] {
      build_fixture();
      if (!probe) probe = std::make_unique<DecisionProbe>(run, fixture, model);
      probe->pass();
    });
  }
  run.metric("setup_s", percentile(setups, 50), "s");
  run.info["timed_phase_s"] = timed_s;
  bool same = true;
  for (const auto& pass : passes) same = same && same_pipeline(pass, passes[0]);
  run.check(same, 1,
            run.trace ? "table4: the chunked pipeline differs from the whole "
                        "library calls"
                      : "table4: a later pass changed the corpus or an "
                        "evaluation outcome");
  if (!run.trace) {
    check_corpus(run, passes[0].corpus, kBatchRepeats);
    report_evaluation(run, passes[0].eval, kEvalScenarios);
  }
  std::vector<double> fastest = passes.back().chunk_seconds;
  for (const auto& pass : passes) {
    for (std::size_t i = 0; i < pass.chunk_seconds.size(); ++i) {
      fastest[i] = std::min(fastest[i], pass.chunk_seconds[i]);
    }
  }
  double wall_s = 0.0;
  for (const double s : fastest) wall_s += s;
  run.metric("wall_s", wall_s, "s");

  run.spans.time("phase.probe", [&] {
    streams(run, model.forest, kStreamProbeSeeds, kStreamProbeJobs);
    for (int p = kPipelinePasses; p < kProbePasses; ++p) probe->pass();
    run.info["passes"] = probe->finish();
  });
}

void run_live_stream(Run& run) {
  Model model;
  auto t0 = Clock::now();
  const ml::Dataset data = run.spans.time(
      "phase.setup", [&] { return stream_matched_setup(run, model); });
  const Fixture fixture = make_fixture(run);
  run.metric("setup_s", seconds_since(t0), "s");

  // The streams run three times. The decision probe's passes and the other
  // probes run between them, so each stream pair's passes fall in different
  // spells of the host; wall_s sums each pair's fastest pass.
  std::vector<StreamPass> passes;
  t0 = Clock::now();
  passes.push_back(run.spans.time("phase.timed", [&] {
    return streams(run, model.forest, kStreamSeeds, kStreamJobs);
  }));
  run.info["first_pass_s"] = seconds_since(t0);
  run.spans.time("phase.probe", [&] {
    DecisionProbe probe(run, fixture, model);
    probe.pass();
    train_quality_models(run, model, data);
    passes.push_back(streams(run, model.forest, kStreamSeeds, kStreamJobs));
    probe.pass();
    evaluate(run, model, kEvalProbeScenarios);
    passes.push_back(streams(run, model.forest, kStreamSeeds, kStreamJobs));
    probe.pass();
    run.info["passes"] = probe.finish();
  });
  run.metric("wall_s", stream_seconds(run, passes), "s");
}

// ---- report ----------------------------------------------------------------------------

void finish_metrics(Run& run) {
  run.metric("decision_p50_us", percentile(run.decision_us, 50), "us");
  run.metric("decision_p95_us", percentile(run.decision_us, 95), "us");
  run.metric("batch_decisions_per_s",
             static_cast<double>(kQueuePods) /
                 percentile(run.batch_seconds, 50),
             "1/s");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
  run.metric("ok_ratio",
             1.0 - static_cast<double>(run.failed) /
                       static_cast<double>(std::max<std::size_t>(
                           run.attempted, 1)),
             "ratio");
  run.info["decisions"] = run.decision_us.size();
  run.info["batch_calls"] = run.batch_seconds.size();
  if (!run.trace) return;

  const Spans& s = run.spans;
  run.layer_metric("exp.evaluate_s", s.total("exp.evaluate_methods"), "s");
  run.layer_metric("exp.stream_lts_s", s.total("exp.run_job_stream.lts"),
                   "s");
  run.layer_metric("exp.stream_kube_s", s.total("exp.run_job_stream.kube"),
                   "s");
  run.layer_metric("exp.eval_warmups_per_scenario",
                   run.eval_library_warmups /
                       static_cast<double>(run.eval_replayed),
                   "count");
  run.layer_metric("exp.eval_distinct_warmup_ratio",
                   static_cast<double>(run.eval_distinct_warmups) /
                       run.eval_library_warmups,
                   "ratio");
  run.layer_metric("exp.simenv_ctor_s", s.total("exp.simenv_ctor"), "s");
  const double warmup_s = s.total("simcore.warmup");
  const double run_job_s = s.total("spark.run_job");
  run.layer_metric("simcore.warmup_s", warmup_s, "s");
  run.layer_metric("simcore.warmups",
                   static_cast<double>(s.count("simcore.warmup")), "count");
  run.layer_metric("simcore.events", run.replay_events, "count");
  run.layer_metric("simcore.events_per_s",
                   run.replay_events / (warmup_s + run_job_s), "1/s");
  run.layer_metric("net.rate_recomputes",
                   counter_value("lts_net_rate_recomputes_total"), "count");
  run.layer_metric(
      "net.recompute_s",
      obs::histogram("lts_net_rate_recompute_duration_seconds",
                     {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2})
          .sum(),
      "s");
  run.layer_metric("spark.run_job_s", run_job_s, "s");
  run.layer_metric("spark.jobs", static_cast<double>(s.count("spark.run_job")),
                   "count");
  run.layer_metric("telemetry.snapshot_s", s.total("telemetry.snapshot"), "s");
  run.layer_metric("telemetry.fetch_p50_us", percentile(run.fetch_us, 50),
                   "us");
  run.layer_metric("telemetry.fetch_p95_us", percentile(run.fetch_us, 95),
                   "us");
  run.layer_metric("k8s.kube_ranking_us", mean(run.kube_us), "us");
  for (const char* family : {"linear", "xgboost", "random_forest"}) {
    const std::string span = std::string("core.train.") + family;
    const std::string name = std::string("core.train_s.") + family;
    run.layer_metric(name.c_str(), s.total(span.c_str()), "s");
  }
  run.layer_metric("core.features_us", percentile(run.features_us, 50), "us");
  run.layer_metric("core.rank_us", percentile(run.rank_us, 50), "us");
  run.layer_metric("core.decisions",
                   counter_value("lts_scheduler_decisions_total"), "count");
  run.layer_metric("core.snapshot_cache_hit_ratio",
                   run.cache_hits / std::max(run.cache_hits + run.cache_misses,
                                             1.0),
                   "ratio");
  run.layer_metric("ml.predict_rows_per_s",
                   run.predict_rows / run.predict_seconds, "1/s");
}

int usage() {
  std::fprintf(stderr,
               "usage: lts_perfbench --workload table4|live_stream "
               "--seed N --seconds S --trace 0|1 --trace-out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      run.seconds = std::stod(value);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || run.seconds <= 0.0 || trace_out.empty()) {
    return usage();
  }
  run.seeds = Seeds(run.seed);
  run.spans = Spans(run.trace);
  obs::MetricsRegistry::global().set_enabled(run.trace);

  run.info["workload"] = run.workload;
  run.info["seed"] = static_cast<double>(run.seed);
  run.info["compiler"] = "g++ " __VERSION__;
  run.info["build_type"] = LTS_BENCH_BUILD_TYPE;
  run.info["flags"] = LTS_BENCH_FLAGS;
  run.info["nproc"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  run.info["thread_pool"] = ThreadPool::global().size();

  try {
    if (run.workload == "table4") {
      run_table4(run);
    } else if (run.workload == "live_stream") {
      run_live_stream(run);
    } else {
      return usage();
    }
    finish_metrics(run);
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("exception: ") + e.what());
    run.failed = std::max<std::size_t>(run.failed, 1);
  }
  if (run.trace) run.spans.write_csv(trace_out);

  Json result = Json::object();
  result["info"] = run.info;
  result["attempted"] = run.attempted;
  result["failed"] = run.failed;
  result["errors"] = JsonArray(run.errors.begin(), run.errors.end());
  result["sim"] = run.sim;
  result["end_to_end"] = run.e2e;
  result["per_layer"] = run.layer;
  std::printf("RESULT %s\n", result.dump().c_str());
  return run.errors.empty() ? 0 : 1;
}
