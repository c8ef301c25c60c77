// Substrate microbenchmarks: raw throughput of the simulator layers, to
// back the claim that full-scale data collection (3600 jobs) is cheap.
#include <benchmark/benchmark.h>

#include "exp/benchio.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "telemetry/tsdb.hpp"

namespace {

using namespace lts;

/// Re-arms itself 1 ms after each firing until it has fired 10000 times:
/// the engine's schedule, step and dispatch loop and nothing else.
class Ticker final : public sim::EventTarget {
 public:
  explicit Ticker(sim::Engine& engine)
      : engine_(engine), target_(engine.add_target(this)) {}
  ~Ticker() { engine_.remove_target(target_); }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  void arm() { engine_.schedule_in(0.001, sim::target_event(target_)); }
  void on_event(const sim::Event& /*event*/) override {
    if (++fired < 10000) arm();
  }
  const char* target_name() const override { return "Ticker"; }

  int fired = 0;

 private:
  sim::Engine& engine_;
  std::uint32_t target_;
};

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    Ticker ticker(engine);
    ticker.arm();
    engine.run();
    benchmark::DoNotOptimize(ticker.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_FlowFairShareRecompute(benchmark::State& state) {
  const auto n_flows = static_cast<int>(state.range(0));
  sim::Engine engine;
  net::Topology topo;
  const auto a = topo.add_host("a");
  const auto b = topo.add_host("b");
  const auto r = topo.add_router("r");
  topo.add_duplex_link(a, r, 1e9, 1e-4);
  topo.add_duplex_link(r, b, 1e8, 1e-3);
  net::FlowManager fm(engine, topo);
  for (int i = 0; i < n_flows - 1; ++i) {
    fm.start(a, b, 1e12);  // long-lived background flows
  }
  for (auto _ : state) {
    // start/cancel only mark the solver dirty now; observing a host rate
    // forces the flush, so each iteration still measures two full max-min
    // recomputations over n_flows.
    const auto id = fm.start(a, b, 1e12);
    benchmark::DoNotOptimize(fm.host_tx_rate(a));
    fm.cancel(id);
    benchmark::DoNotOptimize(fm.host_tx_rate(a));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_FlowFairShareRecompute)->Arg(4)->Arg(32)->Arg(128);

void BM_TsdbAppendQuery(benchmark::State& state) {
  telemetry::Tsdb tsdb;
  const telemetry::Labels labels{{"node", "node-1"}};
  double t = 0.0;
  for (auto _ : state) {
    tsdb.append("metric", labels, t, t * 2.0);
    benchmark::DoNotOptimize(tsdb.rate("metric", labels, t, 30.0));
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TsdbAppendQuery);

// The same with the exporters' append: the series is interned once and
// every sample appended by id, with no key encoding or lookup.
void BM_TsdbAppendByIdQuery(benchmark::State& state) {
  telemetry::Tsdb tsdb;
  const telemetry::Labels labels{{"node", "node-1"}};
  const telemetry::SeriesId id = tsdb.intern("metric", labels);
  double t = 0.0;
  for (auto _ : state) {
    tsdb.append(id, t, t * 2.0);
    benchmark::DoNotOptimize(tsdb.rate("metric", labels, t, 30.0));
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TsdbAppendByIdQuery);

void BM_EnvWarmup(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    exp::SimEnv env(seed++);
    env.warmup();
    benchmark::DoNotOptimize(env.snapshot());
  }
}
BENCHMARK(BM_EnvWarmup)->Unit(benchmark::kMillisecond);

void BM_FullJobSimulation(benchmark::State& state) {
  spark::JobConfig job;
  job.app = spark::AppType::kSort;
  job.input_records = 1000000;
  job.executors = 4;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    exp::SimEnv env(seed++);
    env.warmup();
    benchmark::DoNotOptimize(env.run_job(job, 0, seed));
  }
}
BENCHMARK(BM_FullJobSimulation)->Unit(benchmark::kMillisecond);

// The fork that replaces a warmup: copy one warm environment, then run the
// same Sort job on the copy. Against BM_FullJobSimulation this is the
// evaluation's per-counterfactual saving; BM_EnvCopy isolates the copy.
void BM_EnvCopy(benchmark::State& state) {
  exp::SimEnv warm(1);
  warm.warmup();
  for (auto _ : state) {
    exp::SimEnv env(warm);
    benchmark::DoNotOptimize(env.engine().num_pending());
  }
}
BENCHMARK(BM_EnvCopy)->Unit(benchmark::kMillisecond);

void BM_ForkedJobSimulation(benchmark::State& state) {
  spark::JobConfig job;
  job.app = spark::AppType::kSort;
  job.input_records = 1000000;
  job.executors = 4;
  exp::SimEnv warm(1);
  warm.warmup();
  for (auto _ : state) {
    exp::SimEnv env(warm);
    benchmark::DoNotOptimize(env.run_job(job, 0, 2));
  }
}
BENCHMARK(BM_ForkedJobSimulation)->Unit(benchmark::kMillisecond);

// Cost of a permanently-instrumented hot path: disabled, a counter inc is a
// relaxed load + branch; enabled, it adds an atomic fetch_add. Both must be
// far below the cost of any simulated event.
void BM_ObsCounterDisabled(benchmark::State& state) {
  auto& registry = obs::MetricsRegistry::global();
  registry.set_enabled(false);
  auto& counter = registry.counter("bench_disabled_total");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(&counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterDisabled);

void BM_ObsCounterEnabled(benchmark::State& state) {
  auto& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  auto& counter = registry.counter("bench_enabled_total");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(&counter);
  }
  registry.set_enabled(false);  // leave the shared registry as it was found
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterEnabled);

// The full simulation stack with the registry enabled: the acceptance bar
// is that this stays within noise of BM_EnvWarmup (instrumentation must
// not tax the event loop, the flow solver, or TSDB ingestion noticeably).
void BM_EnvWarmupObserved(benchmark::State& state) {
  auto& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    exp::SimEnv env(seed++);
    env.warmup();
    benchmark::DoNotOptimize(env.snapshot());
  }
  registry.set_enabled(false);
}
BENCHMARK(BM_EnvWarmupObserved)->Unit(benchmark::kMillisecond);

// Console output for humans plus a BENCH_sim_microbench.json artifact for
// CI, through the same exp::BenchReport writer bench_flow_scale uses.
class JsonWriterReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonWriterReporter(exp::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      report_.add(run.benchmark_name(), "real_time", run.GetAdjustedRealTime(),
                  benchmark::GetTimeUnitString(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  exp::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  lts::exp::BenchReport report("sim_microbench");
  JsonWriterReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.write("BENCH_sim_microbench.json");
  return 0;
}
