// Unit tests for the lts::obs observability layer: metrics registry
// (counters, gauges, histograms, Prometheus/JSON export, enable gating) and
// per-decision trace spans, plus the end-to-end guarantees the rest of the
// simulator relies on (instrumentation never changes simulation results).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "fakes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace lts::obs {
namespace {

using test::ConstantModel;
using test::small_job;

/// Busy-waits at least kSlowMs on steady_clock per prediction call, so a
/// trace that books the model call where it happens shows at least that
/// much wall time between the "features" and "predict" marks. Tests assert
/// lower bounds only: a loaded host can only make the gap larger.
constexpr double kSlowMs = 2.0;

class SlowModel : public ConstantModel {
 public:
  void predict_batch(std::span<const double> x, std::size_t rows,
                     std::size_t cols, std::span<double> out) const override {
    spin();
    ConstantModel::predict_batch(x, rows, cols, out);
  }

 private:
  static void spin() {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double, std::milli>(kSlowMs);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
};

std::vector<std::string> phase_names(const SpanRecord& span) {
  std::vector<std::string> names;
  for (const auto& phase : span.phases) names.push_back(phase.name);
  return names;
}

/// Wall time between two phase marks of a span.
double phase_gap_ms(const SpanRecord& span, const std::string& from,
                    const std::string& to) {
  double from_ms = -1.0, to_ms = -1.0;
  for (const auto& phase : span.phases) {
    if (phase.name == from) from_ms = phase.wall_ms;
    if (phase.name == to) to_ms = phase.wall_ms;
  }
  EXPECT_GE(from_ms, 0.0) << "no phase " << from;
  EXPECT_GE(to_ms, 0.0) << "no phase " << to;
  return to_ms - from_ms;
}

const std::vector<std::string> kSchedulePhases = {"fetch", "features",
                                                  "predict", "rank"};

// ------------------------------------------------------------ registry ----

TEST(MetricsRegistry, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  auto& c = registry.counter("events_total", {}, "help");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same identity -> same instrument; different labels -> a sibling child.
  EXPECT_EQ(&registry.counter("events_total"), &c);
  auto& c2 = registry.counter("events_total", {{"kind", "x"}});
  EXPECT_NE(&c2, &c);
  EXPECT_DOUBLE_EQ(c2.value(), 0.0);

  auto& g = registry.gauge("depth");
  g.set(7.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_EQ(registry.num_instruments(), 3u);
}

TEST(MetricsRegistry, DisabledInstrumentsAreNoOps) {
  MetricsRegistry registry;  // disabled by default
  EXPECT_FALSE(registry.enabled());
  auto& c = registry.counter("c");
  auto& g = registry.gauge("g");
  auto& h = registry.histogram("h", {1.0, 2.0});
  c.inc(100.0);
  g.set(100.0);
  h.observe(1.5);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  // Re-enabling makes the same references live without re-registration.
  registry.set_enabled(true);
  c.inc();
  EXPECT_DOUBLE_EQ(c.value(), 1.0);
}

TEST(MetricsRegistry, KindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("m");
  EXPECT_THROW(registry.gauge("m"), Error);
  EXPECT_THROW(registry.histogram("m", {1.0}), Error);
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  auto& c = registry.counter("c");
  auto& h = registry.histogram("h", {1.0});
  c.inc(5.0);
  h.observe(0.5);
  registry.reset_values();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(&registry.counter("c"), &c);  // same instrument survives
  c.inc();
  EXPECT_DOUBLE_EQ(c.value(), 1.0);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  auto& h = registry.histogram("latency", {1.0, 2.0, 4.0});
  // Prometheus `le` semantics: a value equal to a boundary lands in that
  // boundary's bucket; anything above the last boundary goes to +Inf.
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (inclusive)
  h.observe(1.5);   // le=2
  h.observe(4.0);   // le=4 (inclusive)
  h.observe(100.0);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);

  // Cumulative rendering in the text format, ending in +Inf == count.
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("latency_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"4\"} 4"), std::string::npos);
  EXPECT_NE(text.find("latency_bucket{le=\"+Inf\"} 5"), std::string::npos);
  EXPECT_NE(text.find("latency_count 5"), std::string::npos);
}

TEST(Histogram, BoundariesMustBeSortedAndFixed) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("bad", {2.0, 1.0}), Error);
  auto& h = registry.histogram("h", {1.0, 2.0});
  // Re-registration with different boundaries is a bug, not a new family.
  EXPECT_THROW(registry.histogram("h", {5.0}), Error);
  EXPECT_EQ(&registry.histogram("h", {1.0, 2.0}), &h);
}

TEST(PrometheusText, EscapesLabelValuesAndHelp) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry
      .counter("weird_total", {{"path", "a\\b\"c\nd"}},
               "help with \\ and\nnewline")
      .inc();
  const std::string text = registry.prometheus_text();
  // Label value: backslash, quote, and newline all escaped.
  EXPECT_NE(text.find("weird_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos);
  // HELP line: backslash and newline escaped (quotes stay literal).
  EXPECT_NE(text.find("# HELP weird_total help with \\\\ and\\nnewline"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE weird_total counter"), std::string::npos);
}

TEST(PrometheusText, FamiliesSortedAndTyped) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.gauge("zz_depth").set(3.0);
  registry.counter("aa_total").inc();
  const std::string text = registry.prometheus_text();
  const auto aa = text.find("# TYPE aa_total counter");
  const auto zz = text.find("# TYPE zz_depth gauge");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, zz);
}

// -------------------------------------------------------------- tracer ----

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.begin("span", 1.0);
  tracer.phase("p", 1.0);
  tracer.end(2.0);
  EXPECT_EQ(tracer.num_spans(), 0u);
  {
    ScopedSpan span(tracer, "scoped", 1.0);
    span.phase("p", 1.5);
  }
  EXPECT_EQ(tracer.num_spans(), 0u);
}

TEST(Tracer, SpanRoundTripThroughScheduler) {
  // A schedule() call with the tracer enabled must produce exactly one
  // span walking the pipeline phases in order — and the decision itself
  // must be identical to an untraced call (observation only).
  exp::SimEnv env(11);
  env.warmup();
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names()),
      std::make_shared<ConstantModel>());
  const auto job = small_job();
  const SimTime now = env.engine().now();

  const auto untraced = scheduler.schedule(job, now);

  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const auto traced = scheduler.schedule(job, now);
  tracer.set_enabled(false);

  ASSERT_EQ(tracer.num_spans(), 1u);
  const auto& span = tracer.span(0);
  EXPECT_EQ(span.name, "schedule");
  EXPECT_DOUBLE_EQ(span.sim_begin, now);
  ASSERT_EQ(span.phases.size(), 4u);
  EXPECT_EQ(span.phases[0].name, "fetch");
  EXPECT_EQ(span.phases[1].name, "features");
  EXPECT_EQ(span.phases[2].name, "predict");
  EXPECT_EQ(span.phases[3].name, "rank");
  for (const auto& phase : span.phases) EXPECT_GE(phase.wall_ms, 0.0);

  // JSON round-trip preserves the structure.
  const Json j = Json::parse(tracer.to_json().dump());
  EXPECT_EQ(j.at(0u).at("name").as_string(), "schedule");
  EXPECT_EQ(j.at(0u).at("phases").at(1u).at("name").as_string(), "features");

  // Tracing changed nothing about the decision.
  ASSERT_EQ(traced.ranking.size(), untraced.ranking.size());
  for (std::size_t i = 0; i < traced.ranking.size(); ++i) {
    EXPECT_EQ(traced.ranking[i].node, untraced.ranking[i].node);
    EXPECT_DOUBLE_EQ(traced.ranking[i].predicted_duration,
                     untraced.ranking[i].predicted_duration);
  }
  tracer.clear();
}

TEST(Tracer, ScopedSpanJoinsOpenCallerSpan) {
  // The job-stream runner's pattern: an outer "decision" span is open, the
  // scheduler's reuse_open ScopedSpan contributes phases to it instead of
  // nesting, and the caller appends "bind" afterwards.
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(tracer, "decision", 10.0);
    {
      ScopedSpan inner(tracer, "schedule", 10.0, /*reuse_open=*/true);
      inner.phase("fetch", 10.0);
      inner.phase("rank", 10.0);
    }
    EXPECT_EQ(tracer.num_spans(), 0u);  // inner joined; nothing closed yet
    outer.phase("bind", 12.0);
  }
  ASSERT_EQ(tracer.num_spans(), 1u);
  const auto& span = tracer.span(0);
  EXPECT_EQ(span.name, "decision");
  ASSERT_EQ(span.phases.size(), 3u);
  EXPECT_EQ(span.phases[0].name, "fetch");
  EXPECT_EQ(span.phases[1].name, "rank");
  EXPECT_EQ(span.phases[2].name, "bind");

  // Without an open caller span the same construction owns its own span.
  {
    ScopedSpan solo(tracer, "schedule", 20.0, /*reuse_open=*/true);
    solo.phase("rank", 20.0);
  }
  ASSERT_EQ(tracer.num_spans(), 2u);
  EXPECT_EQ(tracer.span(1).name, "schedule");
}

// Trace truthfulness: each cost lands on the phase of the span that is open
// while it is incurred.

TEST(Tracer, ScheduleBooksModelCallOnPredict) {
  exp::SimEnv env(11);
  env.warmup();
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names()),
      std::make_shared<SlowModel>());
  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  scheduler.schedule(small_job(), env.engine().now());
  tracer.set_enabled(false);

  ASSERT_EQ(tracer.num_spans(), 1u);
  const auto& span = tracer.span(0);
  EXPECT_EQ(span.name, "schedule");
  EXPECT_EQ(phase_names(span), kSchedulePhases);
  EXPECT_GE(phase_gap_ms(span, "features", "predict"), kSlowMs);
  tracer.clear();
}

TEST(Tracer, SnapshotBatchOfOneBooksModelCallOnCallerSpan) {
  // The job-stream runner's pattern: a caller "decision" span is open, the
  // snapshot is fetched outside the scheduler, and the model call must land
  // on that span's predict phase.
  exp::SimEnv env(12);
  env.warmup();
  const SimTime now = env.engine().now();
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names()),
      std::make_shared<SlowModel>());
  const auto snapshot = scheduler.fetcher().fetch(now);
  const auto job = small_job();
  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    ScopedSpan decision(tracer, "decision", now);
    scheduler.schedule_many_from_snapshot(snapshot, {&job, 1});
  }
  tracer.set_enabled(false);

  ASSERT_EQ(tracer.num_spans(), 1u);
  const auto& span = tracer.span(0);
  EXPECT_EQ(span.name, "decision");
  EXPECT_EQ(phase_names(span),
            (std::vector<std::string>{"features", "predict", "rank"}));
  EXPECT_GE(phase_gap_ms(span, "features", "predict"), kSlowMs);
  tracer.clear();
}

TEST(Tracer, ScheduleManyBooksSharedModelCallOnFirstSpan) {
  // One fetch and one model call serve the whole queue; they belong to the
  // first decision's span, and every decision keeps its own span.
  exp::SimEnv env(13);
  env.warmup();
  const SimTime now = env.engine().now();
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names()),
      std::make_shared<SlowModel>());
  std::vector<spark::JobConfig> configs(3, small_job());
  configs[1].input_records *= 2;
  configs[2].app = spark::AppType::kJoin;
  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  scheduler.schedule_many(configs, now);
  tracer.set_enabled(false);

  ASSERT_EQ(tracer.num_spans(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tracer.span(i).name, "schedule") << i;
    EXPECT_EQ(phase_names(tracer.span(i)), kSchedulePhases) << i;
  }
  EXPECT_GE(phase_gap_ms(tracer.span(0), "features", "predict"), kSlowMs);
  tracer.clear();
}

TEST(Tracer, RejectsSpanCallsFromOtherThreads) {
  // Single-threaded by contract: enabling binds the tracer to this thread,
  // and a span call from a pool worker throws instead of racing on the
  // span stack. Disabled, it stays a no-op from anywhere.
  Tracer tracer;
  ThreadPool pool(1);
  const auto from_worker = [&](auto call) { pool.submit(call).get(); };
  EXPECT_NO_THROW(from_worker([&] { tracer.begin("off", 0.0); }));
  tracer.set_enabled(true);
  EXPECT_THROW(from_worker([&] { tracer.begin("worker", 0.0); }), Error);
  tracer.begin("caller", 1.0);
  EXPECT_THROW(from_worker([&] { tracer.phase("rank", 1.0); }), Error);
  EXPECT_THROW(from_worker([&] { tracer.end(1.0); }), Error);
  tracer.phase("rank", 1.0);
  tracer.end(2.0);
  ASSERT_EQ(tracer.num_spans(), 1u);
  EXPECT_EQ(tracer.span(0).name, "caller");
  ASSERT_EQ(tracer.span(0).phases.size(), 1u);
}

// ----------------------------------------------- observation-only proof ----

TEST(Instrumentation, EnabledRegistryDoesNotChangeStreamResults) {
  // The global registry gates every built-in instrument; flipping it on
  // must not perturb a simulation in any way. Run the same small job
  // stream twice and demand bit-identical results.
  exp::StreamOptions options;
  options.num_jobs = 4;
  options.seed = 5;
  options.degraded = true;  // model policy via fallback: no training

  auto& registry = MetricsRegistry::global();
  auto& tracer = Tracer::global();
  ASSERT_FALSE(registry.enabled());
  const auto quiet = exp::run_job_stream(exp::StreamPolicy::kModel, nullptr,
                                         exp::paper_scenario_matrix(),
                                         options);

  registry.set_enabled(true);
  tracer.set_enabled(true);
  const auto observed = exp::run_job_stream(exp::StreamPolicy::kModel,
                                            nullptr,
                                            exp::paper_scenario_matrix(),
                                            options);
  registry.set_enabled(false);
  tracer.set_enabled(false);

  EXPECT_DOUBLE_EQ(observed.makespan, quiet.makespan);
  ASSERT_EQ(observed.jobs.size(), quiet.jobs.size());
  for (std::size_t i = 0; i < quiet.jobs.size(); ++i) {
    EXPECT_EQ(observed.jobs[i].driver_node, quiet.jobs[i].driver_node);
    EXPECT_DOUBLE_EQ(observed.jobs[i].submitted, quiet.jobs[i].submitted);
    EXPECT_DOUBLE_EQ(observed.jobs[i].duration, quiet.jobs[i].duration);
  }
  // And the observed run actually recorded something: decisions counted,
  // one "decision" span per placement attempt.
  EXPECT_GE(obs::counter("lts_scheduler_decisions_total").value(), 4.0);
  EXPECT_GE(tracer.num_spans(), 4u);
  tracer.clear();
}

}  // namespace
}  // namespace lts::obs
