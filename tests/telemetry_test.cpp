// Unit tests for the telemetry stack: series storage, TSDB queries,
// exporters, and snapshot construction.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/background.hpp"
#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/promql.hpp"
#include "telemetry/series.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/tsdb.hpp"

namespace lts::telemetry {
namespace {

// ------------------------------------------------------------- series ----

TEST(Series, AppendAndLatest) {
  Series s(8);
  EXPECT_TRUE(s.empty());
  s.append(1.0, 10.0);
  s.append(2.0, 20.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.latest().v, 20.0);
  EXPECT_DOUBLE_EQ(s.at(0).v, 10.0);
}

TEST(Series, RingBufferEvictsOldest) {
  Series s(3);
  for (int i = 0; i < 5; ++i) s.append(i, i * 10.0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.at(0).v, 20.0);  // 0 and 1 evicted
  EXPECT_DOUBLE_EQ(s.latest().v, 40.0);

  // The ring grows on demand, then wraps: across many wraps a series keeps
  // exactly the newest `capacity` samples, oldest first, and its window
  // queries see only those — including a counter reset that ages out.
  Series grown(5);
  EXPECT_EQ(grown.capacity(), 5u);
  for (int i = 0; i < 23; ++i) {
    const double v = i == 10 ? 0.0 : i * 10.0;  // one reset, at t = 10
    grown.append(i, v);
    ASSERT_EQ(grown.size(), std::min<std::size_t>(i + 1, 5));
    for (std::size_t k = 0; k < grown.size(); ++k) {
      const int t = i + 1 - static_cast<int>(grown.size()) +
                    static_cast<int>(k);
      EXPECT_DOUBLE_EQ(grown.at(k).t, t) << i << " " << k;
    }
    if (i == 12) {
      EXPECT_EQ(grown.num_decreases_between(9.0, 12.0), 1u);
    }
  }
  EXPECT_EQ(grown.capacity(), 5u);
  const auto window = grown.range(19.0, 21.0);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_DOUBLE_EQ(window.front().v, 190.0);
  EXPECT_EQ(grown.num_decreases_between(0.0, 100.0), 0u);  // aged out

  // A copied series is independent of its source from then on.
  Series copy = grown;
  copy.append(30.0, 999.0);
  EXPECT_DOUBLE_EQ(copy.latest().v, 999.0);
  EXPECT_DOUBLE_EQ(grown.latest().v, 220.0);
  EXPECT_DOUBLE_EQ(copy.at(0).t, 19.0);
  EXPECT_DOUBLE_EQ(grown.at(0).t, 18.0);
}

TEST(Series, RangeQuery) {
  Series s(16);
  for (int i = 0; i < 10; ++i) s.append(i, i);
  const auto r = s.range(3.0, 6.0);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r.front().t, 3.0);
  EXPECT_DOUBLE_EQ(r.back().t, 6.0);
}

TEST(Series, NonMonotoneTimestampDropped) {
  // A sample older than the newest retained one is a late arrival (delayed
  // exporter pipeline): dropped, not a crash.
  Series s(4);
  EXPECT_TRUE(s.append(5.0, 1.0));
  EXPECT_FALSE(s.append(4.0, 99.0));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.latest().v, 1.0);
  EXPECT_TRUE(s.append(5.0, 2.0));  // equal allowed
}

TEST(Series, IndexOutOfRangeThrows) {
  Series s(4);
  EXPECT_THROW(s.latest(), Error);
  EXPECT_THROW(s.at(0), Error);
}

// --------------------------------------------------------------- tsdb ----

TEST(Tsdb, SeriesKeyEncoding) {
  EXPECT_EQ(encode_series_key("m", {}), "m{}");
  EXPECT_EQ(encode_series_key("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
}

TEST(Tsdb, LatestAndMissing) {
  Tsdb tsdb;
  const Labels labels{{"node", "n1"}};
  EXPECT_FALSE(tsdb.latest("cpu", labels).has_value());
  tsdb.append("cpu", labels, 1.0, 0.5);
  tsdb.append("cpu", labels, 2.0, 0.7);
  EXPECT_DOUBLE_EQ(tsdb.latest("cpu", labels).value(), 0.7);
  EXPECT_FALSE(tsdb.latest("cpu", Labels{{"node", "n2"}}).has_value());
}

TEST(Tsdb, EpochAdvancesOnEveryMutationPath) {
  // Snapshot caches key on epoch(): an unchanged value promises that every
  // query would return exactly what it returned last fetch. Each mutation
  // path must therefore advance it — accepted appends, DROPPED appends
  // (out-of-order samples still change num_samples_dropped, which callers
  // may read), and the explicit out-of-band bump.
  Tsdb tsdb;
  const Labels labels{{"node", "n1"}};
  std::uint64_t last = tsdb.epoch();
  const auto expect_bump = [&](const char* what) {
    EXPECT_GT(tsdb.epoch(), last) << what;
    last = tsdb.epoch();
  };
  tsdb.append("cpu", labels, 1.0, 0.5);
  expect_bump("accepted append");
  tsdb.append("cpu", labels, 0.5, 0.4);  // out of order: dropped
  EXPECT_EQ(tsdb.num_samples_dropped(), 1u);
  expect_bump("dropped append");
  tsdb.bump_epoch();
  expect_bump("explicit bump");
  // Queries are reads: no bump.
  (void)tsdb.latest("cpu", labels);
  (void)tsdb.rate("cpu", labels, 1.0, 1.0);
  EXPECT_EQ(tsdb.epoch(), last);
}

TEST(Tsdb, CounterRate) {
  Tsdb tsdb;
  const Labels labels{{"node", "n1"}};
  // Counter increasing 100 bytes/sec.
  for (int t = 0; t <= 30; t += 5) {
    tsdb.append("tx", labels, t, t * 100.0);
  }
  EXPECT_NEAR(tsdb.rate("tx", labels, 30.0, 30.0), 100.0, 1e-9);
  // Narrow window uses only the samples inside it.
  EXPECT_NEAR(tsdb.rate("tx", labels, 30.0, 10.0), 100.0, 1e-9);
  // Missing series or single sample -> 0.
  EXPECT_DOUBLE_EQ(tsdb.rate("nope", labels, 30.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(tsdb.rate("tx", labels, 2.0, 1.0), 0.0);
}

TEST(Tsdb, RateHandlesCounterReset) {
  // Prometheus rate() semantics: a sample lower than its predecessor means
  // the counter restarted from zero, so the post-reset value is the
  // increase since the reset. The rate must never go negative.
  auto& registry = obs::MetricsRegistry::global();
  auto& resets = obs::counter("telemetry_counter_resets_total");
  registry.set_enabled(true);
  const double before = resets.value();

  Tsdb tsdb;
  const Labels labels{{"node", "n1"}};
  // 0, 500, 1000 bytes ... crash ... restart at 0, 500, 1000.
  tsdb.append("tx", labels, 0.0, 0.0);
  tsdb.append("tx", labels, 5.0, 500.0);
  tsdb.append("tx", labels, 10.0, 1000.0);
  tsdb.append("tx", labels, 15.0, 0.0);  // reset
  tsdb.append("tx", labels, 20.0, 500.0);
  tsdb.append("tx", labels, 25.0, 1000.0);
  const double r = tsdb.rate("tx", labels, 25.0, 25.0);
  registry.set_enabled(false);

  // Naive (last-first)/dt would be (1000-0)/25 = 40 only by luck here; with
  // a window ending right after the reset it would be negative. The
  // corrected increase is 1000 + 0 + 1000 = 2000 over 25s = 80.
  EXPECT_NEAR(r, 80.0, 1e-9);
  EXPECT_GE(r, 0.0);
  EXPECT_DOUBLE_EQ(resets.value() - before, 1.0);

  // Window straddling just the reset: naive rate is negative, fixed is not.
  EXPECT_GE(tsdb.rate("tx", labels, 15.0, 5.0), 0.0);
}

TEST(Tsdb, OutOfOrderSamplesDroppedAndCounted) {
  auto& registry = obs::MetricsRegistry::global();
  auto& dropped = obs::counter("telemetry_out_of_order_dropped_total");
  registry.set_enabled(true);
  const double before = dropped.value();

  Tsdb tsdb;
  const Labels labels{{"node", "n1"}};
  tsdb.append("cpu", labels, 10.0, 0.5);
  tsdb.append("cpu", labels, 8.0, 0.9);  // late arrival: dropped
  tsdb.append("cpu", labels, 12.0, 0.6);
  registry.set_enabled(false);

  EXPECT_EQ(tsdb.num_samples_dropped(), 1u);
  EXPECT_DOUBLE_EQ(dropped.value() - before, 1.0);
  ASSERT_TRUE(tsdb.latest("cpu", labels).has_value());
  EXPECT_DOUBLE_EQ(tsdb.latest("cpu", labels).value(), 0.6);
  EXPECT_EQ(tsdb.find("cpu", labels)->size(), 2u);
}

TEST(Tsdb, OverTimeAggregations) {
  Tsdb tsdb;
  const Labels labels{};
  for (int t = 0; t < 10; ++t) tsdb.append("m", labels, t, t);
  EXPECT_DOUBLE_EQ(tsdb.avg_over_time("m", labels, 9.0, 4.0).value(), 7.0);
  EXPECT_DOUBLE_EQ(tsdb.max_over_time("m", labels, 9.0, 9.0).value(), 9.0);
  EXPECT_GT(tsdb.stddev_over_time("m", labels, 9.0, 9.0).value(), 0.0);
  EXPECT_FALSE(tsdb.avg_over_time("m", labels, 100.0, 1.0).has_value());
}

TEST(Tsdb, SelectByName) {
  Tsdb tsdb;
  tsdb.append("m", {{"node", "a"}}, 1.0, 1.0);
  tsdb.append("m", {{"node", "b"}}, 1.0, 2.0);
  tsdb.append("other", {}, 1.0, 3.0);
  EXPECT_EQ(tsdb.select("m").size(), 2u);
  EXPECT_EQ(tsdb.select("other").size(), 1u);
  EXPECT_TRUE(tsdb.select("missing").empty());
  EXPECT_EQ(tsdb.num_series(), 3u);
  EXPECT_EQ(tsdb.num_samples(), 3u);
}

// ---------------------------------------------------------- exporters ----

class ExporterFixture : public ::testing::Test {
 protected:
  ExporterFixture()
      : cluster_(engine_, cluster::paper_cluster_spec()),
        stack_(engine_, cluster_, ExporterOptions{}, Rng(9)) {}

  sim::Engine engine_;
  cluster::Cluster cluster_;
  TelemetryStack stack_;
};

TEST_F(ExporterFixture, NodeExporterEmitsAllMetrics) {
  engine_.run_until(20.0);
  for (const auto& name : cluster_.node_names()) {
    const Labels labels{{"node", name}};
    EXPECT_TRUE(stack_.tsdb().latest(kCpuLoadMetric, labels).has_value());
    EXPECT_TRUE(stack_.tsdb().latest(kMemAvailableMetric, labels).has_value());
    EXPECT_TRUE(stack_.tsdb().latest(kTxBytesMetric, labels).has_value());
    EXPECT_TRUE(stack_.tsdb().latest(kRxBytesMetric, labels).has_value());
  }
}

TEST_F(ExporterFixture, PingMeshCoversAllOrderedPairs) {
  engine_.run_until(20.0);
  const auto names = cluster_.node_names();
  int pairs = 0;
  for (const auto& src : names) {
    for (const auto& dst : names) {
      if (src == dst) continue;
      const auto rtt = stack_.tsdb().latest(
          kPingRttMetric, Labels{{"src", src}, {"dst", dst}});
      ASSERT_TRUE(rtt.has_value()) << src << "->" << dst;
      EXPECT_GT(*rtt, 0.0);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 30);
}

TEST_F(ExporterFixture, PingReflectsTopologyAsymmetry) {
  engine_.run_until(30.0);
  const auto intra = stack_.tsdb().latest(
      kPingRttMetric, Labels{{"src", "node-1"}, {"dst", "node-2"}});
  const auto inter = stack_.tsdb().latest(
      kPingRttMetric, Labels{{"src", "node-1"}, {"dst", "node-3"}});
  ASSERT_TRUE(intra.has_value() && inter.has_value());
  EXPECT_LT(*intra, *inter);
}

TEST_F(ExporterFixture, CountersReflectBackgroundTraffic) {
  cluster::BackgroundLoad load(cluster_, 0, 2, {}, Rng(4));
  load.start();
  engine_.run_until(60.0);
  const double rx_rate = stack_.tsdb().rate(
      kRxBytesMetric, Labels{{"node", "node-1"}}, 60.0, 30.0);
  EXPECT_GT(rx_rate, 1e6);  // client pulls ~tens of MB/s
  const double quiet_rate = stack_.tsdb().rate(
      kRxBytesMetric, Labels{{"node", "node-4"}}, 60.0, 30.0);
  EXPECT_LT(quiet_rate, rx_rate / 10.0);
}

TEST_F(ExporterFixture, LoadAverageTracksCpuDemand) {
  cluster_.node(0).cpu().add_persistent(3.0);
  engine_.run_until(120.0);
  const auto load = stack_.tsdb().latest(kCpuLoadMetric,
                                         Labels{{"node", "node-1"}});
  ASSERT_TRUE(load.has_value());
  EXPECT_NEAR(*load, 3.0, 0.2);
}

// ------------------------------------------------------------ snapshot ----

TEST_F(ExporterFixture, SnapshotCarriesTable1Quantities) {
  cluster::BackgroundLoad load(cluster_, 0, 2, {}, Rng(4));
  load.start();
  engine_.run_until(60.0);
  const auto snapshot =
      build_snapshot(stack_.tsdb(), cluster_.node_names(), 60.0);
  ASSERT_EQ(snapshot.nodes.size(), 6u);
  const auto& n1 = snapshot.by_name("node-1");
  EXPECT_GT(n1.rtt_mean, 0.0);
  EXPECT_GE(n1.rtt_max, n1.rtt_mean);
  EXPECT_GE(n1.rtt_std, 0.0);
  EXPECT_GT(n1.rx_rate, 1e6);
  EXPECT_GT(n1.mem_available, 0.0);
  EXPECT_THROW(snapshot.by_name("node-9"), Error);
}

TEST(Snapshot, EmptyTsdbYieldsZeroedEntries) {
  Tsdb tsdb;
  const auto snapshot = build_snapshot(tsdb, {"a", "b"}, 10.0);
  ASSERT_EQ(snapshot.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(snapshot.nodes[0].rtt_mean, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.nodes[0].tx_rate, 0.0);
}

}  // namespace
}  // namespace lts::telemetry

// ------------------------------------------------------------- promql ----

namespace lts::telemetry {
namespace {

TEST(PromQL, ParsesInstantWithSelector) {
  const auto q = parse_promql("node_cpu_load{node=\"node-3\"}");
  EXPECT_EQ(q.function, PromQuery::Function::kInstant);
  EXPECT_EQ(q.metric, "node_cpu_load");
  EXPECT_EQ(q.labels.at("node"), "node-3");
  EXPECT_DOUBLE_EQ(q.range, 0.0);
}

TEST(PromQL, ParsesFunctionsAndDurations) {
  const auto rate = parse_promql(
      "rate(node_network_transmit_bytes_total{node=\"n1\"}[30s])");
  EXPECT_EQ(rate.function, PromQuery::Function::kRate);
  EXPECT_DOUBLE_EQ(rate.range, 30.0);
  const auto avg = parse_promql(
      "avg_over_time(ping_rtt_seconds{src=\"a\",dst=\"b\"}[1m])");
  EXPECT_EQ(avg.function, PromQuery::Function::kAvgOverTime);
  EXPECT_DOUBLE_EQ(avg.range, 60.0);
  EXPECT_EQ(avg.labels.size(), 2u);
  const auto mx = parse_promql("max_over_time(m[2h])");
  EXPECT_DOUBLE_EQ(mx.range, 7200.0);
}

TEST(PromQL, RoundTripsThroughToString) {
  const std::string text =
      "rate(node_network_transmit_bytes_total{node=\"n1\"}[30s])";
  const auto q = parse_promql(text);
  EXPECT_EQ(parse_promql(q.to_string()).to_string(), q.to_string());
}

TEST(PromQL, RejectsMalformedQueries) {
  EXPECT_THROW(parse_promql(""), Error);
  EXPECT_THROW(parse_promql("rate(m[30s)"), Error);
  EXPECT_THROW(parse_promql("m{node=}"), Error);
  EXPECT_THROW(parse_promql("m{node=\"x\"} trailing"), Error);
  EXPECT_THROW(parse_promql("percentile(m[5s])"), Error);
  EXPECT_THROW(parse_promql("rate(m[30x])"), Error);
}

TEST(PromQL, EvaluatesAgainstTsdb) {
  Tsdb tsdb;
  for (int t = 0; t <= 30; t += 5) {
    tsdb.append("tx", {{"node", "a"}}, t, t * 100.0);
    tsdb.append("tx", {{"node", "b"}}, t, t * 200.0);
  }
  // Fully labeled scalar.
  EXPECT_NEAR(promql_scalar("rate(tx{node=\"a\"}[30s])", tsdb, 30.0).value(),
              100.0, 1e-9);
  EXPECT_DOUBLE_EQ(promql_scalar("tx{node=\"b\"}", tsdb, 30.0).value(),
                   6000.0);
  // Unlabeled instant: one result per series.
  const auto all = eval_promql(parse_promql("tx"), tsdb, 30.0);
  EXPECT_EQ(all.size(), 2u);
  // Absent series -> empty.
  EXPECT_FALSE(promql_scalar("tx{node=\"zzz\"}", tsdb, 30.0).has_value());
  // Multi-match scalar is a caller error.
  EXPECT_THROW(promql_scalar("tx", tsdb, 30.0), Error);
}

TEST(PromQL, WorksAgainstLiveExporters) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  TelemetryStack stack(engine, cluster, ExporterOptions{}, Rng(3));
  engine.run_until(30.0);
  const auto rtt = promql_scalar(
      "avg_over_time(ping_rtt_seconds{src=\"node-1\",dst=\"node-3\"}[20s])",
      stack.tsdb(), 30.0);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_GT(*rtt, 0.05);  // cross-country
  const auto load = promql_scalar("node_cpu_load{node=\"node-2\"}",
                                  stack.tsdb(), 30.0);
  EXPECT_TRUE(load.has_value());
}

}  // namespace
}  // namespace lts::telemetry
