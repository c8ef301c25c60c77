// Unit tests for the telemetry stack: series storage, TSDB queries,
// exporters, and snapshot construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/background.hpp"
#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "recorder.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/promql.hpp"
#include "telemetry/series.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/tsdb.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace lts::telemetry {
namespace {

// ------------------------------------------------------------- series ----

/// The samples of s.window(t_from, t_to), oldest first.
std::vector<Sample> window_samples(const Series& s, SimTime t_from,
                                   SimTime t_to) {
  const auto [first, last] = s.window(t_from, t_to);
  std::vector<Sample> out;
  for (std::size_t i = first; i < last; ++i) out.push_back(s.at(i));
  return out;
}

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
  const auto window = window_samples(grown, 19.0, 21.0);
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

/// The windowed read as a plain scan of every retained sample.
std::vector<Sample> scan_range(const Series& s, SimTime t_from, SimTime t_to) {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.at(i).t >= t_from && s.at(i).t <= t_to) out.push_back(s.at(i));
  }
  return out;
}

void expect_same_samples(const std::vector<Sample>& got,
                         const std::vector<Sample>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t) << what << " sample " << i;
    EXPECT_EQ(got[i].v, want[i].v) << what << " sample " << i;
  }
}

TEST(Series, RangeQuery) {
  Series s(16);
  for (int i = 0; i < 10; ++i) s.append(i, i);
  const auto r = window_samples(s, 3.0, 6.0);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r.front().t, 3.0);
  EXPECT_DOUBLE_EQ(r.back().t, 6.0);

  // A wrapped ring (head mid-buffer) with runs of equal timestamps: every
  // window returns what a scan of all retained samples returns.
  Series ring(7);
  for (int i = 0; i < 19; ++i) ring.append(i / 2, i);  // t = 0,0,1,1,...,9
  ASSERT_EQ(ring.size(), 7u);
  ASSERT_EQ(ring.at(0).t, 6.0);  // oldest retained: t = 6 (v = 12)
  ASSERT_EQ(ring.latest().t, 9.0);
  const struct {
    SimTime from, to;
    const char* what;
    std::size_t want;
  } windows[] = {
      {6.0, 6.0, "oldest edge", 2},
      {-5.0, 6.5, "before and into the oldest edge", 2},
      {9.0, 9.0, "newest edge", 1},
      {8.5, 100.0, "into and past the newest edge", 1},
      {7.0, 8.0, "equal timestamps on both bounds", 4},
      {6.0, 9.0, "the full ring", 7},
      {-1e9, 1e9, "wider than the ring", 7},
      {3.0, 5.5, "empty: before the oldest sample", 0},
      {9.5, 12.0, "empty: after the newest sample", 0},
      {7.2, 7.8, "empty: between two samples", 0},
      {8.0, 7.0, "empty: inverted", 0},
  };
  for (const auto& w : windows) {
    const auto got = window_samples(ring, w.from, w.to);
    EXPECT_EQ(got.size(), w.want) << w.what;
    expect_same_samples(got, scan_range(ring, w.from, w.to), w.what);
  }
  // Every window with bounds on or between the retained timestamps.
  for (int a = 10; a <= 20; ++a) {
    for (int b = a - 1; b <= 20; ++b) {
      expect_same_samples(window_samples(ring, a / 2.0, b / 2.0),
                          scan_range(ring, a / 2.0, b / 2.0), "sweep");
    }
  }
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

TEST(Tsdb, AppendsByIdAndByNameLandInOneSeries) {
  Tsdb tsdb;
  const Labels labels{{"node", "a"}};
  const SeriesId id = tsdb.intern("m", labels);
  EXPECT_EQ(tsdb.intern("m", labels), id);
  EXPECT_NE(tsdb.intern("m", {{"node", "b"}}), id);
  EXPECT_NE(tsdb.intern("other", labels), id);
  tsdb.append(id, 1.0, 10.0);
  tsdb.append("m", labels, 2.0, 20.0);
  tsdb.append(id, 3.0, 30.0);
  EXPECT_EQ(tsdb.num_series(), 1u);
  EXPECT_EQ(tsdb.num_samples(), 3u);
  const Series* series = tsdb.find("m", labels);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 3u);
  EXPECT_EQ(series->at(1).v, 20.0);
  const auto selected = tsdb.select("m");
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected.front().first, labels);
  EXPECT_EQ(selected.front().second, series);
  EXPECT_THROW(tsdb.append(SeriesId{1000}, 4.0, 1.0), Error);
}

TEST(Tsdb, InterningCreatesNoSeries) {
  // Series come into being on their first append, so interning ahead of
  // time changes no count, no lookup and no select() order.
  Tsdb tsdb;
  const SeriesId b = tsdb.intern("m", {{"node", "b"}});
  const SeriesId a = tsdb.intern("m", {{"node", "a"}});
  EXPECT_EQ(tsdb.num_series(), 0u);
  EXPECT_EQ(tsdb.find("m", {{"node", "b"}}), nullptr);
  EXPECT_FALSE(tsdb.latest("m", {{"node", "b"}}).has_value());
  EXPECT_TRUE(tsdb.select("m").empty());
  // Creation order, not interning order, is select()'s order.
  tsdb.append(a, 1.0, 1.0);
  tsdb.append(b, 1.0, 2.0);
  const auto selected = tsdb.select("m");
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].first.at("node"), "a");
  EXPECT_EQ(selected[1].first.at("node"), "b");
  EXPECT_EQ(tsdb.num_series(), 2u);
}

TEST(Tsdb, OutOfOrderAppendByIdDroppedAndCounted) {
  auto& registry = obs::MetricsRegistry::global();
  auto& dropped = obs::counter("telemetry_out_of_order_dropped_total");
  registry.set_enabled(true);
  const double before = dropped.value();

  Tsdb tsdb;
  const Labels labels{{"node", "n1"}};
  const SeriesId id = tsdb.intern("cpu", labels);
  tsdb.append(id, 10.0, 0.5);
  tsdb.append(id, 8.0, 0.9);  // late arrival: dropped
  tsdb.append(id, 12.0, 0.6);
  registry.set_enabled(false);

  EXPECT_EQ(tsdb.num_samples(), 2u);
  EXPECT_EQ(tsdb.num_samples_dropped(), 1u);
  EXPECT_DOUBLE_EQ(dropped.value() - before, 1.0);
  const Series* series = tsdb.find("cpu", labels);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0).v, 0.5);
  EXPECT_EQ(series->at(1).v, 0.6);
}

TEST(Tsdb, IdsStayValidInACopyAndTheCopyDiverges) {
  Tsdb source;
  const Labels la{{"node", "a"}};
  const Labels lb{{"node", "b"}};
  const SeriesId a = source.intern("m", la);
  const SeriesId b = source.intern("m", lb);
  source.append(a, 1.0, 1.0);

  Tsdb copy = source;
  copy.append(a, 2.0, 2.0);
  copy.append(b, 2.0, 5.0);  // b is created in the copy only
  EXPECT_EQ(copy.latest("m", la), 2.0);
  EXPECT_EQ(copy.latest("m", lb), 5.0);
  EXPECT_EQ(copy.num_series(), 2u);
  EXPECT_EQ(copy.select("m").size(), 2u);
  EXPECT_EQ(source.latest("m", la), 1.0);
  EXPECT_FALSE(source.latest("m", lb).has_value());
  EXPECT_EQ(source.num_series(), 1u);
  EXPECT_EQ(source.select("m").size(), 1u);

  // And the other way: the source moves on without the copy.
  source.append(a, 3.0, 3.0);
  EXPECT_EQ(source.latest("m", la), 3.0);
  EXPECT_EQ(copy.latest("m", la), 2.0);
  EXPECT_EQ(copy.find("m", la)->size(), 2u);
  EXPECT_EQ(source.find("m", la)->size(), 2u);

  // A pair first interned after the copy belongs to the Tsdb that
  // interned it.
  const SeriesId fresh = copy.intern("fresh", {});
  copy.append(fresh, 4.0, 4.0);
  const SeriesId other = source.intern("other", {});
  source.append(other, 4.0, 7.0);
  EXPECT_EQ(copy.latest("fresh", {}), 4.0);
  EXPECT_EQ(source.latest("other", {}), 7.0);
  EXPECT_TRUE(source.select("fresh").empty());
  EXPECT_TRUE(copy.select("other").empty());
  EXPECT_EQ(source.num_series(), 2u);
  EXPECT_EQ(copy.num_series(), 3u);
}

TEST(Tsdb, CopiesOfOneSourceInternConcurrently) {
  // Copies share the source's directory of interned pairs until one of
  // them interns a new pair. Under TSan this is the race check.
  Tsdb source;
  const SeriesId shared = source.intern("m", {{"node", "a"}});
  source.append(shared, 1.0, 1.0);
  constexpr std::size_t kCopies = 8;
  std::vector<std::size_t> created(kCopies);
  ThreadPool pool(4);
  // lts-lint: shared-guarded(partitioned: item i writes only created[i]; source is only read)
  pool.parallel_for(kCopies, [&](std::size_t i) {
    Tsdb copy = source;
    for (int k = 0; k < 20; ++k) {
      const SeriesId id = copy.intern(
          "m", {{"node", strformat("n%d", k)}, {"copy", strformat("%zu", i)}});
      copy.append(id, 2.0, static_cast<double>(k));
    }
    copy.append(shared, 2.0, 2.0);
    created[i] = copy.num_series();
  });
  for (const std::size_t n : created) EXPECT_EQ(n, 21u);
  EXPECT_EQ(source.num_series(), 1u);
  EXPECT_EQ(source.find("m", {{"node", "a"}})->size(), 1u);
}

// ---------------------------------------------------------- exporters ----

class ExporterFixture : public ::testing::Test {
 protected:
  ExporterFixture()
      : cluster_(engine_, cluster::paper_cluster_spec()),
        stack_(cluster_, Rng(9)) {}

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

TEST_F(ExporterFixture, SilencedExporterCreatesNoSeries) {
  // Exporters intern their series up front; a node whose exporter never
  // appends must still have no series at all, not empty ones.
  stack_.node_exporter(2).set_silenced(true);
  engine_.run_until(20.0);
  const auto names = cluster_.node_names();
  const std::size_t n = names.size();
  for (const char* metric :
       {kCpuLoadMetric, kMemAvailableMetric, kTxBytesMetric, kRxBytesMetric,
        kUplinkUtilMetric, kDownlinkUtilMetric, kQueueDelayMetric,
        kActiveFlowsMetric}) {
    EXPECT_EQ(stack_.tsdb().find(metric, Labels{{"node", names[2]}}), nullptr)
        << metric;
    EXPECT_EQ(stack_.tsdb().select(metric).size(), n - 1) << metric;
  }
  // Eight node series per exporting node, plus the full ping mesh (pings
  // do not depend on the node exporter).
  EXPECT_EQ(stack_.tsdb().num_series(), 8 * (n - 1) + n * (n - 1));
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

// An exporter schedules itself: its first scrape at its phase, then one
// every 2 s, each scrape before the re-arm that schedules the next.

/// The times of every sample a series holds, oldest first.
std::vector<SimTime> sample_times(const Tsdb& tsdb, const std::string& name,
                                  const Labels& labels) {
  std::vector<SimTime> times;
  if (const Series* s = tsdb.find(name, labels)) {
    for (std::size_t i = 0; i < s->size(); ++i) times.push_back(s->at(i).t);
  }
  return times;
}

TEST(Exporters, ScrapesLandAtPhasePlusInterval) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  Tsdb tsdb;
  NodeExporter node(tsdb, cluster, 0, 0.5);
  PingExporter ping(tsdb, cluster, Rng(1), 1.25);
  engine.run_until(9.0);
  EXPECT_EQ(sample_times(tsdb, kCpuLoadMetric, {{"node", "node-1"}}),
            (std::vector<SimTime>{0.5, 2.5, 4.5, 6.5, 8.5}));
  EXPECT_EQ(sample_times(tsdb, kPingRttMetric,
                         {{"src", "node-1"}, {"dst", "node-2"}}),
            (std::vector<SimTime>{1.25, 3.25, 5.25, 7.25}));
}

TEST(Exporters, InterleaveInInsertionOrder) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  Tsdb tsdb;
  // Two exporters due at the same instants, and between them a recorder
  // that logs the samples appended so far every 3 s.
  NodeExporter first(tsdb, cluster, 0, 0.0);
  test::Recorder rec(engine);
  std::vector<std::uint64_t> seen;
  rec.hook = [&](const sim::Event&) {
    seen.push_back(tsdb.num_samples());
    engine.schedule_in(3.0, rec.event());
  };
  engine.schedule_in(0.0, rec.event());
  NodeExporter second(tsdb, cluster, 1, 0.0);
  engine.run_until(6.0);
  // t=0: first, recorder, second (insertion order); t=3: both scraped at
  // 0 and 2; t=6: the recorder before both exporters (its re-arm was
  // scheduled at t=3, earlier than theirs at t=4).
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{8, 32, 48}));
  EXPECT_EQ(tsdb.num_samples(), 64u);
}

TEST(Exporters, DestructorCancelsPendingScrape) {
  sim::Engine engine;
  cluster::Cluster cluster(engine, cluster::paper_cluster_spec());
  Tsdb tsdb;
  {
    NodeExporter node(tsdb, cluster, 0, 0.0);
    PingExporter ping(tsdb, cluster, Rng(1), 1.0);
    engine.run_until(2.5);
    EXPECT_EQ(engine.num_pending(), 2u);
  }
  ASSERT_EQ(engine.num_pending(), 0u);
  const std::uint64_t samples = tsdb.num_samples();
  engine.run_until(10.0);
  EXPECT_EQ(tsdb.num_samples(), samples);
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
  TelemetryStack stack(cluster, Rng(3));
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
