// Unit tests for the util module: rng, stats, csv, json, strings, thread
// pool, ascii tables.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace lts {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal_median(5.0, 0.5));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], 5.0, 0.2);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(20, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto i : sample) EXPECT_LT(i, 20u);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(37);
  Rng child = parent.split();
  // Drawing more from the child must not affect the parent's sequence.
  Rng parent2(37);
  (void)parent2.split();
  for (int i = 0; i < 16; ++i) (void)child();
  EXPECT_EQ(parent(), parent2());
}

// -------------------------------------------------------------- stats ----

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesBulk) {
  Rng rng(41);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Ema, ConvergesToConstantInput) {
  Ema ema(10.0);
  for (int t = 0; t <= 200; ++t) ema.update(t, 4.0);
  EXPECT_NEAR(ema.value(), 4.0, 1e-9);
}

TEST(Ema, DecayRate) {
  Ema ema(10.0);
  ema.update(0.0, 1.0);
  ema.update(10.0, 0.0);  // one time constant later
  EXPECT_NEAR(ema.value(), std::exp(-1.0), 1e-9);
}

TEST(Ema, BackwardsTimestampDroppedNotFatal) {
  // Out-of-order feeds (delayed telemetry pipelines) must not abort or
  // corrupt the average: the late sample is rejected and the state stays.
  Ema ema(10.0);
  EXPECT_TRUE(ema.update(5.0, 1.0));
  const double before = ema.value();
  EXPECT_FALSE(ema.update(3.0, 100.0));
  EXPECT_DOUBLE_EQ(ema.value(), before);
  EXPECT_TRUE(ema.update(5.0, before));  // equal timestamp still allowed
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, RoundTripWithQuoting) {
  CsvTable table({"name", "value", "note"});
  table.add_row({"plain", "1.5", "hello"});
  table.add_row({"with,comma", "2", "say \"hi\""});
  table.add_row({"multi\nline", "3", ""});
  std::ostringstream out;
  table.write(out);
  // Note: embedded newlines split rows in our reader, so only test fields
  // without newlines for full round-trip.
  CsvTable simple({"a", "b"});
  simple.add_row({"x,y", "z\"w\""});
  std::ostringstream out2;
  simple.write(out2);
  std::istringstream in(out2.str());
  const CsvTable parsed = CsvTable::read(in);
  EXPECT_EQ(parsed.num_rows(), 1u);
  EXPECT_EQ(parsed.cell(0, "a"), "x,y");
  EXPECT_EQ(parsed.cell(0, "b"), "z\"w\"");
}

TEST(Csv, NumericColumns) {
  CsvTable table({"x"});
  table.add_row({"1.5"});
  table.add_row({"-2e3"});
  const auto col = table.column_double("x");
  EXPECT_DOUBLE_EQ(col[0], 1.5);
  EXPECT_DOUBLE_EQ(col[1], -2000.0);
}

TEST(Csv, MissingColumnThrows) {
  CsvTable table({"x"});
  EXPECT_THROW(table.col("y"), Error);
  EXPECT_TRUE(table.has_col("x"));
  EXPECT_FALSE(table.has_col("y"));
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Csv, ParseLineHonorsQuotes) {
  const auto fields = csv_parse_line("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

// --------------------------------------------------------------- json ----

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("42").as_double(), 42.0);
  EXPECT_EQ(Json::parse("-1.5e3").as_double(), -1500.0);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, NestedRoundTrip) {
  Json j = Json::object();
  j["name"] = "model";
  j["weights"] = Json::from_doubles({1.5, -2.25, 0.0});
  Json inner = Json::object();
  inner["depth"] = 3;
  inner["ok"] = true;
  j["meta"] = inner;
  const std::string text = j.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.at("name").as_string(), "model");
  EXPECT_EQ(back.at("meta").at("depth").as_int(), 3);
  EXPECT_TRUE(back.at("meta").at("ok").as_bool());
  const auto w = back.at("weights").to_doubles();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[1], -2.25);
}

TEST(Json, PrettyPrintParses) {
  Json j = Json::object();
  j["a"] = Json::from_doubles({1, 2});
  j["b"] = "x";
  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back.at("b").as_string(), "x");
}

TEST(Json, DoublePrecisionPreserved) {
  const double value = 0.12345678901234567;
  Json j(value);
  EXPECT_DOUBLE_EQ(Json::parse(j.dump()).as_double(), value);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.at("a").as_string(), Error);
  EXPECT_THROW(j.at("missing"), Error);
  EXPECT_THROW(j.at("a").as_array(), Error);
}

TEST(Json, CheckedIntegersRejectFractionsAndOverflow) {
  // Each read accepts exactly the integers of its type's range.
  const Json j = Json::parse(
      R"({"min": -2147483648, "max": 2147483647, "over": 2147483648,)"
      R"( "half": 2.5, "big": 1e300, "text": "7", "neg": -1,)"
      R"( "top": 1.8446744073709550e19, "wrap": 18446744073709551616})");
  EXPECT_EQ(j.int_at("min"), -2147483647 - 1);
  EXPECT_EQ(j.at("max").as_int(), 2147483647);
  for (const char* key : {"over", "half", "big", "text"}) {
    EXPECT_THROW(j.int_at(key), Error) << key;
    EXPECT_THROW(j.at(key).as_int(), Error) << key;
  }
  EXPECT_EQ(j.uint_at("top"), 18446744073709549568ULL);
  for (const char* key : {"wrap", "neg", "half", "big", "text"}) {
    try {
      j.uint_at(key);
      ADD_FAILURE() << key << " read as an unsigned integer";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, CopyOnWriteIsolation) {
  Json a = Json::object();
  a["k"] = 1;
  Json b = a;          // shares representation
  b["k"] = 2;          // must not affect a
  EXPECT_EQ(a.at("k").as_int(), 1);
  EXPECT_EQ(b.at("k").as_int(), 2);
}

TEST(Json, UnicodeEscape) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
}

// ------------------------------------------------------------ strings ----

TEST(StringUtil, Format) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strformat("%.2f", 1.239), "1.24");
}

TEST(StringUtil, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi\t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KB");
  EXPECT_EQ(human_bytes(10.0 * 1024 * 1024), "10.0 MB");
}

TEST(StringUtil, HumanDuration) {
  EXPECT_EQ(human_duration(12.345), "12.35s");
  EXPECT_EQ(human_duration(90), "1m 30.0s");
}

// -------------------------------------------------------- thread pool ----

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  // lts-lint: shared-guarded(atomic: each index increments its own atomic slot)
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(2);
  std::atomic<int> x{0};
  auto f = pool.submit([&] { x = 42; });
  f.wait();
  EXPECT_EQ(x.load(), 42);
}

TEST(ThreadPool, SingleThreadDegradesGracefully) {
  ThreadPool pool(1);
  int sum = 0;
  // lts-lint: shared-guarded(partitioned: a single-worker pool runs all indices sequentially on the caller, so the plain int is never shared)
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a worker used to enqueue subtasks on
  // the same pool and block waiting for them — with every worker doing the
  // same, nobody was left to run anything (deadlock). Nested calls now
  // detect the worker context and run inline. Guard with a watchdog so a
  // regression fails the test instead of hanging the suite.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::atomic<bool> finished{false};
  // lts-lint: thread-ok(the watchdog must live outside the pool under test: a deadlocked pool could never run it)
  std::thread watchdog([&] {
    for (int i = 0; i < 200 && !finished.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!finished.load()) {
      std::fprintf(stderr, "nested parallel_for deadlocked\n");
      std::abort();
    }
  });
  // lts-lint: shared-guarded(atomic: the only shared write is the done counter)
  pool.parallel_for(4, [&](std::size_t) {
    // lts-lint: shared-guarded(atomic: increments the shared done counter)
    pool.parallel_for(8, [&](std::size_t) { done.fetch_add(1); });
  });
  finished = true;
  watchdog.join();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, NestedParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      // lts-lint: shared-guarded(partitioned: lambdas only read their loop indices; the pool reference is the sole capture)
      pool.parallel_for(4,
                        [&](std::size_t i) {
                          // lts-lint: shared-guarded(partitioned: reads indices only; error propagation is synchronized inside parallel_for)
                          pool.parallel_for(4, [&](std::size_t j) {
                            if (i == 1 && j == 2) throw Error("inner boom");
                          });
                        }),
      Error);
}

TEST(ThreadPool, ConcurrentAndNestedParallelForIsRaceFree) {
  // Hammers every parallel_for execution path at once: an outer pool fans
  // out onto an inner pool (cross-pool calls take the submit path, since
  // outer workers are not inner workers), and the innermost level nests
  // within inner workers (inline path). Exists chiefly for
  // LTS_SANITIZE=thread builds, where TSan verifies the queue, the
  // work-stealing counter, and error propagation are fully synchronized
  // under concurrent callers.
  ThreadPool inner(3);
  ThreadPool outer(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 4; ++round) {
    // lts-lint: shared-guarded(atomic: every shared write lands on the total counter)
    outer.parallel_for(8, [&](std::size_t) {
      // lts-lint: shared-guarded(atomic: forwards increments of the shared atomic counter)
      inner.parallel_for(4, [&](std::size_t) {
        // lts-lint: shared-guarded(atomic: increments the shared atomic counter)
        inner.parallel_for(2, [&](std::size_t) { total.fetch_add(1); });
      });
    });
  }
  EXPECT_EQ(total.load(), 4 * 8 * 4 * 2);
}

// -------------------------------------------------------------- table ----

TEST(AsciiTable, RendersAligned) {
  AsciiTable t({"Method", "Top-1"});
  t.add_row({"kube", "0.16"});
  t.add_row_numeric("rf", {0.7}, 3);
  const std::string out = t.render("Table");
  EXPECT_NE(out.find("Table"), std::string::npos);
  EXPECT_NE(out.find("| kube"), std::string::npos);
  EXPECT_NE(out.find("0.700"), std::string::npos);
}

TEST(AsciiTable, WidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only"}), Error);
}

}  // namespace
}  // namespace lts
