// Unit tests for the Kubernetes layer: resource quantities, the API server,
// the default scheduler's filter and score functions, and manifest
// rendering.
#include <gtest/gtest.h>

#include "k8s/api.hpp"
#include "k8s/manifest.hpp"
#include "k8s/resources.hpp"
#include "k8s/scheduler.hpp"
#include "util/string_util.hpp"

namespace lts::k8s {
namespace {

Resources gib(double cpu, double g) {
  return Resources{cpu, g * 1024 * 1024 * 1024};
}

// ---------------------------------------------------------- quantities ----

TEST(Quantities, CpuParsing) {
  EXPECT_DOUBLE_EQ(parse_cpu_quantity("500m"), 0.5);
  EXPECT_DOUBLE_EQ(parse_cpu_quantity("2"), 2.0);
  EXPECT_DOUBLE_EQ(parse_cpu_quantity("1.5"), 1.5);
  EXPECT_THROW(parse_cpu_quantity(""), Error);
  EXPECT_THROW(parse_cpu_quantity("abc"), Error);
}

TEST(Quantities, MemoryParsing) {
  EXPECT_DOUBLE_EQ(parse_memory_quantity("512Mi"), 512.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(parse_memory_quantity("2Gi"), 2.0 * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(parse_memory_quantity("1Ki"), 1024.0);
  EXPECT_DOUBLE_EQ(parse_memory_quantity("100"), 100.0);
  EXPECT_DOUBLE_EQ(parse_memory_quantity("1M"), 1e6);
  EXPECT_THROW(parse_memory_quantity("1Zi"), Error);
}

TEST(Quantities, FormattingRoundTrips) {
  EXPECT_EQ(format_cpu_quantity(0.5), "500m");
  EXPECT_EQ(format_cpu_quantity(2.0), "2");
  EXPECT_EQ(format_memory_quantity(2.0 * 1024 * 1024 * 1024), "2Gi");
  EXPECT_EQ(format_memory_quantity(512.0 * 1024 * 1024), "512Mi");
}

TEST(Resources, ArithmeticAndFit) {
  const Resources a{2.0, 100.0};
  const Resources b{1.0, 50.0};
  EXPECT_DOUBLE_EQ((a + b).cpu, 3.0);
  EXPECT_DOUBLE_EQ((a - b).memory, 50.0);
  EXPECT_TRUE(b.fits_within(a));
  EXPECT_FALSE(a.fits_within(b));
}

// ------------------------------------------------------------- api ----

TEST(ApiServer, BindTracksRequests) {
  ApiServer api;
  api.register_node("n1", gib(4, 8));
  PodSpec pod;
  pod.name = "p1";
  pod.requests = gib(1, 2);
  api.bind(pod, "n1");
  EXPECT_DOUBLE_EQ(api.node("n1").requested.cpu, 1.0);
  EXPECT_EQ(api.node("n1").pods.size(), 1u);
  EXPECT_TRUE(api.has_pod("p1"));
  EXPECT_EQ(api.pod_node("p1"), "n1");
}

TEST(ApiServer, RemoveReleasesRequests) {
  ApiServer api;
  api.register_node("n1", gib(4, 8));
  PodSpec pod;
  pod.name = "p1";
  pod.requests = gib(1, 2);
  api.bind(pod, "n1");
  api.remove_pod("p1");
  EXPECT_DOUBLE_EQ(api.node("n1").requested.cpu, 0.0);
  EXPECT_FALSE(api.has_pod("p1"));
  api.remove_pod("p1");  // idempotent
}

TEST(ApiServer, DuplicatePodOrNodeRejected) {
  ApiServer api;
  api.register_node("n1", gib(4, 8));
  EXPECT_THROW(api.register_node("n1", gib(4, 8)), Error);
  PodSpec pod;
  pod.name = "p1";
  api.bind(pod, "n1");
  EXPECT_THROW(api.bind(pod, "n1"), Error);
  PodSpec orphan;
  orphan.name = "p2";
  EXPECT_THROW(api.bind(orphan, "nope"), Error);
}

// -------------------------------------------------------- filters ----

TEST(Filters, NodeResourcesFit) {
  ApiServer api;
  api.register_node("n1", gib(2, 4));
  PodSpec big;
  big.requests = gib(3, 1);
  PodSpec fits;
  fits.requests = gib(2, 4);
  EXPECT_FALSE(node_resources_fit(big, api.node("n1")).empty());
  EXPECT_TRUE(node_resources_fit(fits, api.node("n1")).empty());
  // Occupy some and retry.
  PodSpec half;
  half.name = "h";
  half.requests = gib(1, 2);
  api.bind(half, "n1");
  EXPECT_FALSE(node_resources_fit(fits, api.node("n1")).empty());
}

TEST(Filters, NodeAffinity) {
  ApiServer api;
  api.register_node("n1", gib(2, 4));
  PodSpec anywhere;
  EXPECT_TRUE(node_affinity(anywhere, api.node("n1")).empty());
  PodSpec pinned;
  pinned.node_affinity = NodeAffinity{{"n2"}};
  EXPECT_FALSE(node_affinity(pinned, api.node("n1")).empty());
  pinned.node_affinity = NodeAffinity{{"n1", "n2"}};
  EXPECT_TRUE(node_affinity(pinned, api.node("n1")).empty());
}

TEST(Filters, TaintToleration) {
  ApiServer api;
  api.register_node("tainted", gib(2, 4), {},
                    {Taint{"dedicated", "gpu", TaintEffect::kNoSchedule}});
  api.register_node("soft", gib(2, 4), {},
                    {Taint{"pref", "", TaintEffect::kPreferNoSchedule}});
  PodSpec plain;
  EXPECT_FALSE(taint_toleration(plain, api.node("tainted")).empty());
  // PreferNoSchedule does not filter.
  EXPECT_TRUE(taint_toleration(plain, api.node("soft")).empty());
  PodSpec tolerant;
  tolerant.tolerations = {Toleration{"dedicated", "gpu"}};
  EXPECT_TRUE(taint_toleration(tolerant, api.node("tainted")).empty());
  PodSpec tolerate_all;
  tolerate_all.tolerations = {Toleration{"", ""}};
  EXPECT_TRUE(taint_toleration(tolerate_all, api.node("tainted")).empty());
}

// --------------------------------------------------------- scoring ----

TEST(Scores, LeastAllocatedPrefersEmptyNode) {
  ApiServer api;
  api.register_node("empty", gib(4, 8));
  api.register_node("busy", gib(4, 8));
  PodSpec occupant;
  occupant.name = "o";
  occupant.requests = gib(2, 4);
  api.bind(occupant, "busy");
  PodSpec pod;
  pod.requests = gib(1, 1);
  EXPECT_GT(least_allocated_score(pod, api.node("empty")),
            least_allocated_score(pod, api.node("busy")));
}

TEST(Scores, BalancedAllocationPrefersEvenUsage) {
  ApiServer api;
  api.register_node("n", gib(4, 8));
  PodSpec balanced;
  balanced.requests = gib(2, 4);  // 50% cpu, 50% mem
  PodSpec skewed;
  skewed.requests = gib(4, 1);  // 100% cpu, 12.5% mem
  EXPECT_GT(balanced_allocation_score(balanced, api.node("n")),
            balanced_allocation_score(skewed, api.node("n")));
}

TEST(Scores, TaintTolerationPenalizesSoftTaints) {
  ApiServer api;
  api.register_node("soft", gib(2, 4), {},
                    {Taint{"pref", "", TaintEffect::kPreferNoSchedule}});
  api.register_node("clean", gib(2, 4));
  PodSpec pod;
  EXPECT_GT(taint_toleration_score(pod, api.node("clean")),
            taint_toleration_score(pod, api.node("soft")));
}

// ------------------------------------------------------- scheduler ----

TEST(DefaultScheduler, PicksLeastLoadedNode) {
  ApiServer api;
  api.register_node("a", gib(4, 8));
  api.register_node("b", gib(4, 8));
  PodSpec occupant;
  occupant.name = "o";
  occupant.requests = gib(3, 6);
  api.bind(occupant, "a");
  DefaultScheduler scheduler(api, 1);
  PodSpec pod;
  pod.name = "p";
  pod.requests = gib(1, 1);
  const auto result = scheduler.schedule(pod);
  ASSERT_TRUE(result.feasible());
  EXPECT_EQ(result.selected(), "b");
  EXPECT_EQ(result.ranking.size(), 2u);
}

TEST(DefaultScheduler, FullRankingAndRejections) {
  ApiServer api;
  api.register_node("a", gib(4, 8));
  api.register_node("tiny", gib(0.5, 8));
  api.register_node("b", gib(4, 8));
  DefaultScheduler scheduler(api, 1);
  PodSpec pod;
  pod.requests = gib(1, 1);
  const auto result = scheduler.schedule(pod);
  EXPECT_EQ(result.ranking.size(), 2u);
  ASSERT_EQ(result.rejected.size(), 1u);
  EXPECT_EQ(result.rejected[0].first, "tiny");
  EXPECT_EQ(result.rejected[0].second, "insufficient cpu");
}

TEST(DefaultScheduler, InfeasibleEverywhere) {
  ApiServer api;
  api.register_node("a", gib(1, 1));
  DefaultScheduler scheduler(api, 1);
  PodSpec pod;
  pod.requests = gib(8, 8);
  const auto result = scheduler.schedule(pod);
  EXPECT_FALSE(result.feasible());
  EXPECT_THROW(result.selected(), Error);
}

TEST(DefaultScheduler, AffinityForcesNode) {
  ApiServer api;
  api.register_node("a", gib(4, 8));
  api.register_node("b", gib(4, 8));
  DefaultScheduler scheduler(api, 1);
  PodSpec pod;
  pod.requests = gib(1, 1);
  pod.node_affinity = NodeAffinity{{"b"}};
  EXPECT_EQ(scheduler.schedule(pod).selected(), "b");
}

TEST(DefaultScheduler, TieBreakIsSeededDeterministic) {
  auto pick = [](std::uint64_t seed) {
    ApiServer api;
    for (int i = 0; i < 6; ++i) {
      api.register_node(strformat("n%d", i), gib(4, 8));
    }
    DefaultScheduler scheduler(api, seed);
    PodSpec pod;
    pod.requests = gib(1, 1);
    return scheduler.schedule(pod).selected();
  };
  EXPECT_EQ(pick(7), pick(7));
  // Different seeds should eventually pick different nodes among ties.
  bool differs = false;
  for (std::uint64_t s = 0; s < 10 && !differs; ++s) {
    differs = pick(s) != pick(s + 100);
  }
  EXPECT_TRUE(differs);
}

TEST(DefaultScheduler, IsNetworkBlind) {
  // The core property the paper exploits: identical requests => identical
  // treatment, regardless of any network state (which the scheduler cannot
  // even observe through the ApiServer interface).
  ApiServer api;
  api.register_node("quiet", gib(4, 8));
  api.register_node("congested", gib(4, 8));
  DefaultScheduler scheduler(api, 3);
  PodSpec pod;
  pod.requests = gib(1, 1);
  const auto result = scheduler.schedule(pod);
  EXPECT_DOUBLE_EQ(result.ranking[0].score, result.ranking[1].score);
}

// -------------------------------------------------------- manifest ----

TEST(Manifest, RendersNodeAffinity) {
  SparkJobManifestSpec spec;
  spec.job_name = "sort-test";
  spec.app_type = "sort";
  spec.input_records = 100000;
  spec.executors = 3;
  spec.driver_requests = gib(1, 1);
  spec.executor_requests = gib(1, 1);
  spec.pinned_node = "node-4";
  const std::string yaml = render_spark_job_manifest(spec);
  EXPECT_NE(yaml.find("kind: SparkApplication"), std::string::npos);
  EXPECT_NE(yaml.find("kubernetes.io/hostname"), std::string::npos);
  const auto values = parse_manifest_node_affinity(yaml);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "node-4");
}

TEST(Manifest, UnpinnedHasNoAffinity) {
  SparkJobManifestSpec spec;
  spec.job_name = "x";
  spec.app_type = "join";
  spec.driver_requests = gib(1, 1);
  spec.executor_requests = gib(1, 1);
  const std::string yaml = render_spark_job_manifest(spec);
  EXPECT_EQ(yaml.find("nodeAffinity"), std::string::npos);
  EXPECT_TRUE(parse_manifest_node_affinity(yaml).empty());
}

TEST(Manifest, ConfEntriesSortedAndQuoted) {
  SparkJobManifestSpec spec;
  spec.job_name = "x";
  spec.app_type = "sort";
  spec.driver_requests = gib(1, 1);
  spec.executor_requests = gib(1, 1);
  spec.extra_conf["zzz"] = "2";
  spec.extra_conf["aaa"] = "1";
  const std::string yaml = render_spark_job_manifest(spec);
  EXPECT_LT(yaml.find("\"aaa\""), yaml.find("\"zzz\""));
}

}  // namespace
}  // namespace lts::k8s
