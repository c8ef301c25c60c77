// Golden end-to-end replay: a fixed-seed scenario's full decision trace and
// final metrics, compared byte-for-byte against a checked-in golden file.
//
// The default configuration (no faults, no degradation policies) must keep
// producing exactly the same simulated world: same telemetry snapshot after
// warmup, same default-scheduler ranking, same per-job placements and
// completion times. Any unintended behavioral drift — an extra Rng draw, a
// reordered event, a changed constant — shows up here as a one-line diff
// long before it would be noticed in aggregate experiment statistics.
//
// A second golden pins a degraded retraining stream with five of six
// exporters silent: its decisions fall back and choose stale nodes, so the
// model it retrains shows which telemetry row each completion trained on.
// That row must be the one the decision ranked from, stale rows imputed;
// training on the row as scraped writes a different model.
//
// To regenerate after an *intended* behavior change:
//   LTS_UPDATE_GOLDEN=1 ./replay_test
// and commit the updated tests/golden/*.json with the change that caused
// it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "fault/fault.hpp"
#include "util/json.hpp"

namespace lts {
namespace {

constexpr std::uint64_t kSeed = 4242;

/// Compares `actual` byte for byte with tests/golden/`file`, or rewrites
/// the file when LTS_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& file, const Json& record) {
  const std::string path = std::string(LTS_SOURCE_DIR) + "/golden/" + file;
  const std::string actual = record.dump(2) + "\n";

  if (std::getenv("LTS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with LTS_UPDATE_GOLDEN=1 to create it";
  std::ostringstream buffer;
  buffer << in.rdbuf();

  // Byte-identical, including float formatting (%.17g round-trips exactly).
  EXPECT_EQ(actual, buffer.str())
      << file << " diverged; if this change in behavior is intended, "
      << "regenerate with LTS_UPDATE_GOLDEN=1 and commit the new golden file";
}

Json snapshot_to_json(const telemetry::ClusterSnapshot& snapshot) {
  Json j = Json::object();
  j["at"] = snapshot.at;
  Json nodes = Json::array();
  for (const auto& n : snapshot.nodes) {
    Json row = Json::object();
    row["node"] = n.node;
    row["rtt_mean"] = n.rtt_mean;
    row["rtt_max"] = n.rtt_max;
    row["rtt_std"] = n.rtt_std;
    row["tx_rate"] = n.tx_rate;
    row["rx_rate"] = n.rx_rate;
    row["cpu_load"] = n.cpu_load;
    row["mem_available"] = n.mem_available;
    row["uplink_util"] = n.uplink_util;
    row["downlink_util"] = n.downlink_util;
    row["queue_delay"] = n.queue_delay;
    row["active_flows"] = n.active_flows;
    row["last_seen"] = n.last_seen;
    row["has_data"] = n.has_data;
    nodes.push_back(row);
  }
  j["nodes"] = nodes;
  return j;
}

Json stream_to_json(const exp::StreamResult& run) {
  Json j = Json::object();
  Json jobs = Json::array();
  for (const auto& job : run.jobs) {
    Json row = Json::object();
    row["scenario"] = job.scenario_id;
    row["driver_node"] = job.driver_node;
    row["submitted"] = job.submitted;
    row["duration"] = job.duration;
    jobs.push_back(row);
  }
  j["jobs"] = jobs;
  j["makespan"] = run.makespan;
  return j;
}

/// The replay record: everything below is a pure function of kSeed under the
/// default configuration.
Json build_replay_record() {
  const auto matrix = exp::paper_scenario_matrix();
  Json record = Json::object();
  record["seed"] = static_cast<double>(kSeed);

  // World state at warmup time + the default kube scheduler's view of it.
  {
    exp::SimEnv env(kSeed, {});
    env.warmup();
    record["snapshot"] = snapshot_to_json(env.snapshot());
    const auto kube = env.kube_ranking(matrix.front().config);
    Json ranking = Json::array();
    for (const auto& scored : kube.ranking) ranking.push_back(scored.name);
    record["kube_ranking"] = ranking;
  }

  // Two live streams (placement decisions + completion times) under the two
  // model-free policies; together they exercise engine, network, cluster,
  // telemetry, kube scheduling, and the Spark runtime end to end.
  exp::StreamOptions stream;
  stream.num_jobs = 8;
  stream.seed = kSeed;
  record["stream_kube"] = stream_to_json(exp::run_job_stream(
      exp::StreamPolicy::kKubeDefault, nullptr, matrix, stream));
  record["stream_random"] = stream_to_json(exp::run_job_stream(
      exp::StreamPolicy::kRandom, nullptr, matrix, stream));
  return record;
}

TEST(GoldenReplay, DefaultConfigMatchesCheckedInTrace) {
  expect_matches_golden("replay_golden.json", build_replay_record());
}

/// A degraded kModelRetrain stream with no initial model, node-1..node-5
/// silent from t = 20 s: every decision falls back, and a linear refit
/// every five completions swaps in unconditionally.
Json build_degraded_retrain_record() {
  const auto matrix = exp::paper_scenario_matrix();
  exp::StreamOptions stream;
  stream.num_jobs = 15;
  stream.mean_interarrival = 8.0;
  stream.seed = kSeed;
  stream.degraded = true;
  stream.retrain.retrain_every = 5;
  stream.retrain.min_rows = 4;
  stream.retrain.model_name = "linear";
  stream.retrain.holdout_gate_slack = -1.0;
  for (const char* node : {"node-1", "node-2", "node-3", "node-4", "node-5"}) {
    stream.env.faults.push_back(
        {fault::FaultKind::kExporterSilence, node, 20.0, 0.0, 1.0});
  }
  const auto run = exp::run_job_stream(exp::StreamPolicy::kModelRetrain,
                                       nullptr, matrix, stream);
  Json record = stream_to_json(run);
  record["model_version"] = static_cast<double>(run.model_version);
  record["final_model"] =
      run.final_model != nullptr ? run.final_model->to_json() : Json();
  return record;
}

TEST(GoldenReplay, DegradedRetrainingStreamMatchesCheckedInModel) {
  expect_matches_golden("degraded_retrain_golden.json",
                        build_degraded_retrain_record());
}

TEST(GoldenReplay, RecordIsItselfDeterministic) {
  // Guard against the golden record depending on anything besides the seed
  // (wall clock, address ordering, global state left by other tests).
  EXPECT_EQ(build_replay_record().dump(2), build_replay_record().dump(2));
}

}  // namespace
}  // namespace lts
