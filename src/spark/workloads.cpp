#include "spark/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lts::spark {

double StageSpec::task_weight(int task) const {
  LTS_REQUIRE(task >= 0 && task < num_tasks, "StageSpec: bad task index");
  if (task_weights.empty()) return 1.0 / static_cast<double>(num_tasks);
  return task_weights[static_cast<std::size_t>(task)];
}

void AppDag::validate() const {
  LTS_REQUIRE(!stages.empty(), "AppDag: empty");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    LTS_REQUIRE(s.id == static_cast<int>(i), "AppDag: ids must be dense");
    LTS_REQUIRE(s.num_tasks >= 1, "AppDag: stage needs tasks");
    for (const int dep : s.deps) {
      LTS_REQUIRE(dep >= 0 && dep < s.id,
                  "AppDag: deps must point to earlier stages");
    }
    if (!s.task_weights.empty()) {
      LTS_REQUIRE(
          s.task_weights.size() == static_cast<std::size_t>(s.num_tasks),
          "AppDag: weight count mismatch");
      const double total = std::accumulate(s.task_weights.begin(),
                                           s.task_weights.end(), 0.0);
      LTS_REQUIRE(std::abs(total - 1.0) < 1e-6,
                  "AppDag: task weights must sum to 1");
    }
  }
}

Bytes AppDag::total_shuffle_bytes() const {
  Bytes total = 0.0;
  for (const auto& s : stages) total += s.shuffle_bytes_in;
  return total;
}

double AppDag::total_cpu_work() const {
  double total = 0.0;
  for (const auto& s : stages) {
    total += s.cpu_work_per_task * static_cast<double>(s.num_tasks);
  }
  return total;
}

namespace {

// Throughput constants that translate bytes into CPU work. Shared across
// workloads so relative costs stay comparable.
constexpr double kMapBytesPerCoreSec = 120e6;   // scan + serialize
constexpr double kSortBytesPerCoreSec = 60e6;   // sort + spill merge
constexpr double kJoinBytesPerCoreSec = 50e6;   // hash build + probe
constexpr double kAggBytesPerCoreSec = 90e6;    // combiner aggregation
constexpr double kRankBytesPerCoreSec = 70e6;   // pagerank contribution calc

// Spark sizes map stages by input splits (~64 MB); bounded below by the
// executor count so every executor participates, and above to keep the
// control plane sane.
int map_task_count(Bytes input, int executors) {
  const int by_split = static_cast<int>(std::ceil(input / 64e6));
  return std::clamp(by_split, std::max(2, executors), 64);
}

/// Zipf-profile task weights for the skewed Join: weight_i ~ 1/rank^s,
/// with ranks assigned to partition indices in a seeded random order so the
/// heavy partition lands on a different executor per scenario.
std::vector<double> zipf_weights(int n, double exponent, Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  rng.shuffle(w);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  for (auto& x : w) x /= total;
  return w;
}

AppDag build_sort(const JobConfig& cfg) {
  const Bytes input = cfg.input_bytes();
  const int reducers = cfg.effective_shuffle_partitions();
  AppDag dag;

  StageSpec map;
  map.id = 0;
  map.name = "map";
  map.num_tasks = map_task_count(input, cfg.executors);
  map.cpu_work_per_task = input / static_cast<double>(map.num_tasks) /
                          kMapBytesPerCoreSec;
  map.output_bytes = input;  // full shuffle: every byte crosses the wire
  map.memory_per_task = input / static_cast<double>(map.num_tasks) * 0.5;
  dag.stages.push_back(std::move(map));

  StageSpec reduce;
  reduce.id = 1;
  reduce.name = "sort-reduce";
  reduce.deps = {0};
  reduce.num_tasks = reducers;
  reduce.shuffle_bytes_in = input;
  reduce.cpu_work_per_task = input / static_cast<double>(reducers) /
                             kSortBytesPerCoreSec;
  reduce.output_bytes = input * 0.05;  // sorted sample written back
  reduce.memory_per_task =
      input / static_cast<double>(reducers) * 1.2;  // sort buffer
  dag.stages.push_back(std::move(reduce));

  dag.result_bytes = std::min<Bytes>(input * 0.25, 256e6);
  dag.broadcast_bytes = 260e6;  // fat application jar + closures
  dag.validate();
  return dag;
}

AppDag build_groupby(const JobConfig& cfg) {
  const Bytes input = cfg.input_bytes();
  const int reducers = cfg.effective_shuffle_partitions();
  // Map-side combining shrinks the shuffle; the reduce does heavier
  // per-byte aggregation work than sort's merge.
  const Bytes shuffled = input * 0.6;
  AppDag dag;

  StageSpec map;
  map.id = 0;
  map.name = "map-combine";
  map.num_tasks = map_task_count(input, cfg.executors);
  map.cpu_work_per_task = input / static_cast<double>(map.num_tasks) /
                          kAggBytesPerCoreSec;
  map.output_bytes = shuffled;
  map.memory_per_task =
      input / static_cast<double>(map.num_tasks) * 0.8;  // combiner map
  dag.stages.push_back(std::move(map));

  StageSpec reduce;
  reduce.id = 1;
  reduce.name = "groupby-reduce";
  reduce.deps = {0};
  reduce.num_tasks = reducers;
  reduce.shuffle_bytes_in = shuffled;
  reduce.cpu_work_per_task = shuffled / static_cast<double>(reducers) /
                             kAggBytesPerCoreSec;
  reduce.output_bytes = shuffled * 0.1;
  reduce.memory_per_task = shuffled / static_cast<double>(reducers) * 1.5;
  dag.stages.push_back(std::move(reduce));

  dag.result_bytes = std::min<Bytes>(shuffled * 0.2, 192e6);
  dag.broadcast_bytes = 280e6;
  dag.validate();
  return dag;
}

AppDag build_join(const JobConfig& cfg, Rng& rng) {
  const Bytes input = cfg.input_bytes();
  const Bytes left = input * 0.7;
  const Bytes right = input * 0.3;
  const int partitions = cfg.effective_shuffle_partitions();
  AppDag dag;

  StageSpec map_left;
  map_left.id = 0;
  map_left.name = "scan-left";
  map_left.num_tasks = map_task_count(left, cfg.executors);
  map_left.cpu_work_per_task = left /
                               static_cast<double>(map_left.num_tasks) /
                               kMapBytesPerCoreSec;
  map_left.output_bytes = left;
  map_left.memory_per_task =
      left / static_cast<double>(map_left.num_tasks) * 0.4;
  dag.stages.push_back(std::move(map_left));

  StageSpec map_right;
  map_right.id = 1;
  map_right.name = "scan-right";
  map_right.num_tasks = map_task_count(right, cfg.executors);
  map_right.cpu_work_per_task = right /
                                static_cast<double>(map_right.num_tasks) /
                                kMapBytesPerCoreSec;
  map_right.output_bytes = right;
  map_right.memory_per_task =
      right / static_cast<double>(map_right.num_tasks) * 0.4;
  dag.stages.push_back(std::move(map_right));

  StageSpec join;
  join.id = 2;
  join.name = "shuffle-join";
  join.deps = {0, 1};
  join.num_tasks = partitions;
  join.shuffle_bytes_in = left + right;
  join.task_weights = zipf_weights(partitions, cfg.join_skew, rng);
  // cpu_work_per_task is the *mean*; the runtime scales it by each task's
  // weight relative to uniform, so the heavy Zipf partition costs
  // proportionally more CPU and memory — Table 2's "skewed CPU and memory".
  join.cpu_work_per_task = (left + right) / static_cast<double>(partitions) /
                           kJoinBytesPerCoreSec;
  join.output_bytes = (left + right) * 0.15;
  join.memory_per_task =
      (left + right) / static_cast<double>(partitions) * 2.0;  // hash table
  dag.stages.push_back(std::move(join));

  dag.result_bytes = std::min<Bytes>((left + right) * 0.2, 256e6);
  // Join ships the broadcast side of the plan on top of the jar.
  dag.broadcast_bytes = 340e6;
  dag.validate();
  return dag;
}

AppDag build_pagerank(const JobConfig& cfg) {
  const Bytes edges = cfg.input_bytes();
  const int partitions = cfg.effective_shuffle_partitions();
  AppDag dag;

  StageSpec load;
  load.id = 0;
  load.name = "load-graph";
  load.num_tasks = map_task_count(edges, cfg.executors);
  load.cpu_work_per_task = edges / static_cast<double>(load.num_tasks) /
                           kMapBytesPerCoreSec;
  load.output_bytes = edges;
  load.memory_per_task = edges / static_cast<double>(load.num_tasks) * 0.6;
  dag.stages.push_back(std::move(load));

  // Each iteration exchanges rank contributions along edges: a recurring
  // shuffle of a large fraction of the edge data (Table 2: "iterative data
  // exchange").
  const Bytes per_iter = edges * 0.8;
  for (int i = 0; i < cfg.iterations; ++i) {
    StageSpec iter;
    iter.id = static_cast<int>(dag.stages.size());
    iter.name = "iteration-" + std::to_string(i + 1);
    iter.deps = {iter.id - 1};
    iter.num_tasks = partitions;
    iter.shuffle_bytes_in = per_iter;
    iter.cpu_work_per_task = per_iter / static_cast<double>(partitions) /
                             kRankBytesPerCoreSec;
    iter.output_bytes = per_iter;
    iter.memory_per_task = per_iter / static_cast<double>(partitions) * 1.0;
    // Per-iteration driver barrier: rank deltas converge on the driver and
    // the updated broadcast state fans back out. This is what makes
    // PageRank's completion time so sensitive to the driver node's network
    // position (Table 2: "iterative data exchange").
    iter.driver_sync_in = std::min<Bytes>(edges * 0.10, 48e6);
    iter.driver_sync_out = std::min<Bytes>(edges * 0.05, 24e6);
    iter.driver_sync_rounds = 5;
    dag.stages.push_back(std::move(iter));
  }

  StageSpec ranks;
  ranks.id = static_cast<int>(dag.stages.size());
  ranks.name = "extract-ranks";
  ranks.deps = {ranks.id - 1};
  ranks.num_tasks = std::max(2, partitions / 2);
  ranks.shuffle_bytes_in = edges * 0.1;  // vertex ranks only
  ranks.cpu_work_per_task = edges * 0.1 /
                            static_cast<double>(ranks.num_tasks) /
                            kAggBytesPerCoreSec;
  ranks.output_bytes = edges * 0.05;
  ranks.memory_per_task =
      edges * 0.1 / static_cast<double>(ranks.num_tasks);
  dag.stages.push_back(std::move(ranks));

  dag.result_bytes = std::min<Bytes>(edges * 0.18, 192e6);
  dag.broadcast_bytes = 300e6;
  dag.validate();
  return dag;
}

AppDag build_ml_pipeline(const JobConfig& cfg) {
  // Distributed synchronous training (§8 "distributed ML pipelines"):
  // load the dataset, then `iterations` epochs, each computing gradients on
  // data shards and synchronizing a model of `model_bytes` through the
  // driver (gather gradients, broadcast updated weights) with serialized
  // parameter-server round trips. Completion time is dominated by the
  // driver's network position times the epoch count.
  const Bytes input = cfg.input_bytes();
  const Bytes model_bytes = std::min<Bytes>(input * 0.10, 64e6);
  AppDag dag;

  StageSpec load;
  load.id = 0;
  load.name = "load-shards";
  load.num_tasks = map_task_count(input, cfg.executors);
  load.cpu_work_per_task = input / static_cast<double>(load.num_tasks) /
                           kMapBytesPerCoreSec;
  load.output_bytes = input * 0.3;  // parsed feature blocks stay local
  load.memory_per_task = input / static_cast<double>(load.num_tasks) * 0.8;
  dag.stages.push_back(std::move(load));

  for (int e = 0; e < cfg.iterations; ++e) {
    StageSpec epoch;
    epoch.id = static_cast<int>(dag.stages.size());
    epoch.name = "epoch-" + std::to_string(e + 1);
    epoch.deps = {epoch.id - 1};
    epoch.num_tasks = std::max(2, cfg.executors);
    epoch.shuffle_bytes_in = input * 0.05;  // shard re-balancing only
    epoch.cpu_work_per_task = input /
                              static_cast<double>(epoch.num_tasks) /
                              kRankBytesPerCoreSec;
    epoch.output_bytes = input * 0.05;
    epoch.memory_per_task =
        input / static_cast<double>(epoch.num_tasks) * 0.6 + model_bytes;
    epoch.driver_sync_in = model_bytes;   // gradients converge on driver
    epoch.driver_sync_out = model_bytes;  // updated weights fan out
    epoch.driver_sync_rounds = 3;         // parameter negotiation
    dag.stages.push_back(std::move(epoch));
  }

  StageSpec eval;
  eval.id = static_cast<int>(dag.stages.size());
  eval.name = "evaluate";
  eval.deps = {eval.id - 1};
  eval.num_tasks = std::max(2, cfg.executors);
  eval.shuffle_bytes_in = input * 0.1;
  eval.cpu_work_per_task = input * 0.1 /
                           static_cast<double>(eval.num_tasks) /
                           kMapBytesPerCoreSec;
  eval.output_bytes = 1e6;
  eval.memory_per_task = model_bytes;
  dag.stages.push_back(std::move(eval));

  dag.result_bytes = model_bytes + 8e6;  // final weights + metrics
  dag.broadcast_bytes = 150e6 + model_bytes;  // framework jar + init model
  dag.validate();
  return dag;
}

AppDag build_streaming(const JobConfig& cfg) {
  // Multi-stage streaming job (§8): 3*iterations micro-batches, each a
  // small map + keyed aggregation with a per-batch driver commit. Nearly
  // all control plane: the job is a latency stress test for the driver's
  // RTT profile rather than a bandwidth one.
  const Bytes input = cfg.input_bytes();
  const int batches = cfg.iterations * 3;
  const Bytes per_batch = input / static_cast<double>(batches);
  AppDag dag;

  StageSpec source;
  source.id = 0;
  source.name = "source";
  source.num_tasks = std::max(2, cfg.executors);
  source.cpu_work_per_task = 0.02;
  source.output_bytes = per_batch;
  source.memory_per_task = per_batch;
  dag.stages.push_back(std::move(source));

  for (int b = 0; b < batches; ++b) {
    StageSpec batch;
    batch.id = static_cast<int>(dag.stages.size());
    batch.name = "microbatch-" + std::to_string(b + 1);
    batch.deps = {batch.id - 1};
    batch.num_tasks = std::max(2, cfg.executors);
    batch.shuffle_bytes_in = per_batch * 0.8;
    batch.cpu_work_per_task = per_batch /
                              static_cast<double>(batch.num_tasks) /
                              kAggBytesPerCoreSec;
    batch.output_bytes = per_batch;
    batch.memory_per_task = per_batch * 1.2;
    batch.driver_sync_in = std::min<Bytes>(per_batch * 0.05, 4e6);
    batch.driver_sync_rounds = 2;  // offset commit + watermark
    dag.stages.push_back(std::move(batch));
  }

  dag.result_bytes = std::min<Bytes>(input * 0.05, 48e6);
  dag.broadcast_bytes = 120e6;
  dag.validate();
  return dag;
}

}  // namespace

AppDag build_dag(const JobConfig& config, Rng& rng) {
  config.validate();
  switch (config.app) {
    case AppType::kSort: return build_sort(config);
    case AppType::kGroupBy: return build_groupby(config);
    case AppType::kJoin: return build_join(config, rng);
    case AppType::kPageRank: return build_pagerank(config);
    case AppType::kMlPipeline: return build_ml_pipeline(config);
    case AppType::kStreaming: return build_streaming(config);
  }
  throw Error("build_dag: unknown app type");
}

}  // namespace lts::spark
