#include "spark/runtime.hpp"

#include <algorithm>
#include <cmath>

namespace lts::spark {

namespace {

constexpr SimTime kDriverStartupMin = 2.2;  // pod image + JVM + context init
constexpr SimTime kDriverStartupMax = 3.6;
constexpr SimTime kExecutorStartupMin = 1.8;
constexpr SimTime kExecutorStartupMax = 3.2;
constexpr double kDriverPlanningWork = 0.4;  // core-s before executors launch
constexpr double kDriverServiceCpu = 0.15;   // persistent demand while running
constexpr double kExecutorServiceCpu = 0.08;
constexpr double kDispatchCpuPerTask = 0.008;  // driver core-seconds per task
constexpr double kStageFinalizeCpu = 0.1;
constexpr double kCollectFinalizeCpu = 0.2;  // fixed part of the driver merge
constexpr double kCollectCpuPerByte = 1.0 / 80e6;  // merge cost per result byte
constexpr SimTime kTaskLaunchOverhead = 0.002;  // serialization etc., per task
constexpr double kTaskJitterSigma = 0.04;  // lognormal shape on task CPU work
constexpr double kSpillSlowdown = 1.2;     // task working set > heap share
constexpr double kNodeSwapSlowdown = 2.0;  // node memory over-committed
constexpr Rate kLocalReadRate = 800e6;     // node-local shuffle read, bytes/s
constexpr SimTime kLoopbackRtt = 0.2e-3;   // driver and executor co-located

}  // namespace

SparkApp::SparkApp(cluster::Cluster& cluster, JobConfig config, AppDag dag,
                   std::size_t driver_node,
                   std::vector<std::size_t> executor_nodes, Rng rng)
    : cluster_(cluster),
      config_(std::move(config)),
      dag_(std::move(dag)),
      driver_node_(driver_node) {
  config_.validate();
  dag_.validate();
  LTS_REQUIRE(driver_node_ < cluster_.num_nodes(),
              "SparkApp: driver node out of range");
  LTS_REQUIRE(executor_nodes.size() ==
                  static_cast<std::size_t>(config_.executors),
              "SparkApp: need one node per executor");
  executors_.resize(executor_nodes.size());
  for (std::size_t i = 0; i < executor_nodes.size(); ++i) {
    LTS_REQUIRE(executor_nodes[i] < cluster_.num_nodes(),
                "SparkApp: executor node out of range");
    executors_[i].node = executor_nodes[i];
    executors_[i].slots =
        std::max(1, static_cast<int>(std::llround(config_.executor_cores)));
  }

  // Pre-draw all randomness so that counterfactual replays (same seed,
  // different driver node) see identical draws per task.
  driver_startup_delay_ = rng.uniform(kDriverStartupMin, kDriverStartupMax);
  executor_startup_delays_.reserve(executors_.size());
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    executor_startup_delays_.push_back(
        rng.uniform(kExecutorStartupMin, kExecutorStartupMax));
  }
  task_jitter_.resize(dag_.stages.size());
  for (std::size_t s = 0; s < dag_.stages.size(); ++s) {
    task_jitter_[s].reserve(static_cast<std::size_t>(dag_.stages[s].num_tasks));
    for (int t = 0; t < dag_.stages[s].num_tasks; ++t) {
      task_jitter_[s].push_back(rng.lognormal_median(1.0, kTaskJitterSigma));
    }
  }
  target_ = cluster_.engine().add_target(this);
}

SparkApp::~SparkApp() {
  cancel();
  cluster_.engine().remove_target(target_);
}

void SparkApp::cancel() {
  if (!running_) return;
  running_ = false;
  // Release in the order the id-ordered live sets did: pending events, then
  // flows by id, then CPU tasks by (node, id). Each CPU cancel reschedules
  // its pool's completion event, so this order decides event ids. A task
  // whose CPU work is cut short also gives back its working set.
  std::vector<net::FlowId> flows;
  std::vector<std::pair<std::size_t, cluster::CpuTaskId>> cpu_tasks;
  for (std::uint32_t slot = 0; slot < continuations_.size(); ++slot) {
    Continuation& c = continuations_[slot];
    if (c.step.code == Code::kFree) continue;
    switch (c.on) {
      case Waiting::kEvent:
        cluster_.engine().cancel(c.id);
        break;
      case Waiting::kFlow:
        flows.push_back(c.id);
        break;
      case Waiting::kCpu:
        cpu_tasks.emplace_back(c.node, c.id);
        break;
    }
    if (c.step.code == Code::kTaskDone) {
      cluster_.node(c.node).release_memory(
          task_memory(c.step.stage, c.step.task));
    }
    c.step.code = Code::kFree;
    free_continuations_.push_back(slot);
  }
  std::sort(flows.begin(), flows.end());
  std::sort(cpu_tasks.begin(), cpu_tasks.end());
  for (const auto id : flows) cluster_.flows().cancel(id);
  for (const auto& [node, id] : cpu_tasks) cluster_.node(node).cpu().cancel(id);
  release_pods();
}

void SparkApp::release_pods() {
  for (const auto& [node, id] : service_cpu_) {
    cluster_.node(node).cpu().cancel(id);
  }
  service_cpu_.clear();
  for (const auto& [node, bytes] : held_memory_) {
    cluster_.node(node).release_memory(bytes);
  }
  held_memory_.clear();
}

std::uint32_t SparkApp::park(Step step, Waiting on, std::size_t node) {
  std::uint32_t slot;
  if (!free_continuations_.empty()) {
    slot = free_continuations_.back();
    free_continuations_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(continuations_.size());
    continuations_.emplace_back();
  }
  continuations_[slot] = Continuation{step, on, 0, node};
  return slot;
}

void SparkApp::on_event(const sim::Event& event) {
  const auto slot = static_cast<std::uint32_t>(event.payload);
  const Step step = continuations_[slot].step;
  // A record can outlive cancel() when its flow or CPU task finished in the
  // harvest that led to the cancel; its slot is already free.
  if (step.code == Code::kFree) return;
  // Free the slot before resuming: the step may park new ones.
  continuations_[slot].step.code = Code::kFree;
  free_continuations_.push_back(slot);
  resume(step);
}

void SparkApp::resume(const Step& step) {
  switch (step.code) {
    case Code::kFree:
      break;
    case Code::kDriverStarted:
      on_driver_started();
      break;
    case Code::kPlanned:
      register_executors();
      break;
    case Code::kExecutorRegistered:
      on_executor_registered(step.executor);
      break;
    case Code::kBroadcastArrived:
      if (--broadcast_remaining_ == 0) start_ready_stages();
      break;
    case Code::kStageDispatched:
      queue_stage_tasks(step.stage);
      break;
    case Code::kTaskLaunched:
      begin_task(step.stage, step.task, step.executor);
      break;
    case Code::kTaskInputArrived:
      if (--stage_state_[static_cast<std::size_t>(step.stage)]
                .inputs_remaining[static_cast<std::size_t>(step.task)] == 0) {
        task_inputs_ready(step.stage, step.task, step.executor);
      }
      break;
    case Code::kTaskDone:
      task_cpu_done(step.stage, step.task, step.executor);
      break;
    case Code::kTaskReported:
      if (--stage_state_[static_cast<std::size_t>(step.stage)]
                .reports_remaining == 0) {
        finish_stage(step.stage);
      }
      break;
    case Code::kSyncRoundsDone:
      stage_sync_gather(step.stage);
      break;
    case Code::kSyncGatherArrived:
      if (--stage_state_[static_cast<std::size_t>(step.stage)]
                .sync_remaining == 0) {
        stage_sync_scatter(step.stage);
      }
      break;
    case Code::kSyncAggregated:
      scatter_sync_state(step.stage);
      break;
    case Code::kSyncScatterArrived:
      if (--stage_state_[static_cast<std::size_t>(step.stage)]
                .sync_remaining == 0) {
        complete_stage(step.stage);
      }
      break;
    case Code::kCollectArrived:
      if (--collect_remaining_ == 0) finish_app();
      break;
    case Code::kMerged:
      complete();
      break;
  }
}

void SparkApp::schedule(SimTime delay, Step step) {
  const std::uint32_t slot = park(step, Waiting::kEvent);
  continuations_[slot].id =
      cluster_.engine().schedule_in(delay, step_event(slot));
}

void SparkApp::start_flow(std::size_t src_node, std::size_t dst_node,
                          Bytes bytes, Step step) {
  // FlowManager::start defers the max-min recompute to a same-timestamp
  // hook, so the M×N flows a shuffle stage opens in one event share a
  // single progressive fill instead of paying one each.
  const std::uint32_t slot = park(step, Waiting::kFlow);
  continuations_[slot].id = cluster_.flows().start(
      cluster_.node(src_node).vertex(), cluster_.node(dst_node).vertex(),
      bytes, step_event(slot));
}

void SparkApp::run_cpu(std::size_t node, double demand, double work,
                       Step step) {
  const std::uint32_t slot = park(step, Waiting::kCpu, node);
  continuations_[slot].id =
      cluster_.node(node).cpu().run(demand, work, step_event(slot));
}

SimTime SparkApp::rtt(std::size_t a, std::size_t b) const {
  if (a == b) return kLoopbackRtt;
  return cluster_.flows().current_rtt(cluster_.node(a).vertex(),
                                      cluster_.node(b).vertex());
}

void SparkApp::submit(sim::Event on_complete) {
  LTS_REQUIRE(!running_ && !result_.completed, "SparkApp: already submitted");
  running_ = true;
  on_complete_ = on_complete;
  result_.submit_time = cluster_.engine().now();
  result_.driver_node = cluster_.node(driver_node_).name();
  for (const auto& e : executors_) {
    result_.executor_nodes.push_back(cluster_.node(e.node).name());
  }
  result_.stages.resize(dag_.stages.size());
  stage_state_.assign(dag_.stages.size(), StageState{});
  for (std::size_t s = 0; s < dag_.stages.size(); ++s) {
    stage_state_[s].deps_remaining =
        static_cast<int>(dag_.stages[s].deps.size());
    stage_state_[s].reports_remaining = dag_.stages[s].num_tasks;
    result_.stages[s].stage_id = dag_.stages[s].id;
    result_.stages[s].name = dag_.stages[s].name;
    result_.stages[s].tasks = dag_.stages[s].num_tasks;
  }
  stages_remaining_ = static_cast<int>(dag_.stages.size());
  executors_pending_ = static_cast<int>(executors_.size());

  schedule(driver_startup_delay_, {Code::kDriverStarted});
}

void SparkApp::on_driver_started() {
  // Driver pod is up: hold its memory and service CPU, then plan the job.
  cluster_.node(driver_node_).allocate_memory(config_.driver_memory);
  held_memory_.emplace_back(driver_node_, config_.driver_memory);
  service_cpu_.emplace_back(
      driver_node_,
      cluster_.node(driver_node_).cpu().add_persistent(kDriverServiceCpu));
  run_cpu(driver_node_, std::min(config_.driver_cores, 1.0),
          kDriverPlanningWork, {Code::kPlanned});
}

void SparkApp::register_executors() {
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    // Pod start + registration round trip back to the driver.
    const SimTime delay =
        executor_startup_delays_[i] + rtt(executors_[i].node, driver_node_);
    schedule(delay, {.code = Code::kExecutorRegistered, .executor = i});
  }
}

void SparkApp::on_executor_registered(std::size_t executor_index) {
  auto& exec = executors_[executor_index];
  exec.registered = true;
  cluster_.node(exec.node).allocate_memory(config_.executor_memory);
  held_memory_.emplace_back(exec.node, config_.executor_memory);
  service_cpu_.emplace_back(
      exec.node,
      cluster_.node(exec.node).cpu().add_persistent(kExecutorServiceCpu));
  if (--executors_pending_ == 0) {
    begin_broadcast();
  }
}

void SparkApp::driver_transfers(Bytes bytes, bool to_driver, Step step,
                                int& remaining) {
  remaining = 0;
  SimTime local_time = 0.0;
  for (const auto& exec : executors_) {
    if (exec.node == driver_node_) {
      local_time = std::max(local_time, bytes / kLocalReadRate);
      continue;
    }
    ++remaining;
  }
  if (remaining == 0) {
    remaining = 1;
    schedule(local_time, step);
    return;
  }
  for (const auto& exec : executors_) {
    if (exec.node == driver_node_) continue;
    if (to_driver) {
      start_flow(exec.node, driver_node_, bytes, step);
    } else {
      start_flow(driver_node_, exec.node, bytes, step);
    }
  }
}

void SparkApp::begin_broadcast() {
  // The driver's file server ships jars/closures/broadcast variables to
  // every executor before any task can run (Spark cluster mode). These
  // flows leave the driver's node: its network position and current tx load
  // directly gate how fast the job gets off the ground.
  if (dag_.broadcast_bytes <= 1.0) {
    start_ready_stages();
    return;
  }
  driver_transfers(dag_.broadcast_bytes, /*to_driver=*/false,
                   {Code::kBroadcastArrived}, broadcast_remaining_);
}

void SparkApp::start_ready_stages() {
  for (std::size_t s = 0; s < dag_.stages.size(); ++s) {
    if (!stage_state_[s].started && stage_state_[s].deps_remaining == 0) {
      start_stage(static_cast<int>(s));
    }
  }
}

void SparkApp::start_stage(int stage_id) {
  auto& state = stage_state_[static_cast<std::size_t>(stage_id)];
  state.started = true;
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  result_.stages[static_cast<std::size_t>(stage_id)].start =
      cluster_.engine().now();
  // The driver serializes and dispatches every task of the stage: CPU work
  // on the driver's node that scales with the task count.
  const double dispatch_work =
      kDispatchCpuPerTask * static_cast<double>(spec.num_tasks) +
      kStageFinalizeCpu;
  run_cpu(driver_node_, std::min(config_.driver_cores, 1.0), dispatch_work,
          {.code = Code::kStageDispatched, .stage = stage_id});
}

void SparkApp::queue_stage_tasks(int stage_id) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  auto& state = stage_state_[static_cast<std::size_t>(stage_id)];
  state.tasks_on_executor.assign(executors_.size(), 0);
  state.inputs_remaining.assign(static_cast<std::size_t>(spec.num_tasks), 0);
  state.pending_tasks.reserve(static_cast<std::size_t>(spec.num_tasks));
  for (int t = 0; t < spec.num_tasks; ++t) {
    state.pending_tasks.push_back(t);
  }
  pump_slots();
}

void SparkApp::pump_slots() {
  // Fill free slots from the oldest running stage's pending queue. The
  // launch message occupies the slot for half an RTT (the executor waits
  // for its next task from the driver).
  for (std::size_t s = 0; s < stage_state_.size(); ++s) {
    auto& st = stage_state_[s];
    if (!st.started || st.finished || !st.has_pending()) continue;
    for (std::size_t e = 0; e < executors_.size() && st.has_pending(); ++e) {
      auto& exec = executors_[e];
      while (exec.running < exec.slots && st.has_pending()) {
        const int task = st.pending_tasks[st.next_pending++];
        ++st.tasks_on_executor[e];
        ++exec.running;
        const SimTime launch_delay =
            0.5 * rtt(driver_node_, exec.node) + kTaskLaunchOverhead;
        schedule(launch_delay, {Code::kTaskLaunched, static_cast<int>(s),
                                task, e});
      }
    }
  }
}

std::vector<double> SparkApp::source_fractions(int stage_id) const {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  std::vector<double> frac(executors_.size(), 0.0);
  double total = 0.0;
  for (const int dep : spec.deps) {
    const StageSpec& parent = dag_.stages[static_cast<std::size_t>(dep)];
    if (parent.output_bytes <= 0.0) continue;
    // Map output lives where the parent's tasks actually ran.
    const auto& parent_state = stage_state_[static_cast<std::size_t>(dep)];
    for (std::size_t k = 0; k < executors_.size(); ++k) {
      const double share =
          parent.output_bytes *
          static_cast<double>(parent_state.tasks_on_executor[k]) /
          static_cast<double>(parent.num_tasks);
      frac[k] += share;
      total += share;
    }
  }
  if (total > 0.0) {
    for (auto& f : frac) f /= total;
  }
  return frac;
}

void SparkApp::begin_task(int stage_id, int task,
                          std::size_t executor_index) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  const Bytes task_in =
      spec.shuffle_bytes_in * spec.task_weight(task);
  if (spec.deps.empty() || task_in <= 0.0) {
    task_inputs_ready(stage_id, task, executor_index);
    return;
  }
  const auto frac = source_fractions(stage_id);
  const std::size_t dst_node = executors_[executor_index].node;
  const Step arrived{Code::kTaskInputArrived, stage_id, task, executor_index};
  int& remaining = stage_state_[static_cast<std::size_t>(stage_id)]
                       .inputs_remaining[static_cast<std::size_t>(task)];
  SimTime local_read_time = 0.0;
  for (std::size_t src = 0; src < executors_.size(); ++src) {
    const Bytes bytes = task_in * frac[src];
    if (bytes <= 1.0) continue;  // below one byte: nothing to move
    const std::size_t src_node = executors_[src].node;
    if (src_node == dst_node) {
      // Node-local read: no network flow, just local I/O.
      local_read_time =
          std::max(local_read_time, bytes / kLocalReadRate);
      continue;
    }
    ++remaining;
    result_.total_shuffle_bytes += bytes;
    result_.stages[static_cast<std::size_t>(stage_id)].shuffle_bytes += bytes;
    start_flow(src_node, dst_node, bytes, arrived);
  }
  // All input local, or a local read beside the flows: one more arrival.
  if (remaining == 0 || local_read_time > 0.0) {
    ++remaining;
    schedule(local_read_time, arrived);
  }
}

Bytes SparkApp::task_memory(int stage_id, int task) const {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  return spec.memory_per_task * spec.task_weight(task) *
         static_cast<double>(spec.num_tasks);
}

void SparkApp::task_inputs_ready(int stage_id, int task,
                                 std::size_t executor_index) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  auto& exec = executors_[executor_index];
  const std::size_t node_idx = exec.node;
  auto& node = cluster_.node(node_idx);

  const Bytes task_mem = task_memory(stage_id, task);
  node.allocate_memory(task_mem);

  // Spill penalty: the working set must fit in this task's share of the
  // executor heap; beyond that Spark spills to disk.
  const double heap_share =
      config_.executor_memory / static_cast<double>(exec.slots);
  const double spill =
      1.0 + kSpillSlowdown * std::max(0.0, task_mem / heap_share - 1.0);
  // Swap penalty: the *node's* physical memory is over-committed.
  const double swap =
      1.0 + kNodeSwapSlowdown * std::max(0.0, node.memory_pressure() - 1.0);
  result_.max_spill_penalty =
      std::max(result_.max_spill_penalty, spill * swap);

  const double jitter =
      task_jitter_[static_cast<std::size_t>(stage_id)]
                  [static_cast<std::size_t>(task)];
  const double work = spec.cpu_work_per_task *
                      spec.task_weight(task) *
                      static_cast<double>(spec.num_tasks) * jitter * spill *
                      swap;
  run_cpu(node_idx, 1.0, std::max(work, 1e-6),
          {Code::kTaskDone, stage_id, task, executor_index});
}

void SparkApp::task_cpu_done(int stage_id, int task,
                             std::size_t executor_index) {
  auto& exec = executors_[executor_index];
  cluster_.node(exec.node).release_memory(task_memory(stage_id, task));
  --exec.running;
  pump_slots();
  // Completion report travels back to the driver.
  const SimTime report_delay = 0.5 * rtt(exec.node, driver_node_);
  schedule(report_delay, {.code = Code::kTaskReported, .stage = stage_id});
}

void SparkApp::finish_stage(int stage_id) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  const bool has_sync = spec.driver_sync_in > 1.0 ||
                        spec.driver_sync_out > 1.0 ||
                        spec.driver_sync_rounds > 0;
  if (!has_sync) {
    complete_stage(stage_id);
    return;
  }
  // Serialized control rounds first: each is a full RTT to the farthest
  // executor at the current congestion level.
  SimTime control_latency = 0.0;
  if (spec.driver_sync_rounds > 0) {
    SimTime worst_rtt = 0.0;
    for (const auto& exec : executors_) {
      worst_rtt = std::max(worst_rtt, rtt(driver_node_, exec.node));
    }
    control_latency = worst_rtt * static_cast<double>(spec.driver_sync_rounds);
  }
  schedule(control_latency,
           {.code = Code::kSyncRoundsDone, .stage = stage_id});
}

void SparkApp::stage_sync_gather(int stage_id) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  if (spec.driver_sync_in <= 1.0) {
    stage_sync_scatter(stage_id);
    return;
  }
  driver_transfers(spec.driver_sync_in / static_cast<double>(executors_.size()),
                   /*to_driver=*/true,
                   {.code = Code::kSyncGatherArrived, .stage = stage_id},
                   stage_state_[static_cast<std::size_t>(stage_id)]
                       .sync_remaining);
}

void SparkApp::stage_sync_scatter(int stage_id) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  // Aggregation on the driver before the new state ships out.
  const double agg_work =
      0.05 + (spec.driver_sync_in + spec.driver_sync_out) / 300e6;
  run_cpu(driver_node_, std::min(config_.driver_cores, 1.0), agg_work,
          {.code = Code::kSyncAggregated, .stage = stage_id});
}

void SparkApp::scatter_sync_state(int stage_id) {
  const StageSpec& spec = dag_.stages[static_cast<std::size_t>(stage_id)];
  if (spec.driver_sync_out <= 1.0) {
    complete_stage(stage_id);
    return;
  }
  driver_transfers(spec.driver_sync_out, /*to_driver=*/false,
                   {.code = Code::kSyncScatterArrived, .stage = stage_id},
                   stage_state_[static_cast<std::size_t>(stage_id)]
                       .sync_remaining);
}

void SparkApp::complete_stage(int stage_id) {
  auto& state = stage_state_[static_cast<std::size_t>(stage_id)];
  state.finished = true;
  result_.stages[static_cast<std::size_t>(stage_id)].end =
      cluster_.engine().now();
  for (std::size_t s = 0; s < dag_.stages.size(); ++s) {
    const auto& deps = dag_.stages[s].deps;
    if (std::find(deps.begin(), deps.end(), stage_id) != deps.end()) {
      --stage_state_[s].deps_remaining;
    }
  }
  if (--stages_remaining_ == 0) {
    begin_collect();
  } else {
    start_ready_stages();
  }
}

void SparkApp::begin_collect() {
  result_.result_bytes = dag_.result_bytes;
  if (dag_.result_bytes <= 1.0) {
    finish_app();
    return;
  }
  driver_transfers(dag_.result_bytes / static_cast<double>(executors_.size()),
                   /*to_driver=*/true, {Code::kCollectArrived},
                   collect_remaining_);
}

void SparkApp::finish_app() {
  // Driver finalizes: the collected results are buffered and merged on the
  // driver's node. The merge buffers are a real allocation — on a node whose
  // physical memory is tight (background pods, co-located executors) the
  // merge thrashes, a threshold effect that makes memory telemetry the
  // dominant signal for collect-heavy jobs (Join).
  auto& driver = cluster_.node(driver_node_);
  const Bytes merge_buffer = dag_.result_bytes * 4.0;
  driver.allocate_memory(merge_buffer);
  held_memory_.emplace_back(driver_node_, merge_buffer);
  const double thrash =
      1.0 + 5.0 * std::max(0.0, driver.memory_pressure() - 0.6);
  const double merge_work =
      (kCollectFinalizeCpu + kCollectCpuPerByte * dag_.result_bytes) * thrash;
  run_cpu(driver_node_, std::min(config_.driver_cores, 1.0), merge_work,
          {Code::kMerged});
}

void SparkApp::complete() {
  // The listener may destroy this app, so no record may still address it.
  LTS_ASSERT(free_continuations_.size() == continuations_.size());
  running_ = false;
  release_pods();
  result_.completed = true;
  result_.finish_time = cluster_.engine().now();
  // Dispatched last, from a copy: the listener may destroy this app.
  const sim::Event on_complete = on_complete_;
  cluster_.engine().dispatch(on_complete);
}

}  // namespace lts::spark
