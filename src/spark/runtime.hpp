// Spark application runtime: executes an AppDag on the simulated cluster.
//
// The runtime reproduces the mechanisms through which driver placement
// affects completion time in a real geo-distributed Spark deployment:
//
//   * control plane   — every task launch and completion report crosses the
//                       driver<->executor RTT, so a driver far from (or on a
//                       congested path to) its executors pays per-task;
//   * driver compute  — job planning, task dispatch and result finalization
//                       are CPU tasks on the driver's node and contend with
//                       background load there;
//   * shuffles        — map outputs move between executor nodes as real
//                       flows through the shared network;
//   * collect         — final results stream back to the driver node;
//   * memory          — tasks allocate working sets; exceeding the executor
//                       heap or the node's physical memory slows them
//                       (spill / swap), which is how Join's skew bites.
//
// All randomness (startup delays, per-task jitter) is pre-drawn at
// construction, so running the same (config, dag, rng seed) with a different
// driver node is an exact counterfactual.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "spark/dag.hpp"
#include "spark/job.hpp"
#include "util/rng.hpp"

namespace lts::spark {

struct StageMetrics {
  int stage_id = 0;
  std::string name;
  SimTime start = 0.0;
  SimTime end = 0.0;
  Bytes shuffle_bytes = 0.0;
  int tasks = 0;
};

struct AppResult {
  bool completed = false;
  SimTime submit_time = 0.0;
  SimTime finish_time = 0.0;
  std::string driver_node;
  std::vector<std::string> executor_nodes;
  std::vector<StageMetrics> stages;
  Bytes total_shuffle_bytes = 0.0;
  Bytes result_bytes = 0.0;
  double max_spill_penalty = 1.0;

  double duration() const { return finish_time - submit_time; }
};

class SparkApp final : public sim::EventTarget {
 public:
  /// `executor_nodes` has one node index per executor (the k8s default
  /// scheduler's choices); `driver_node` is the scheduler-under-test's pick.
  SparkApp(cluster::Cluster& cluster, JobConfig config, AppDag dag,
           std::size_t driver_node, std::vector<std::size_t> executor_nodes,
           Rng rng);
  ~SparkApp();

  SparkApp(const SparkApp&) = delete;
  SparkApp& operator=(const SparkApp&) = delete;

  /// Submits the application at the current simulated time. Once the app
  /// completes, `on_complete` is dispatched (a record without a target:
  /// nobody listens); its listener reads result() and may destroy the app.
  void submit(sim::Event on_complete = {});

  /// Aborts a running application, releasing every held resource; its
  /// completion record never fires.
  void cancel();

  bool running() const { return running_; }
  const AppResult& result() const { return result_; }
  const JobConfig& config() const { return config_; }

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "SparkApp"; }

 private:
  struct ExecutorState {
    std::size_t node = 0;
    int slots = 1;
    int running = 0;
    bool registered = false;
  };

  struct StageState {
    int deps_remaining = 0;
    int reports_remaining = 0;
    bool started = false;
    bool finished = false;
    // Tasks not yet assigned to a slot: pending_tasks[next_pending..] —
    // a cursor instead of front-erase keeps dispatch FIFO without the
    // O(tasks²) shuffle-down of erasing from the head.
    std::vector<int> pending_tasks;
    std::size_t next_pending = 0;
    std::vector<int> tasks_on_executor;  // per executor, assigned count
    std::vector<int> inputs_remaining;   // per task, reads still in flight
    int sync_remaining = 0;  // driver-sync transfers still in flight

    bool has_pending() const { return next_pending < pending_tasks.size(); }
  };

  /// The steps a record resumes. Each names the work that follows an event
  /// firing, a flow landing or a CPU task finishing; an *Arrived step
  /// counts one of several transfers (or the one local read standing in for
  /// them) and moves on with the last.
  enum class Code : std::uint8_t {
    kFree,                // an empty slot
    kDriverStarted,       // the driver pod is up
    kPlanned,             // the driver planned the job
    kExecutorRegistered,  // executor
    kBroadcastArrived,
    kStageDispatched,     // stage: the driver dispatched its tasks
    kTaskLaunched,        // stage, task, executor
    kTaskInputArrived,    // stage, task, executor
    kTaskDone,            // stage, task, executor: its CPU work finished
    kTaskReported,        // stage
    kSyncRoundsDone,      // stage: the control rounds before the gather
    kSyncGatherArrived,   // stage
    kSyncAggregated,      // stage: the driver merged the gathered state
    kSyncScatterArrived,  // stage
    kCollectArrived,
    kMerged,  // the driver merged the results: the app completes
  };
  struct Step {
    Code code = Code::kFree;
    int stage = 0;
    int task = 0;
    std::size_t executor = 0;
  };
  /// What a parked step waits for.
  enum class Waiting : std::uint8_t { kEvent, kFlow, kCpu };
  /// A step parked until its event fires, its flow lands or its CPU task
  /// finishes; the record carrying its slot resumes it.
  struct Continuation {
    Step step;
    Waiting on = Waiting::kEvent;
    std::uint64_t id = 0;  // the event, flow or CPU task
    std::size_t node = 0;  // the CPU task's node
  };

  // -- resource-tracked primitives (all cancellable via cancel()) --
  std::uint32_t park(Step step, Waiting on, std::size_t node = 0);
  sim::Event step_event(std::uint32_t slot) const {
    return sim::target_event(target_, 0, slot);
  }
  void schedule(SimTime delay, Step step);
  void start_flow(std::size_t src_node, std::size_t dst_node, Bytes bytes,
                  Step step);
  void run_cpu(std::size_t node, double demand, double work, Step step);
  /// Runs a resumed step.
  void resume(const Step& step);

  SimTime rtt(std::size_t a, std::size_t b) const;

  void on_driver_started();
  void register_executors();
  void on_executor_registered(std::size_t executor_index);
  void begin_broadcast();
  void start_ready_stages();
  void start_stage(int stage_id);
  void queue_stage_tasks(int stage_id);
  /// Dynamic task assignment: fills every free slot with the next pending
  /// task of the oldest running stage (Spark hands tasks to whichever
  /// executor has capacity, so a slow node naturally receives fewer tasks).
  void pump_slots();
  void begin_task(int stage_id, int task, std::size_t executor_index);
  void task_inputs_ready(int stage_id, int task, std::size_t executor_index);
  void task_cpu_done(int stage_id, int task, std::size_t executor_index);
  void finish_stage(int stage_id);
  void stage_sync_gather(int stage_id);
  void stage_sync_scatter(int stage_id);
  void scatter_sync_state(int stage_id);
  void complete_stage(int stage_id);
  void begin_collect();
  void finish_app();
  void complete();
  void release_pods();
  /// Moves `bytes` between the driver and every executor off the driver's
  /// node (towards the driver when `to_driver`), each flow resuming `step`
  /// as it lands, and sets `remaining` to their count. With every executor
  /// on the driver's node, one local read of `bytes` resumes it instead.
  void driver_transfers(Bytes bytes, bool to_driver, Step step,
                        int& remaining);

  /// A task's working set: its weighted share of the stage's memory needs.
  Bytes task_memory(int stage_id, int task) const;
  /// Fraction of upstream map output held by each executor, for stage
  /// `stage_id`'s shuffle reads.
  std::vector<double> source_fractions(int stage_id) const;

  cluster::Cluster& cluster_;
  JobConfig config_;
  AppDag dag_;
  std::size_t driver_node_;

  // Pre-drawn randomness (see header comment).
  SimTime driver_startup_delay_ = 0.0;
  std::vector<SimTime> executor_startup_delays_;
  std::vector<std::vector<double>> task_jitter_;  // [stage][task]

  std::vector<ExecutorState> executors_;
  std::vector<StageState> stage_state_;
  int executors_pending_ = 0;
  int broadcast_remaining_ = 0;
  int stages_remaining_ = 0;
  int collect_remaining_ = 0;

  bool running_ = false;
  AppResult result_;
  sim::Event on_complete_;

  // Live resources for cancellation safety.
  std::vector<Continuation> continuations_;
  std::vector<std::uint32_t> free_continuations_;
  std::uint32_t target_ = 0;
  std::vector<std::pair<std::size_t, cluster::CpuTaskId>> service_cpu_;
  std::vector<std::pair<std::size_t, Bytes>> held_memory_;
};

}  // namespace lts::spark
