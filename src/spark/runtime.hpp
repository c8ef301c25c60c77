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

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "spark/dag.hpp"
#include "spark/job.hpp"
#include "util/rng.hpp"

namespace lts::spark {

struct RuntimeOptions {
  /// Fault injection: each task independently fails once with this
  /// probability (pre-drawn per task). A failed task burns a fixed share of
  /// its CPU work, is detected after a fixed delay, and is retried on the
  /// same executor (first retry always succeeds, as Spark's default
  /// 4-attempt budget almost always does).
  double task_failure_rate = 0.0;
};

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
  int task_retries = 0;  // fault-injection retries that occurred
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
           Rng rng, RuntimeOptions options = {});
  ~SparkApp();

  SparkApp(const SparkApp&) = delete;
  SparkApp& operator=(const SparkApp&) = delete;

  /// Submits the application at the current simulated time. `on_complete`
  /// fires once, with the final result.
  void submit(std::function<void(const AppResult&)> on_complete);

  /// Aborts a running application, releasing every held resource.
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

    bool has_pending() const { return next_pending < pending_tasks.size(); }
  };

  /// What a parked continuation waits for.
  enum class Waiting : std::uint8_t { kEvent, kFlow, kCpu };
  /// A continuation parked until its event fires, its flow lands or its
  /// CPU task finishes; the record carrying its slot resumes it.
  struct Continuation {
    std::function<void()> fn;  // empty: free slot
    Waiting on = Waiting::kEvent;
    std::uint64_t id = 0;  // the event, flow or CPU task
    std::size_t node = 0;  // the CPU task's node
  };

  // -- resource-tracked primitives (all cancellable via cancel()) --
  std::uint32_t park(std::function<void()> fn, Waiting on,
                     std::size_t node = 0);
  sim::Event step_event(std::uint32_t slot) const {
    return sim::target_event(target_, 0, slot);
  }
  void schedule(SimTime delay, std::function<void()> fn);
  void start_flow(std::size_t src_node, std::size_t dst_node, Bytes bytes,
                  std::function<void()> fn);
  void run_cpu(std::size_t node, double demand, double work,
               std::function<void()> fn);

  SimTime rtt(std::size_t a, std::size_t b) const;

  void on_driver_started();
  void on_executor_registered(std::size_t executor_index);
  void begin_broadcast();
  void start_ready_stages();
  void start_stage(int stage_id);
  /// Dynamic task assignment: fills every free slot with the next pending
  /// task of the oldest running stage (Spark hands tasks to whichever
  /// executor has capacity, so a slow node naturally receives fewer tasks).
  void pump_slots();
  void begin_task(int stage_id, int task, std::size_t executor_index);
  void task_inputs_ready(int stage_id, int task, std::size_t executor_index);
  void task_cpu_done(int stage_id, int task, std::size_t executor_index,
                     Bytes held_memory);
  void on_task_report(int stage_id);
  void finish_stage(int stage_id);
  void stage_sync_gather(int stage_id);
  void stage_sync_scatter(int stage_id);
  void complete_stage(int stage_id);
  void begin_collect();
  void finish_app();
  void release_pods();

  /// Fraction of upstream map output held by each executor, for stage
  /// `stage_id`'s shuffle reads.
  std::vector<double> source_fractions(int stage_id) const;

  cluster::Cluster& cluster_;
  JobConfig config_;
  AppDag dag_;
  std::size_t driver_node_;
  RuntimeOptions options_;

  // Pre-drawn randomness (see header comment).
  SimTime driver_startup_delay_ = 0.0;
  std::vector<SimTime> executor_startup_delays_;
  std::vector<std::vector<double>> task_jitter_;   // [stage][task]
  std::vector<std::vector<char>> task_will_fail_;  // [stage][task], once

  std::vector<ExecutorState> executors_;
  std::vector<StageState> stage_state_;
  int executors_pending_ = 0;
  int broadcast_remaining_ = 0;
  int stages_remaining_ = 0;
  int collect_remaining_ = 0;

  bool running_ = false;
  AppResult result_;
  std::function<void(const AppResult&)> on_complete_;

  // Live resources for cancellation safety.
  std::vector<Continuation> continuations_;
  std::vector<std::uint32_t> free_continuations_;
  std::uint32_t target_ = 0;
  std::vector<std::pair<std::size_t, cluster::CpuTaskId>> service_cpu_;
  std::vector<std::pair<std::size_t, Bytes>> held_memory_;
};

}  // namespace lts::spark
