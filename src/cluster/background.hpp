// Background load generator.
//
// Reproduces the paper's contention pod (§5.2): "a pod that repeatedly
// downloads a 10MB file over HTTP using curl", placed randomly on selected
// nodes during job execution. Each generator is a client pod on one node
// fetching from an HTTP server pod on another node: every fetch is a real
// simulated flow (server -> client) plus CPU demand on both ends, so it
// shows up in NIC counters, RTT inflation, and load average — the exact
// signals the scheduling model trains on.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/flow.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace lts::cluster {

struct BackgroundLoadOptions {
  SimTime mean_pause = 0.15;               // think time between fetches
  int parallel_fetches = 1;                // concurrent curl loops in the pod
  /// Resident memory the pod pair holds while running (downloads buffered
  /// in page cache); makes contention visible to the memory telemetry.
  Bytes client_memory = 1.2 * 1024 * 1024 * 1024;
  Bytes server_memory = 0.6 * 1024 * 1024 * 1024;
};

/// One background pod pair (client + server). Runs until stop().
class BackgroundLoad final : public sim::EventTarget {
 public:
  BackgroundLoad(Cluster& cluster, std::size_t client_node,
                 std::size_t server_node, BackgroundLoadOptions options,
                 Rng rng);
  /// Member-wise copy of `other` (its loops, Rng state and pending events)
  /// re-pointed at `cluster`, a copy of other's cluster.
  BackgroundLoad(const BackgroundLoad& other, Cluster& cluster);
  ~BackgroundLoad();

  BackgroundLoad& operator=(const BackgroundLoad&) = delete;

  void start();
  /// Schedules start() `delay` seconds from now.
  void start_in(SimTime delay);
  void stop();
  bool running() const { return running_; }

  std::size_t client_node() const { return client_; }
  std::size_t server_node() const { return server_; }
  std::uint64_t fetches_completed() const { return fetches_; }

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "BackgroundLoad"; }

 private:
  /// Copies every member; the rebinding constructor re-points the cluster.
  BackgroundLoad(const BackgroundLoad&) = default;

  /// Event codes of this pod pair's records; fetch records carry the loop.
  enum Code : std::uint8_t { kStart, kFetch, kFetchDone };

  struct Loop {
    net::FlowId flow = net::kInvalidFlow;
    CpuTaskId client_cpu = kInvalidCpuTask;
    CpuTaskId server_cpu = kInvalidCpuTask;
    sim::EventId pause_event = sim::kInvalidEvent;
  };

  void begin_fetch(std::size_t loop_idx);
  void end_fetch(std::size_t loop_idx);

  Cluster* cluster_;
  std::size_t client_;
  std::size_t server_;
  BackgroundLoadOptions options_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t fetches_ = 0;
  std::vector<Loop> loops_;
  sim::EventId start_event_ = sim::kInvalidEvent;
  std::uint32_t target_ = 0;
};

}  // namespace lts::cluster
