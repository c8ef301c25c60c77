#include "simcore/engine.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace lts::sim {

namespace {
// Aggregated across every Engine instance in the process (environments are
// rebuilt constantly for counterfactuals; per-instance series would explode
// the registry).
struct EngineMetrics {
  obs::Counter& events = obs::counter(
      "lts_sim_events_processed_total", {},
      "Events executed by all simulation engines");
  obs::Gauge& queue_depth = obs::gauge(
      "lts_sim_event_queue_depth", {},
      "Pending events in the most recently stepped engine");
  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};
}  // namespace

Engine::Engine()
    : obs_enabled_(obs::MetricsRegistry::global().enabled_flag()) {}

void Engine::record_step_metrics() {
  auto& metrics = EngineMetrics::get();
  metrics.events.inc();
  metrics.queue_depth.set(static_cast<double>(handlers_.size()));
}

EventId Engine::schedule_at(SimTime t, std::function<void()> fn) {
  LTS_REQUIRE(t >= now_, "Engine: cannot schedule event in the past");
  const EventId id = next_id_++;
  queue_.push(QueueEntry{t, id});
  handlers_.emplace(id, std::move(fn));
  return id;
}

EventId Engine::schedule_in(SimTime delay, std::function<void()> fn) {
  LTS_REQUIRE(delay >= 0.0, "Engine: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

bool Engine::cancel(EventId id) {
  // Lazy deletion: drop the handler; the queue entry is skipped when popped.
  return handlers_.erase(id) > 0;
}

bool Engine::step() {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    auto it = handlers_.find(entry.id);
    if (it == handlers_.end()) continue;  // cancelled
    LTS_ASSERT(entry.time >= now_);
    now_ = entry.time;
    // Move the handler out before erasing so the callback may schedule or
    // cancel events (including re-entrant use of the same id space).
    auto fn = std::move(it->second);
    handlers_.erase(it);
    ++processed_;
    if (obs_enabled_->load(std::memory_order_relaxed)) {
      record_step_metrics();
    }
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime t) {
  LTS_REQUIRE(t >= now_, "Engine: run_until into the past");
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    if (handlers_.count(entry.id) == 0) {
      queue_.pop();
      continue;
    }
    if (entry.time > t) break;
    step();
  }
  now_ = t;
}

PeriodicTask::PeriodicTask(Engine& engine, SimTime interval, SimTime phase,
                           std::function<void()> fn)
    : engine_(engine), interval_(interval), fn_(std::move(fn)) {
  LTS_REQUIRE(interval > 0.0, "PeriodicTask: interval must be positive");
  LTS_REQUIRE(phase >= 0.0, "PeriodicTask: negative phase");
  pending_ = engine_.schedule_in(phase, [this] { arm(); });
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != kInvalidEvent) engine_.cancel(pending_);
  pending_ = kInvalidEvent;
}

void PeriodicTask::arm() {
  if (!running_) return;
  fn_();
  if (!running_) return;  // fn may have stopped us
  pending_ = engine_.schedule_in(interval_, [this] { arm(); });
}

}  // namespace lts::sim
