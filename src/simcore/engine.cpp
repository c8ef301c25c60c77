#include "simcore/engine.hpp"

#include <string>

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

constexpr int kSlotBits = 32;
}  // namespace

Engine::Engine()
    : obs_enabled_(obs::MetricsRegistry::global().enabled_flag()) {}

void Engine::record_step_metrics() {
  auto& metrics = EngineMetrics::get();
  metrics.events.inc();
  metrics.queue_depth.set(static_cast<double>(num_pending()));
}

EventId Engine::schedule_at(SimTime t, const Event& event) {
  LTS_REQUIRE(t >= now_, "Engine: cannot schedule event in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot] = Slot{id, event};
  queue_.push(QueueEntry{t, id});
  return id;
}

EventId Engine::schedule_in(SimTime delay, const Event& event) {
  LTS_REQUIRE(delay >= 0.0, "Engine: negative delay");
  return schedule_at(now_ + delay, event);
}

void Engine::dispatch(const Event& event) {
  if (event.target != kNoTarget) targets_[event.target]->on_event(event);
}

void Engine::release_slot(std::uint32_t slot) {
  slots_[slot].id = kInvalidEvent;
  free_slots_.push_back(slot);
}

bool Engine::cancel(EventId id) {
  // Lazy deletion: free the record; the queue entry is skipped when popped.
  if (!pending(id)) return false;
  release_slot(slot_of(id));
  return true;
}

bool Engine::pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return id != kInvalidEvent && slot < slots_.size() && slots_[slot].id == id;
}

bool Engine::step() {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    const std::uint32_t slot = slot_of(entry.id);
    if (slots_[slot].id != entry.id) continue;  // cancelled
    LTS_ASSERT(entry.time >= now_);
    now_ = entry.time;
    // Copy the record out and free its slot before dispatching, so the
    // handler may schedule or cancel events (reusing the slot).
    const Event event = slots_[slot].event;
    release_slot(slot);
    ++processed_;
    if (obs_enabled_->load(std::memory_order_relaxed)) {
      record_step_metrics();
    }
    dispatch(event);
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
    if (slots_[slot_of(entry.id)].id != entry.id) {
      queue_.pop();
      continue;
    }
    if (entry.time > t) break;
    step();
  }
  now_ = t;
}

std::uint32_t Engine::add_target(EventTarget* target) {
  if (!free_targets_.empty()) {
    const std::uint32_t index = free_targets_.back();
    free_targets_.pop_back();
    targets_[index] = target;
    return index;
  }
  targets_.push_back(target);
  return static_cast<std::uint32_t>(targets_.size() - 1);
}

void Engine::remove_target(std::uint32_t index) {
  targets_[index] = nullptr;
  free_targets_.push_back(index);
}

void Engine::rebind_target(std::uint32_t index, EventTarget* target) {
  LTS_REQUIRE(index < targets_.size(), "Engine: unknown target index");
  targets_[index] = target;
}

void Engine::require_rebound(const Engine& source) const {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i] != nullptr && i < source.targets_.size() &&
        targets_[i] == source.targets_[i]) {
      throw Error(std::string("copy: cannot take a live ") +
                  targets_[i]->target_name());
    }
  }
}

}  // namespace lts::sim
