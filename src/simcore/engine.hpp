// Discrete-event simulation engine.
//
// All LTS substrates (network flows, CPU sharing, exporters, Spark stages)
// are driven by one Engine instance. Events execute in (time, insertion
// sequence) order, which makes every simulation a deterministic function of
// its inputs — the property the counterfactual evaluation in exp/evaluate
// relies on.
//
// An event is a record: the index of the component it targets, that
// component's own event code and one payload word. A component registers
// with its engine once and gets a target index; Engine::dispatch hands a
// record to that component's on_event, which reads the code. Records are
// the only kind of event and hold no pointers, so a copy of an engine holds
// the same pending events, and a copied component only has to point its
// target index at itself (exp::SimEnv's copy does this for a whole
// environment).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>  // std::greater
#include <queue>
#include <vector>

#include "util/common.hpp"

namespace lts::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// The target of a record nobody listens to.
inline constexpr std::uint32_t kNoTarget = ~std::uint32_t{0};

struct Event {
  /// The component registered at this index, or kNoTarget.
  std::uint32_t target = kNoTarget;
  /// The target's own event code; the engine never reads it.
  std::uint8_t code = 0;
  std::uint64_t payload = 0;
};

/// A record for the component registered at `target`.
constexpr Event target_event(std::uint32_t target, std::uint8_t code = 0,
                             std::uint64_t payload = 0) {
  return Event{.target = target, .code = code, .payload = payload};
}

/// A component that receives event records. Not deleted through this base.
class EventTarget {
 public:
  virtual void on_event(const Event& event) = 0;
  /// Names the component in the error a copy throws when it cannot take it.
  virtual const char* target_name() const = 0;

 protected:
  ~EventTarget() = default;
};

class Engine {
 public:
  Engine();
  /// Copies the clock, the pending records, the id counter and the target
  /// table verbatim. The copy's targets still point at the source's
  /// components until each copied component rebinds its index
  /// (require_rebound checks that all did). Reads only the source's raw
  /// state, so several threads may copy one idle engine at once.
  Engine(const Engine& other) = default;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `event` at absolute time `t` (>= now). Returns a handle.
  EventId schedule_at(SimTime t, const Event& event);

  /// Schedules `event` `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, const Event& event);

  /// Runs `event`'s handler now; a record with no target does nothing.
  /// Flow, CPU and job completions notify their owners through it.
  void dispatch(const Event& event);

  /// Cancels a pending event. Safe to call with an already-fired or
  /// already-cancelled handle (returns false in that case).
  bool cancel(EventId id);

  /// True if `id` refers to an event that has not yet fired or been
  /// cancelled.
  bool pending(EventId id) const;

  /// Executes the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  std::size_t num_pending() const { return slots_.size() - free_slots_.size(); }
  std::uint64_t num_processed() const { return processed_; }

  /// Registers a component; events whose `target` is the returned index
  /// reach its on_event. Indices of removed targets are reused.
  std::uint32_t add_target(EventTarget* target);
  void remove_target(std::uint32_t index);
  /// Points a copied engine's `index` at the copied component.
  void rebind_target(std::uint32_t index, EventTarget* target);
  /// Throws lts::Error naming the first target of this copy that still
  /// points into `source` (a component the copy did not take).
  void require_rebound(const Engine& source) const;

 private:
  /// Outlined so the disabled-observability event loop carries only a
  /// relaxed load and a predictable branch, not the metrics code.
  __attribute__((noinline)) void record_step_metrics();

  /// An id is (insertion sequence << 32 | slot): (time, id) orders events
  /// by (time, insertion sequence), the order the file comment promises,
  /// and the low half addresses the pending record.
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  void release_slot(std::uint32_t slot);

  struct QueueEntry {
    SimTime time;
    EventId id;
    bool operator>(const QueueEntry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };
  // A pending record; id == kInvalidEvent marks a free slot.
  struct Slot {
    EventId id = kInvalidEvent;
    Event event;
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  // Cached once at construction: checking observability in the event loop
  // is then a single relaxed load, with no static-init guard per event.
  const std::atomic<bool>* obs_enabled_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<EventTarget*> targets_;
  std::vector<std::uint32_t> free_targets_;
};

}  // namespace lts::sim
