// lts::obs tracing: per-decision spans through the scheduler pipeline.
//
// A span records wall-clock and simulated time at its start and at each
// named phase mark (fetch -> features -> predict -> rank -> bind), so a
// fault campaign's decisions can be replayed and each pipeline stage's cost
// inspected. The global tracer is OFF by default; when disabled, opening a
// span and marking phases are single-branch no-ops, and nothing about the
// simulation changes either way (wall times are recorded, never consulted).
//
// Spans nest: the innermost open span receives phase marks, so a caller
// (e.g. the job-stream runner) can open a "decision" span, let
// LtsScheduler::schedule contribute its pipeline phases to it, and append a
// final "bind" phase after placing the pods. ScopedSpan with reuse_open
// implements exactly that hand-off.
//
// A Tracer is single-threaded by contract: spans are opened, marked and
// closed only on the thread that enabled it. The library code that fans out
// on ThreadPool::global() (collect_training_data, evaluate_methods,
// Trainer::train_and_evaluate) keeps every span on its calling thread; an
// enabled tracer throws lts::Error on a call from any other thread rather
// than race on its span stack.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "util/common.hpp"
#include "util/json.hpp"

namespace lts::obs {

struct TracePhase {
  std::string name;
  SimTime sim_time = 0.0;
  double wall_ms = 0.0;  // since span start
};

struct SpanRecord {
  std::string name;
  SimTime sim_begin = 0.0;
  SimTime sim_end = 0.0;
  double wall_ms = 0.0;  // total span duration
  std::vector<TracePhase> phases;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Enabling binds the tracer to the calling thread (see the contract
  /// above).
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (enabled) owner_ = std::this_thread::get_id();
  }
  bool enabled() const { return enabled_; }

  /// Opens a span; it becomes the innermost (receives phase marks) until
  /// end(). No-op when disabled.
  void begin(std::string name, SimTime sim_now);

  /// Marks a phase on the innermost open span (no-op when disabled or no
  /// span is open).
  void phase(const std::string& name, SimTime sim_now);

  /// Closes the innermost open span.
  void end(SimTime sim_now);

  bool in_span() const { return !open_.empty(); }

  /// Completed spans, in completion order.
  std::size_t num_spans() const;
  const SpanRecord& span(std::size_t i) const;

  /// JSON export: array of span objects.
  Json to_json() const;

  void clear();

  /// Process-wide tracer used by the library's built-in spans. Disabled by
  /// default.
  static Tracer& global();

 private:
  struct OpenSpan {
    SpanRecord record;
    Clock::time_point wall_begin;
  };

  /// Throws unless called on the thread that enabled the tracer.
  void require_owner() const;

  bool enabled_ = false;
  std::thread::id owner_;
  std::vector<OpenSpan> open_;      // innermost last
  std::vector<SpanRecord> spans_;   // completed
};

/// RAII span. With `reuse_open`, joins an already-open span instead of
/// nesting a new one (the scheduler does this so its pipeline phases land on
/// the caller's per-decision span when one exists).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, SimTime sim_now,
             bool reuse_open = false)
      : tracer_(tracer) {
    owns_ = tracer_.enabled() && !(reuse_open && tracer_.in_span());
    if (owns_) tracer_.begin(name, sim_now);
    sim_last_ = sim_now;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Marks a phase (on whichever span is innermost — ours or the reused
  /// caller's).
  void phase(const char* name, SimTime sim_now) {
    tracer_.phase(name, sim_now);
    sim_last_ = sim_now;
  }

  void end(SimTime sim_now) {
    if (owns_) tracer_.end(sim_now);
    owns_ = false;
  }

  ~ScopedSpan() {
    if (owns_) tracer_.end(sim_last_);
  }

 private:
  Tracer& tracer_;
  bool owns_ = false;
  SimTime sim_last_ = 0.0;
};

}  // namespace lts::obs
