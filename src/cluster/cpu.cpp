#include "cluster/cpu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lts::cluster {

namespace {
constexpr double kWorkEpsilon = 1e-9;
}

CpuPool::CpuPool(sim::Engine& engine, double cores)
    : engine_(&engine), cores_(cores) {
  LTS_REQUIRE(cores > 0.0, "CpuPool: cores must be positive");
  last_update_ = engine_->now();
  target_ = engine_->add_target(this);
}

CpuPool::CpuPool(const CpuPool& other, sim::Engine& engine)
    : CpuPool(other) {
  engine_ = &engine;
  engine_->rebind_target(target_, this);
}

CpuPool::~CpuPool() {
  engine_->cancel(completion_event_);
  engine_->remove_target(target_);
}

CpuTaskId CpuPool::run(double demand_cores, double work_core_seconds,
                       sim::Event on_complete) {
  LTS_REQUIRE(demand_cores > 0.0, "CpuPool: demand must be positive");
  LTS_REQUIRE(work_core_seconds > 0.0, "CpuPool: work must be positive");
  return add(demand_cores, work_core_seconds, on_complete);
}

CpuTaskId CpuPool::add_persistent(double demand_cores) {
  LTS_REQUIRE(demand_cores > 0.0, "CpuPool: demand must be positive");
  return add(demand_cores, std::numeric_limits<double>::infinity(),
             sim::Event{});
}

CpuTaskId CpuPool::add(double demand_cores, double remaining,
                       sim::Event on_complete) {
  advance();
  const CpuTaskId id = next_id_++;
  tasks_.push_back(Task{id, demand_cores, remaining, 0.0, on_complete});
  recompute_rates();
  schedule_next_completion();
  return id;
}

void CpuPool::cancel(CpuTaskId id) {
  advance();
  const auto it = std::lower_bound(
      tasks_.begin(), tasks_.end(), id,
      [](const Task& t, CpuTaskId v) { return t.id < v; });
  if (it == tasks_.end() || it->id != id) return;
  tasks_.erase(it);
  recompute_rates();
  schedule_next_completion();
}

double CpuPool::utilization() const {
  return std::min(1.0, total_demand_ / cores_);
}

void CpuPool::advance() {
  const SimTime now = engine_->now();
  const SimTime dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  for (Task& t : tasks_) {
    if (std::isfinite(t.remaining)) {
      t.remaining = std::max(0.0, t.remaining - t.rate * dt);
    }
  }
  last_update_ = now;
}

void CpuPool::recompute_rates() {
  total_demand_ = 0.0;
  for (const Task& t : tasks_) total_demand_ += t.demand;
  // Processor sharing: everyone gets their demand if the node is
  // under-committed, otherwise rates shrink proportionally.
  const double scale =
      total_demand_ <= cores_ ? 1.0 : cores_ / total_demand_;
  for (Task& t : tasks_) {
    t.rate = t.demand * scale;
  }
}

void CpuPool::schedule_next_completion() {
  if (completion_event_ != sim::kInvalidEvent) {
    engine_->cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  SimTime earliest = std::numeric_limits<SimTime>::infinity();
  for (const Task& t : tasks_) {
    if (!std::isfinite(t.remaining)) continue;
    LTS_ASSERT(t.rate > 0.0);
    earliest = std::min(earliest, t.remaining / t.rate);
  }
  if (!std::isfinite(earliest)) return;
  completion_event_ = engine_->schedule_in(
      std::max(earliest, 0.0),
      sim::target_event(target_));
}

void CpuPool::on_event(const sim::Event& /*event*/) {
  handle_completion_event();
}

void CpuPool::handle_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  advance();
  // finished_ is persistent scratch: handlers cannot re-enter this function
  // (completions only fire from the engine queue).
  finished_.clear();
  std::size_t kept = 0;
  for (Task& t : tasks_) {
    // Done when remaining work is negligible OR would finish within a
    // nanosecond (guards against zero-progress loops once remaining/rate
    // underflows the clock's resolution at large timestamps).
    if (std::isfinite(t.remaining) &&
        t.remaining <= std::max(kWorkEpsilon, t.rate * 1e-9)) {
      finished_.push_back(t.on_complete);
    } else {
      tasks_[kept++] = t;
    }
  }
  tasks_.resize(kept);
  recompute_rates();
  schedule_next_completion();
  for (std::size_t i = 0; i < finished_.size(); ++i) {
    engine_->dispatch(finished_[i]);
  }
}

}  // namespace lts::cluster
