#include "obs/trace.hpp"

namespace lts::obs {

namespace {
double ms_since(Tracer::Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Tracer::Clock::now() -
                                                   begin)
      .count();
}
}  // namespace

void Tracer::require_owner() const {
  LTS_REQUIRE(std::this_thread::get_id() == owner_,
              "Tracer: span call from a thread other than the one that "
              "enabled it (the tracer is single-threaded)");
}

void Tracer::begin(std::string name, SimTime sim_now) {
  if (!enabled_) return;
  require_owner();
  OpenSpan span;
  span.record.name = std::move(name);
  span.record.sim_begin = sim_now;
  span.wall_begin = Clock::now();
  open_.push_back(std::move(span));
}

void Tracer::phase(const std::string& name, SimTime sim_now) {
  if (!enabled_) return;
  require_owner();
  if (open_.empty()) return;
  OpenSpan& span = open_.back();
  span.record.phases.push_back(
      TracePhase{name, sim_now, ms_since(span.wall_begin)});
}

void Tracer::end(SimTime sim_now) {
  if (!enabled_) return;
  require_owner();
  if (open_.empty()) return;
  OpenSpan span = std::move(open_.back());
  open_.pop_back();
  span.record.sim_end = sim_now;
  span.record.wall_ms = ms_since(span.wall_begin);
  spans_.push_back(std::move(span.record));
}

std::size_t Tracer::num_spans() const { return spans_.size(); }

const SpanRecord& Tracer::span(std::size_t i) const {
  LTS_REQUIRE(i < spans_.size(), "Tracer: span index out of range");
  return spans_[i];
}

Json Tracer::to_json() const {
  Json out = Json::array();
  for (const auto& span : spans_) {
    Json j = Json::object();
    j["name"] = span.name;
    j["sim_begin"] = span.sim_begin;
    j["sim_end"] = span.sim_end;
    j["wall_ms"] = span.wall_ms;
    Json phases = Json::array();
    for (const auto& phase : span.phases) {
      Json p = Json::object();
      p["name"] = phase.name;
      p["sim_time"] = phase.sim_time;
      p["wall_ms"] = phase.wall_ms;
      phases.push_back(p);
    }
    j["phases"] = phases;
    out.push_back(j);
  }
  return out;
}

void Tracer::clear() {
  open_.clear();
  spans_.clear();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

}  // namespace lts::obs
