// A test's event target: logs each record it receives (its code and the
// time it fired), then runs an optional hook with the record. Tests
// schedule a recorder's records where an event needs a handler, and hand
// them to flows and CPU tasks as completions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simcore/engine.hpp"

namespace lts::test {

class Recorder final : public sim::EventTarget {
 public:
  explicit Recorder(sim::Engine& engine)
      : engine_(engine), target_(engine.add_target(this)) {}
  ~Recorder() { engine_.remove_target(target_); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// A record for this recorder carrying `code` and `payload`.
  sim::Event event(std::uint8_t code = 'x', std::uint64_t payload = 0) const {
    return sim::target_event(target_, code, payload);
  }

  void on_event(const sim::Event& event) override {
    codes += static_cast<char>(event.code);
    times.push_back(engine_.now());
    if (hook) hook(event);
  }
  const char* target_name() const override { return "Recorder"; }

  std::string codes;           // every received record's code, in order
  std::vector<SimTime> times;  // and when it fired
  std::function<void(const sim::Event&)> hook;

 private:
  sim::Engine& engine_;
  std::uint32_t target_;
};

}  // namespace lts::test
