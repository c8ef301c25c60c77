// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.num_pending(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleInUsesRelativeTime) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_in(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.pending(id));
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.pending(id));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceIsSafe) {
  Engine engine;
  const EventId id = engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
  engine.run();
}

TEST(Engine, CancelFromWithinEvent) {
  Engine engine;
  bool second_fired = false;
  const EventId second = engine.schedule_at(2.0, [&] { second_fired = true; });
  engine.schedule_at(1.0, [&] { engine.cancel(second); });
  engine.run();
  EXPECT_FALSE(second_fired);
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(5.0, [&] { ++fired; });
  engine.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  engine.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, RunUntilFiresBoundaryEvents) {
  Engine engine;
  bool fired = false;
  engine.schedule_at(3.0, [&] { fired = true; });
  engine.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, PastSchedulingThrows) {
  Engine engine;
  engine.schedule_at(2.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0, [] {}), Error);
  EXPECT_THROW(engine.schedule_in(-0.5, [] {}), Error);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.schedule_in(1.0, recurse);
  };
  engine.schedule_in(1.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, ProcessedCountTracksFiredEvents) {
  Engine engine;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(static_cast<SimTime>(i), [] {});
  }
  const EventId cancelled = engine.schedule_at(9.0, [] {});
  engine.cancel(cancelled);
  engine.run();
  EXPECT_EQ(engine.num_processed(), 5u);
}

/// A record-driven component: counts its firings and re-arms every second.
class Ticker final : public EventTarget {
 public:
  explicit Ticker(Engine& engine)
      : engine_(engine), target_(engine.add_target(this)) {
    arm();
  }
  Ticker(const Ticker& other, Engine& engine)
      : fired(other.fired), engine_(engine), target_(other.target_) {
    engine_.rebind_target(target_, this);
  }
  ~Ticker() { engine_.remove_target(target_); }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  void on_event(const Event& /*event*/) override {
    ++fired;
    arm();
  }
  const char* target_name() const override { return "Ticker"; }

  int fired = 0;

 private:
  void arm() {
    engine_.schedule_in(1.0, target_event(target_));
  }

  Engine& engine_;
  std::uint32_t target_;
};

TEST(Engine, CopyContinuesPendingRecordsOnReboundTargets) {
  Engine engine;
  Ticker source(engine);
  engine.run_until(3.5);
  Engine copy(engine);
  Ticker forked(source, copy);
  EXPECT_NO_THROW(copy.require_rebound(engine));
  EXPECT_EQ(copy.num_pending(), engine.num_pending());
  EXPECT_EQ(copy.num_processed(), 3u);
  copy.run_until(10.0);
  EXPECT_EQ(forked.fired, 10);
  EXPECT_EQ(source.fired, 3);  // the source neither ran nor moved
  EXPECT_DOUBLE_EQ(engine.now(), 3.5);
  engine.run_until(10.0);
  EXPECT_EQ(source.fired, 10);
}

TEST(Engine, CopyRefusesCallbacksAndTargetsLeftBehind) {
  Engine engine;
  Ticker source(engine);
  const Engine copy(engine);
  // The copy's table still points at `source`: nothing rebound it.
  EXPECT_THROW(copy.require_rebound(engine), Error);
  engine.schedule_in(1.0, [] {});
  EXPECT_THROW(Engine{engine}, Error);
}

/// A PeriodicTask's tick target: logs each record's code and time, then
/// runs the test's hook.
class Recorder final : public EventTarget {
 public:
  explicit Recorder(Engine& engine)
      : engine_(engine), target_(engine.add_target(this)) {}
  ~Recorder() { engine_.remove_target(target_); }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  Event tick(char code = 'x') const {
    return target_event(target_, static_cast<std::uint8_t>(code));
  }
  void on_event(const Event& event) override {
    codes += static_cast<char>(event.code);
    times.push_back(engine_.now());
    if (on_tick) on_tick();
  }
  const char* target_name() const override { return "Recorder"; }

  std::string codes;
  std::vector<SimTime> times;
  std::function<void()> on_tick;

 private:
  Engine& engine_;
  std::uint32_t target_;
};

TEST(PeriodicTask, FiresAtInterval) {
  Engine engine;
  Recorder rec(engine);
  PeriodicTask task(engine, 2.0, 0.5, rec.tick());
  engine.run_until(9.0);
  ASSERT_EQ(rec.times.size(), 5u);
  EXPECT_DOUBLE_EQ(rec.times[0], 0.5);
  EXPECT_DOUBLE_EQ(rec.times[4], 8.5);
}

TEST(PeriodicTask, StopHaltsFiring) {
  Engine engine;
  Recorder rec(engine);
  PeriodicTask task(engine, 1.0, 0.0, rec.tick());
  engine.run_until(3.5);
  task.stop();
  engine.run_until(10.0);
  EXPECT_EQ(rec.times.size(), 4u);  // t = 0, 1, 2, 3
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, CanStopItselfFromCallback) {
  Engine engine;
  Recorder rec(engine);
  std::unique_ptr<PeriodicTask> task;
  rec.on_tick = [&] {
    if (rec.times.size() == 3) task->stop();
  };
  task = std::make_unique<PeriodicTask>(engine, 1.0, 0.0, rec.tick());
  engine.run_until(10.0);
  EXPECT_EQ(rec.times.size(), 3u);
}

TEST(PeriodicTask, DestructorCancels) {
  Engine engine;
  Recorder rec(engine);
  {
    PeriodicTask task(engine, 1.0, 0.0, rec.tick());
    engine.run_until(2.5);
  }
  engine.run_until(10.0);
  EXPECT_EQ(rec.times.size(), 3u);
}

TEST(PeriodicTask, InvalidArgsThrow) {
  Engine engine;
  Recorder rec(engine);
  EXPECT_THROW(PeriodicTask(engine, 0.0, 0.0, rec.tick()), Error);
  EXPECT_THROW(PeriodicTask(engine, 1.0, -1.0, rec.tick()), Error);
  // A callback record frees its closure when dispatched: it cannot repeat.
  EXPECT_THROW(PeriodicTask(engine, 1.0, 0.0, engine.callback([] {})), Error);
}

}  // namespace
}  // namespace lts::sim

// ------------------------------------------------------ additional edges ----

namespace lts::sim {
namespace {

TEST(Engine, ZeroDelayEventFiresAtSameTimestamp) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_in(0.0, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, ManyInterleavedCancellationsStayConsistent) {
  Engine engine;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(engine.schedule_at(i * 0.1, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) engine.cancel(ids[i]);
  engine.run();
  EXPECT_EQ(fired, 200 - 67);
  EXPECT_EQ(engine.num_pending(), 0u);
}

TEST(Engine, RunUntilRepeatedNoEvents) {
  Engine engine;
  engine.run_until(1.0);
  engine.run_until(1.0);  // same time: allowed
  EXPECT_THROW(engine.run_until(0.5), Error);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(PeriodicTask, TwoTasksInterleaveDeterministically) {
  Engine engine;
  Recorder rec(engine);
  PeriodicTask a(engine, 2.0, 0.0, rec.tick('a'));
  PeriodicTask b(engine, 3.0, 0.0, rec.tick('b'));
  engine.run_until(6.0);
  // t=0: a,b (insertion order); t=2 a; t=3 b; t=4 a; t=6 b before a (b's
  // re-arm was scheduled at t=3, earlier than a's at t=4).
  EXPECT_EQ(rec.codes, "abababa");
}

}  // namespace
}  // namespace lts::sim
