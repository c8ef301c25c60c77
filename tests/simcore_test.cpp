// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "recorder.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::sim {
namespace {

using test::Recorder;

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.num_pending(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  Recorder rec(engine);
  std::vector<int> order;
  rec.hook = [&](const Event& event) { order.push_back(event.code); };
  engine.schedule_at(3.0, rec.event(3));
  engine.schedule_at(1.0, rec.event(1));
  engine.schedule_at(2.0, rec.event(2));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  Recorder rec(engine);
  std::vector<int> order;
  rec.hook = [&](const Event& event) { order.push_back(event.code); };
  engine.schedule_at(1.0, rec.event(1));
  engine.schedule_at(1.0, rec.event(2));
  engine.schedule_at(1.0, rec.event(3));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleInUsesRelativeTime) {
  Engine engine;
  Recorder rec(engine);
  double fired_at = -1.0;
  rec.hook = [&](const Event& event) {
    if (event.code == 'a') {
      engine.schedule_in(2.5, rec.event('b'));
    } else {
      fired_at = engine.now();
    }
  };
  engine.schedule_at(5.0, rec.event('a'));
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  Recorder rec(engine);
  bool fired = false;
  rec.hook = [&](const Event&) { fired = true; };
  const EventId id = engine.schedule_at(1.0, rec.event());
  EXPECT_TRUE(engine.pending(id));
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.pending(id));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceIsSafe) {
  Engine engine;
  const EventId id = engine.schedule_at(1.0, Event{});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
  engine.run();
}

TEST(Engine, CancelFromWithinEvent) {
  Engine engine;
  Recorder rec(engine);
  bool second_fired = false;
  EventId second = kInvalidEvent;
  rec.hook = [&](const Event& event) {
    if (event.code == 'c') {
      engine.cancel(second);
    } else {
      second_fired = true;
    }
  };
  second = engine.schedule_at(2.0, rec.event('s'));
  engine.schedule_at(1.0, rec.event('c'));
  engine.run();
  EXPECT_FALSE(second_fired);
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine engine;
  Recorder rec(engine);
  int fired = 0;
  rec.hook = [&](const Event&) { ++fired; };
  engine.schedule_at(1.0, rec.event());
  engine.schedule_at(5.0, rec.event());
  engine.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  engine.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, RunUntilFiresBoundaryEvents) {
  Engine engine;
  Recorder rec(engine);
  bool fired = false;
  rec.hook = [&](const Event&) { fired = true; };
  engine.schedule_at(3.0, rec.event());
  engine.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, PastSchedulingThrows) {
  Engine engine;
  engine.schedule_at(2.0, Event{});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0, Event{}), Error);
  EXPECT_THROW(engine.schedule_in(-0.5, Event{}), Error);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine engine;
  Recorder rec(engine);
  int depth = 0;
  rec.hook = [&](const Event&) {
    if (++depth < 10) engine.schedule_in(1.0, rec.event());
  };
  engine.schedule_in(1.0, rec.event());
  engine.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, ProcessedCountTracksFiredEvents) {
  Engine engine;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(static_cast<SimTime>(i), Event{});
  }
  const EventId cancelled = engine.schedule_at(9.0, Event{});
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

TEST(Engine, CopyRefusesTargetsLeftBehind) {
  Engine engine;
  Ticker source(engine);
  const Engine copy(engine);
  // The copy's table still points at `source`: nothing rebound it.
  EXPECT_THROW(copy.require_rebound(engine), Error);
}

}  // namespace
}  // namespace lts::sim

// ------------------------------------------------------ additional edges ----

namespace lts::sim {
namespace {

TEST(Engine, ZeroDelayEventFiresAtSameTimestamp) {
  Engine engine;
  Recorder rec(engine);
  double fired_at = -1.0;
  rec.hook = [&](const Event& event) {
    if (event.code == 'a') {
      engine.schedule_in(0.0, rec.event('b'));
    } else {
      fired_at = engine.now();
    }
  };
  engine.schedule_at(5.0, rec.event('a'));
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, ManyInterleavedCancellationsStayConsistent) {
  Engine engine;
  Recorder rec(engine);
  int fired = 0;
  rec.hook = [&](const Event&) { ++fired; };
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(engine.schedule_at(i * 0.1, rec.event()));
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

}  // namespace
}  // namespace lts::sim
