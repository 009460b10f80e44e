#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/entity.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace qlink::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, TieBreaksFifoWithinTimestamp) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  s.schedule_at(100, [] {});
  s.run_all();
  SimTime fired_at = -1;
  s.schedule_in(50, [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.run_all();
  EXPECT_THROW(s.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, RejectsEmptyFunction) {
  Simulator s;
  EXPECT_THROW(s.schedule_at(1, nullptr), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator s;
  const EventId id = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator s;
  EXPECT_FALSE(s.cancel(12345));
  EXPECT_FALSE(s.cancel(0));
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(21, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20);
  s.run_until(21);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(10, recurse);
  };
  s.schedule_at(0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 40);
}

TEST(PeriodicTimer, FiresAtFixedPeriod) {
  Simulator s;
  std::vector<SimTime> ticks;
  PeriodicTimer t(s, 100, [&] { ticks.push_back(s.now()); });
  t.start();
  s.run_until(350);
  ASSERT_EQ(ticks.size(), 4u);  // t = 0, 100, 200, 300
  EXPECT_EQ(ticks[0], 0);
  EXPECT_EQ(ticks[3], 300);
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] { ++count; });
  t.start();
  s.run_until(35);
  t.stop();
  s.run_until(1000);
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, CallbackMayStopTimer) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] {
    if (++count == 3) t.stop();
  });
  t.start();
  s.run_until(10000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, StartWithOffset) {
  Simulator s;
  std::vector<SimTime> ticks;
  PeriodicTimer t(s, 100, [&] { ticks.push_back(s.now()); });
  t.start(37);
  s.run_until(250);
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 37);
  EXPECT_EQ(ticks[1], 137);
}

TEST(Random, DeterministicForSameSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Random, DiffersAcrossSeeds) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Random, BernoulliEdges) {
  Random r(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Random, BernoulliMatchesProbability) {
  Random r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, UniformIntCoversRangeInclusive) {
  Random r(13);
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    lo |= v == 1;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Random, DiscreteRespectsWeights) {
  Random r(17);
  const double w[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[r.discrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Random, DiscreteRejectsInvalid) {
  Random r(19);
  const double neg[] = {0.5, -0.1};
  EXPECT_THROW(r.discrete(neg), std::invalid_argument);
  const double zero[] = {0.0, 0.0};
  EXPECT_THROW(r.discrete(zero), std::invalid_argument);
}

TEST(Simulator, PendingExcludesCancelledEvents) {
  Simulator s;
  const EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.cancel(a));
  // The cancelled event still occupies a queue slot, but pending() is
  // exact.
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator s;
  const EventId a = s.schedule_at(5, [] {});
  s.run_all();
  EXPECT_FALSE(s.cancel(a));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, CancelBookkeepingStaysBounded) {
  // Regression: cancelled ids used to accumulate in a linearly scanned
  // vector; cancelling after the fact even re-added fired ids forever.
  Simulator s;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = s.schedule_at(round, [] {});
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));
    EXPECT_EQ(s.pending(), 0u);
  }
  s.run_all();
  EXPECT_EQ(s.events_processed(), 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunUntilDoesNotOvershootPastCancelledHead) {
  // A cancelled event at the queue head inside the window must not let
  // run_until execute a live event beyond the window.
  Simulator s;
  const EventId head = s.schedule_at(10, [] {});
  bool late_ran = false;
  s.schedule_at(100, [&] { late_ran = true; });
  s.cancel(head);
  s.run_until(50);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(late_ran);
}

std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id); }

TEST(Simulator, StaleIdDoesNotCancelEventInReusedSlot) {
  // ABA: the slot of a cancelled (or fired) event is recycled for the
  // next one; the old id must not reach the new occupant.
  Simulator s;
  const EventId a = s.schedule_at(10, [] {});
  ASSERT_TRUE(s.cancel(a));
  bool b_ran = false;
  const EventId b = s.schedule_at(10, [&] { b_ran = true; });
  ASSERT_EQ(slot_of(b), slot_of(a));
  EXPECT_NE(b, a);
  EXPECT_FALSE(s.cancel(a));
  EXPECT_EQ(s.pending(), 1u);

  s.run_all();
  EXPECT_TRUE(b_ran);
  bool c_ran = false;
  const EventId c = s.schedule_at(20, [&] { c_ran = true; });
  ASSERT_EQ(slot_of(c), slot_of(b));
  EXPECT_FALSE(s.cancel(b));  // fired; its slot now holds c
  s.run_all();
  EXPECT_TRUE(c_ran);
}

TEST(Simulator, CancelOfRunningEventFromItsOwnCallbackFails) {
  Simulator s;
  EventId self = 0;
  bool cancelled = true;
  self = s.schedule_at(5, [&] { cancelled = s.cancel(self); });
  s.run_all();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(s.events_processed(), 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, PendingIsExactWhileCancelledKeysSitInTheHeap) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(s.schedule_at(10 + i, [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(s.cancel(ids[i]));
  }
  EXPECT_EQ(s.pending(), 50u);
  EXPECT_EQ(s.heap_high_water(), 100u);
  EXPECT_EQ(s.next_event_time(), 11);  // the cancelled head is skipped
  EXPECT_EQ(s.pending(), 50u);
  s.run_until(59);
  EXPECT_EQ(s.events_processed(), 25u);
  EXPECT_EQ(s.pending(), 25u);
  s.run_all();
  EXPECT_EQ(s.events_processed(), 50u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, SlotsAndHeapStayBoundedOverMillionScheduleCancelPairs) {
  // The mhp.timeout pattern: armed, then cancelled before it fires.
  // Freed slots are recycled, so slot indices never exceed the peak
  // number of pending events, and stale heap keys are compacted away.
  Simulator s;
  int fired = 0;
  for (int i = 0; i < 3; ++i) s.schedule_at(1'000'000'000, [&] { ++fired; });
  std::uint32_t max_slot = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id = s.schedule_in(1000 + i % 7, [] {}, "test.timeout");
    max_slot = std::max(max_slot, slot_of(id));
    ASSERT_TRUE(s.cancel(id));
  }
  EXPECT_LT(max_slot, 4u);  // peak pending is 4
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_LT(s.heap_high_water(), 10'000u);
  s.run_all();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(Simulator, IdZeroIsNeverIssued) {
  Simulator s;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(s.schedule_in(1 + i, [] {}));
      EXPECT_NE(ids.back(), 0u);
      EXPECT_NE(ids.back() >> 32, 0u);  // generation part
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
    s.run_all();
  }
}

TEST(Simulator, CallbackMaySchedulePastSlotCapacity) {
  // The running closure is moved out of its slot before it is called,
  // so growing the slot array from inside it is safe (checked under
  // ASan in CI).
  Simulator s;
  std::vector<int> order;
  int outer_calls = 0;
  s.schedule_at(1, [&] {
    ++outer_calls;
    for (int i = 0; i < 10'000; ++i) {
      s.schedule_in(1 + i / 100, [&order, i] { order.push_back(i); });
    }
  });
  s.run_all();
  EXPECT_EQ(outer_calls, 1);
  ASSERT_EQ(order.size(), 10'000u);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(s.pending(), 0u);
}

}  // namespace
}  // namespace qlink::sim
