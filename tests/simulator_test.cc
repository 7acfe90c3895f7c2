#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace granulock::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilEmpty();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(2.0, [&] {
    sim.ScheduleAfter(1.5, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(2.0, [&] { ++fired; });
  sim.ScheduleAt(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline do fire
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, RunUntilWithNoEventsAdvancesClock) {
  Simulator sim;
  sim.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 7.0);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  // Each event captures a pointer to the chain, which the test owns.
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.ScheduleAfter(1.0, [&chain] { chain(); });
  };
  sim.ScheduleAt(0.0, [&chain] { chain(); });
  sim.RunUntilEmpty();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 4.0);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.ScheduleAt(i, [] {});
  sim.RunUntilEmpty();
  EXPECT_EQ(sim.ExecutedEvents(), 4u);
}

TEST(SimulatorDeathTest, FiredIdFailsSuspendAfterSlotReuse) {
  // The generation stamp makes a fired event's id stale for good: once B
  // reuses A's slot, A's id names neither A nor B.
  Simulator sim;
  const EventId a = sim.ScheduleAt(1.0, [] {});
  sim.RunUntilEmpty();
  bool b_fired = false;
  const EventId b = sim.ScheduleAt(2.0, [&] { b_fired = true; });
  ASSERT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b));  // one slot
  EXPECT_NE(a, b);
  EXPECT_DEATH(sim.Suspend(a), "is not pending");
  EXPECT_DEATH(sim.Resume(a, 3.0), "is not suspended");
  sim.RunUntilEmpty();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, ChurnPreservesOrderAndDelivery) {
  // Interleaved schedule/suspend churn must not reorder or drop events:
  // suspended events stay pending but never fire until resumed, and the
  // resumed ones then fire in the order of their new keys.
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> suspended;
  for (int i = 0; i < 2000; ++i) {
    const EventId id = sim.ScheduleAt(static_cast<double>(i),
                                      [&fired, i] { fired.push_back(i); });
    if (i % 3 != 0) {
      sim.Suspend(id);
      suspended.push_back(id);
    }
  }
  sim.RunUntilEmpty();
  ASSERT_EQ(fired.size(), 667u);
  for (size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], static_cast<int>(3 * k));
  }
  EXPECT_EQ(sim.ExecutedEvents(), 667u);
  EXPECT_EQ(sim.PendingEvents(), 1333u);
  sim.CheckConsistency();
  // Resume in reverse at one instant: ties fire in resume order.
  for (auto it = suspended.rbegin(); it != suspended.rend(); ++it) {
    sim.Resume(*it, sim.Now());
  }
  fired.clear();
  sim.RunUntilEmpty();
  ASSERT_EQ(fired.size(), 1333u);
  for (size_t k = 1; k < fired.size(); ++k) EXPECT_GT(fired[k - 1], fired[k]);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

// The type accepts only callables of at most kInlineSize bytes that it can
// copy as bytes and never has to destroy, and is such a type itself.
static_assert(std::is_trivially_copyable_v<InlineCallback>);
static_assert(!std::is_constructible_v<
              InlineCallback, decltype([token = std::shared_ptr<int>()] {
                (void)token;
              })>);
struct Bytes56 {
  double words[7];
};
static_assert(sizeof(Bytes56) > InlineCallback::kInlineSize);
static_assert(!std::is_constructible_v<
              InlineCallback,
              decltype([big = Bytes56{}] { (void)big; })>);
static_assert(std::is_constructible_v<
              InlineCallback, decltype([words = std::array<double, 6>{}] {
                (void)words;
              })>);

TEST(InlineCallbackTest, ByteCopiedCallableSurvivesMoves) {
  int fired = 0;
  int64_t sum = 0;
  const int64_t base = 40;
  const double weight = 2.0;
  auto add = [&fired, &sum, base, weight] {
    ++fired;
    sum += base + static_cast<int64_t>(weight);
  };
  InlineCallback a(add);
  InlineCallback b(std::move(a));
  InlineCallback c;
  c = std::move(b);
  InlineCallback d(std::move(c));
  // Move-assignment over a live callback discards the old callable.
  InlineCallback e([&fired] { fired += 100; });
  e = std::move(d);
  InlineCallback f(std::move(e));
  EXPECT_FALSE(InlineCallback());
  ASSERT_TRUE(f);
  f();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sum, 42);
}

TEST(SimulatorTest, ZeroDelayEventFiresAtSameTime) {
  Simulator sim;
  double t = -1.0;
  sim.ScheduleAt(3.0, [&] {
    sim.ScheduleAfter(0.0, [&] { t = sim.Now(); });
  });
  sim.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(t, 3.0);
}

}  // namespace
}  // namespace granulock::sim
