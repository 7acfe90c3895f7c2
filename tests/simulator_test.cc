#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(1.0, [&] { fired = true; });
  sim.Cancel(id);
  sim.RunUntilEmpty();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelTwiceIsNoOp) {
  Simulator sim;
  EventId id = sim.ScheduleAt(1.0, [] {});
  sim.Cancel(id);
  sim.Cancel(id);  // must not crash
  sim.RunUntilEmpty();
}

TEST(SimulatorTest, CancelAfterFireIsNoOp) {
  Simulator sim;
  EventId id = sim.ScheduleAt(1.0, [] {});
  sim.RunUntilEmpty();
  sim.Cancel(id);  // must not crash
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
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.ScheduleAfter(1.0, chain);
  };
  sim.ScheduleAt(0.0, chain);
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

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  EventId a = sim.ScheduleAt(1.0, [] {});
  sim.ScheduleAt(2.0, [] {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, StaleIdCannotCancelSlotReuser) {
  // A fired/cancelled event's id must never affect a later event that
  // happens to recycle its slot: the generation stamp mismatch makes the
  // stale id a no-op.
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  EventId a = sim.ScheduleAt(1.0, [&] { a_fired = true; });
  sim.Cancel(a);
  // The slab recycles slot 0 for B.
  EventId b = sim.ScheduleAt(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  sim.Cancel(a);  // stale id: must not cancel B
  sim.RunUntilEmpty();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, StaleIdAfterFireCannotCancelSlotReuser) {
  Simulator sim;
  EventId a = sim.ScheduleAt(1.0, [] {});
  sim.RunUntilEmpty();
  bool b_fired = false;
  EventId b = sim.ScheduleAt(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  sim.Cancel(a);  // A already fired; its slot now belongs to B
  sim.RunUntilEmpty();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, CancelZeroIdIsNoOp) {
  // Generations start at 1, so a zero-initialized EventId is never valid
  // and engines can use 0 as a "nothing scheduled" sentinel.
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(1.0, [&] { fired = true; });
  sim.Cancel(0);
  sim.RunUntilEmpty();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelChurnWithLargeLiveSetHitsTombstoneFloor) {
  // Regression test for the tombstone-count floor. With a large live
  // population and slow churn, stale entries never outnumber live ones,
  // so the ratio trigger (stale > max(64, live)) alone would let ~live
  // tombstones accumulate — here 40k stale atop 40k live. The absolute
  // floor must compact far earlier, keeping the footprint near
  // live + floor regardless of the live set's size.
  Simulator sim;
  constexpr int kLive = 40000;
  std::vector<EventId> pending;
  double t = 1.0e6;  // live events sit far in the future
  for (int i = 0; i < kLive; ++i) {
    pending.push_back(sim.ScheduleAt(t, [] {}));
    t += 1.0;
  }
  size_t max_heap = 0;
  for (int i = 0; i < kLive; ++i) {
    pending.push_back(sim.ScheduleAt(t, [] {}));
    t += 1.0;
    sim.Cancel(pending.front());
    pending.erase(pending.begin());
    max_heap = std::max(max_heap, sim.HeapSize());
  }
  EXPECT_EQ(sim.PendingEvents(), static_cast<size_t>(kLive));
  // Without the floor the ratio rule would admit up to ~40k tombstones;
  // with it, stale never exceeds the floor before a compaction runs.
  EXPECT_LE(max_heap, static_cast<size_t>(kLive) + 1100u);
  sim.CheckConsistency();
}

TEST(SimulatorTest, CancelChurnKeepsHeapBounded) {
  // Regression test for cancel-heavy workloads (high-contention runs
  // cancel timeouts constantly): lazily-deleted entries must be compacted,
  // not accumulated. Keep ~8 live events while scheduling and cancelling
  // 100k; the heap must stay near the live count, not grow toward 100k.
  Simulator sim;
  constexpr int kLive = 8;
  std::vector<EventId> pending;
  double t = 1.0;
  size_t max_heap = 0;
  for (int i = 0; i < 100000; ++i) {
    pending.push_back(sim.ScheduleAt(t, [] {}));
    t += 0.001;
    if (pending.size() > kLive) {
      sim.Cancel(pending.front());
      pending.erase(pending.begin());
    }
    max_heap = std::max(max_heap, sim.HeapSize());
  }
  // Compaction triggers once stale > max(64, live), so the footprint is
  // bounded by roughly live + 2 * threshold regardless of churn volume.
  EXPECT_LE(max_heap, 256u);
  EXPECT_EQ(sim.PendingEvents(), static_cast<size_t>(kLive));
  sim.RunUntilEmpty();
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, ChurnPreservesOrderAndDelivery) {
  // Interleaved schedule/cancel churn (crossing compaction boundaries)
  // must not reorder or drop surviving events.
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> cancels;
  for (int i = 0; i < 2000; ++i) {
    double at = static_cast<double>(i);
    if (i % 3 == 0) {
      sim.ScheduleAt(at, [&fired, i] { fired.push_back(i); });
    } else {
      cancels.push_back(sim.ScheduleAt(at, [&fired, i] {
        fired.push_back(-i);  // must never run
      }));
    }
  }
  for (EventId id : cancels) sim.Cancel(id);
  sim.RunUntilEmpty();
  ASSERT_FALSE(fired.empty());
  int prev = -1;
  for (int v : fired) {
    EXPECT_GT(v, prev);  // positive (survivor) and strictly increasing
    prev = v;
  }
  EXPECT_EQ(fired.size(), 667u);
}

TEST(SimulatorTest, LargeCaptureCallbackFallsBackToHeap) {
  // Callables bigger than the inline buffer must still work (heap path).
  Simulator sim;
  struct Big {
    double payload[16];
    std::shared_ptr<int> counter;
  };
  auto counter = std::make_shared<int>(0);
  Big big{{1.0}, counter};
  static_assert(sizeof(Big) > InlineCallback::kInlineSize);
  sim.ScheduleAt(1.0, [big] { ++*big.counter; });
  EventId id = sim.ScheduleAt(2.0, [big] { ++*big.counter; });
  sim.Cancel(id);  // heap-path destruction must release the capture
  sim.RunUntilEmpty();
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 2);  // local `big` + `counter` itself
}

TEST(InlineCallbackTest, ByteCopiedCallableSurvivesMoves) {
  int fired = 0;
  int64_t sum = 0;
  const int64_t base = 40;
  const double weight = 2.0;
  auto add = [&fired, &sum, base, weight] {
    ++fired;
    sum += base + static_cast<int64_t>(weight);
  };
  static_assert(InlineCallback::kCopiesBytes<decltype(add)>);
  InlineCallback a(add);
  InlineCallback b(std::move(a));
  InlineCallback c;
  c = std::move(b);
  InlineCallback d(std::move(c));
  // Move-assignment over a live callback discards the old callable.
  InlineCallback e([&fired] { fired += 100; });
  e = std::move(d);
  InlineCallback f(std::move(e));
  // NOLINTNEXTLINE(bugprone-use-after-move): a moved-from callback is empty
  EXPECT_FALSE(a || b || c || d || e);
  ASSERT_TRUE(f);
  f();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sum, 42);
}

TEST(InlineCallbackTest, SharedPtrCaptureKeepsExactUseCount) {
  auto token = std::make_shared<int>(0);
  auto bump = [token] { ++*token; };
  static_assert(!InlineCallback::kCopiesBytes<decltype(bump)>);
  {
    InlineCallback a(bump);
    EXPECT_EQ(token.use_count(), 3);  // `token`, `bump` and `a`
    InlineCallback b(std::move(a));
    EXPECT_EQ(token.use_count(), 3);
    InlineCallback c([token] { *token += 10; });
    EXPECT_EQ(token.use_count(), 4);
    c = std::move(b);  // destroys c's own capture, takes b's
    EXPECT_EQ(token.use_count(), 3);
    c();
    EXPECT_EQ(*token, 1);
    // A byte-copied callable assigned over it releases the capture.
    int fired = 0;
    c = InlineCallback([&fired] { ++fired; });
    EXPECT_EQ(token.use_count(), 2);
    c();
    EXPECT_EQ(fired, 1);
    InlineCallback d(std::move(bump));
    EXPECT_EQ(token.use_count(), 2);  // `bump` gave its capture up
    d.Reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(d);
    d.Reset();  // a no-op on an empty callback
    EXPECT_EQ(token.use_count(), 1);
    d = InlineCallback([token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
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
