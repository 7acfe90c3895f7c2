#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/random.h"

namespace granulock::sim {
namespace {

// Randomized differential test: drive the calendar-queue scheduler and a
// reference priority-queue model (a plain vector scanned for the least
// (time, seq) entry) with the same schedule / pop stream, and require
// bit-identical pop order — including same-timestamp ties. This is the
// determinism contract every engine metric rests on: the event core must
// behave exactly like a stable binary heap ordered by (time, sequence
// number).

struct RefEntry {
  double time;
  uint64_t seq;  // scheduling order, the tie-breaker
  int label;
};

class ReferenceQueue {
 public:
  void Schedule(double time, int label) {
    entries_.push_back(RefEntry{time, next_seq_++, label});
  }

  // Removes `label`'s entry; `SuspendHarness` models a suspend this way.
  void Cancel(int label) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].label == label) {
        entries_[i] = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  // Extracts the live minimum by (time, seq).
  int Pop() {
    const size_t best = MinIndex();
    const int label = entries_[best].label;
    entries_[best] = entries_.back();
    entries_.pop_back();
    return label;
  }

  // The least (time, seq) entry; the queue must not be empty.
  const RefEntry& Min() const { return entries_[MinIndex()]; }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const RefEntry& at(size_t i) const { return entries_[i]; }

 private:
  size_t MinIndex() const {
    size_t best = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].time < entries_[best].time ||
          (entries_[i].time == entries_[best].time &&
           entries_[i].seq < entries_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<RefEntry> entries_;
  uint64_t next_seq_ = 0;
};

void RunDifferential(uint64_t seed, int ops) {
  Simulator sim;
  ReferenceQueue ref;
  Rng rng(seed);

  std::vector<int> sim_order;
  std::vector<int> ref_order;
  int next_label = 0;

  for (int op = 0; op < ops; ++op) {
    const int64_t kind = rng.UniformInt(0, 7);
    if (kind <= 4 || ref.empty()) {
      // Schedule. A quarter of the draws reuse an existing pending time to
      // force exact same-timestamp ties; the rest land at now + U[0, 10).
      double t;
      if (rng.UniformInt(0, 3) == 0 && !ref.empty()) {
        t = ref.at(static_cast<size_t>(rng.UniformInt(
                       0, static_cast<int64_t>(ref.size()) - 1)))
                .time;
      } else {
        t = sim.Now() + rng.UniformDouble(0.0, 10.0);
      }
      if (t < sim.Now()) t = sim.Now();
      const int label = next_label++;
      sim.ScheduleAt(t, [&sim_order, label] { sim_order.push_back(label); });
      ref.Schedule(t, label);
    } else {
      ASSERT_TRUE(sim.Step());
      ref_order.push_back(ref.Pop());
      ASSERT_EQ(sim_order.size(), ref_order.size());
      ASSERT_EQ(sim_order.back(), ref_order.back())
          << "divergence at pop " << ref_order.size() << " (seed " << seed
          << ")";
    }
  }
  // Drain both completely.
  while (sim.Step()) {
    ASSERT_FALSE(ref.empty());
    ref_order.push_back(ref.Pop());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(sim_order, ref_order) << "seed " << seed;
}

// Suspend/Resume against the reference, which models them as Cancel and
// then Schedule: a resume draws the next sequence number, so the resumed
// event must pop exactly where a fresh schedule would. A label keeps its
// id throughout. Pops, their times and the executed-event count must all
// match.
class SuspendHarness {
 public:
  enum class State { kPending, kSuspended, kGone };

  int Schedule(double t) {
    const int label = static_cast<int>(labels_.size());
    labels_.push_back(Label{sim_.ScheduleAt(t, Fired(label)), t,
                            State::kPending});
    ref_.Schedule(t, label);
    return label;
  }
  void Suspend(int label) {
    Label& l = labels_[static_cast<size_t>(label)];
    ASSERT_EQ(l.state, State::kPending);
    sim_.Suspend(l.id);
    ref_.Cancel(label);
    l.state = State::kSuspended;
  }
  void Resume(int label, double t) {
    Label& l = labels_[static_cast<size_t>(label)];
    EXPECT_EQ(l.state, State::kSuspended);
    sim_.Resume(l.id, t);
    l.time = t;
    l.state = State::kPending;
    ref_.Schedule(t, label);
  }
  // One pop on each side; false once both are empty.
  bool Step() {
    const bool stepped = sim_.Step();
    EXPECT_EQ(stepped, !ref_.empty());
    if (!stepped) return false;
    const double t = ref_.Min().time;
    const int label = ref_.Pop();
    ref_pops_.emplace_back(label, t);
    labels_[static_cast<size_t>(label)].state = State::kGone;
    return true;
  }
  void RunUntil(double deadline) {
    sim_.RunUntil(deadline);
    while (!ref_.empty() && ref_.Min().time <= deadline) {
      const double t = ref_.Min().time;
      const int label = ref_.Pop();
      ref_pops_.emplace_back(label, t);
      labels_[static_cast<size_t>(label)].state = State::kGone;
    }
    EXPECT_EQ(sim_.Now(), deadline);
  }
  void Drain() {
    while (Step()) {
    }
  }
  // Pops, pop times, executed events and the pending count agree.
  void ExpectSame(const char* where) {
    ASSERT_EQ(sim_pops_, ref_pops_) << where;
    ASSERT_EQ(sim_.ExecutedEvents(), ref_pops_.size()) << where;
    size_t suspended = 0;
    for (const Label& l : labels_) suspended += l.state == State::kSuspended;
    ASSERT_EQ(sim_.PendingEvents(), ref_.size() + suspended) << where;
    sim_.CheckConsistency();
  }

  Simulator& sim() { return sim_; }
  std::vector<int> Labels(State state) const {
    std::vector<int> out;
    for (size_t i = 0; i < labels_.size(); ++i) {
      if (labels_[i].state == state) out.push_back(static_cast<int>(i));
    }
    return out;
  }
  double TimeOf(int label) const {
    return labels_[static_cast<size_t>(label)].time;
  }
  size_t pops() const { return sim_pops_.size(); }

 private:
  struct Label {
    EventId id;   // fixed for the label's life
    double time;  // where it was last scheduled or resumed
    State state;
  };
  Simulator::Callback Fired(int label) {
    return [this, label] { sim_pops_.emplace_back(label, sim_.Now()); };
  }

  Simulator sim_;
  ReferenceQueue ref_;
  std::vector<Label> labels_;
  std::vector<std::pair<int, double>> sim_pops_;
  std::vector<std::pair<int, double>> ref_pops_;
};

TEST(SchedulerDifferentialTest, SuspendResumeMatchesCancelThenSchedule) {
  using State = SuspendHarness::State;
  for (uint64_t seed : {3u, 11u, 2024u, 65537u}) {
    SCOPED_TRACE(seed);
    SuspendHarness h;
    Rng rng(seed);
    auto pick = [&rng](const std::vector<int>& from) {
      return from[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
    };
    // Quarter-unit times, so ties between fresh and resumed keys abound.
    auto quarters = [&rng](int max) {
      return 0.25 * static_cast<double>(rng.UniformInt(0, max));
    };
    int resumed_early = 0;  // before the label's previous time
    for (int op = 0; op < 20000; ++op) {
      const int64_t kind = rng.UniformInt(0, 94);
      const std::vector<int> pending = h.Labels(State::kPending);
      const std::vector<int> suspended = h.Labels(State::kSuspended);
      const double now = h.sim().Now();
      if (kind < 35 || pending.empty()) {
        h.Schedule(now + quarters(rng.Bernoulli(0.1) ? 4000 : 40));
      } else if (kind < 55) {
        h.Suspend(pick(pending));
      } else if (kind < 75 && !suspended.empty()) {
        // Same instant, before the old entry (which moves it in place), or
        // anywhere ahead.
        const int label = pick(suspended);
        const int64_t where = rng.UniformInt(0, 3);
        double t = now + quarters(40);
        if (where == 0) t = now;
        if (where == 1 && h.TimeOf(label) > now) {
          t = now + (h.TimeOf(label) - now) * 0.5;
        }
        if (t < h.TimeOf(label)) ++resumed_early;
        h.Resume(label, t);
      } else if (kind < 78) {
        h.RunUntil(now + quarters(8));
      } else {
        h.Step();
      }
      if (op % 1000 == 0) h.ExpectSame("mid-stream");
    }
    h.ExpectSame("end of stream");
    EXPECT_GT(resumed_early, 0);
    // Resume what is still suspended, then drain both.
    for (int label : h.Labels(State::kSuspended)) {
      h.Resume(label, h.sim().Now() + quarters(8));
    }
    h.Drain();
    h.ExpectSame("drained");
    EXPECT_EQ(h.sim().PendingEvents(), 0u);
  }
}

// The cases the random stream only reaches by chance, one by one.
TEST(SchedulerDifferentialTest, SuspendResumeEdgeCases) {
  SuspendHarness h;
  // Far-future filler keeps a populated calendar behind the bottom rung.
  for (int i = 0; i < 40; ++i) h.Schedule(100.0 + i);
  h.Schedule(1.0);
  const int same = h.Schedule(1.0);
  h.Schedule(1.0);
  // Resume at the same instant: `same` now fires after both neighbours.
  h.Suspend(same);
  h.Resume(same, 1.0);
  // Resume earlier than the old entry, which still waits in a calendar
  // bucket: the entry moves to the new key.
  const int early = h.Schedule(50.0);
  h.Suspend(early);
  h.Resume(early, 2.5);
  // Suspend and resume twice before the entry surfaces.
  const int twice = h.Schedule(3.0);
  h.Suspend(twice);
  h.Resume(twice, 4.0);
  h.Suspend(twice);
  h.Resume(twice, 5.0);
  // Surfaces while suspended: one in the bottom rung, one in a bucket.
  const int in_bottom = h.Schedule(1.5);
  const int in_bucket = h.Schedule(60.0);
  h.Step();  // the first pop pulls the imminent day into the bottom
  h.Suspend(in_bottom);
  h.Suspend(in_bucket);
  // Resume earlier than an entry the first pop pulled into the bottom
  // rung: the entry moves within it.
  h.Suspend(early);
  h.Resume(early, 2.0);
  h.ExpectSame("set up");
  h.RunUntil(80.0);  // both suspended entries surface
  h.ExpectSame("entries surfaced while suspended");
  h.Resume(in_bottom, 80.0);
  h.Resume(in_bucket, 80.0);
  // A RunUntil deadline between an early entry and its due key: the
  // entry surfaces and is re-keyed without firing or moving the clock.
  const int rekeyed = h.Schedule(82.0);
  h.Suspend(rekeyed);
  h.Resume(rekeyed, 90.0);
  const uint64_t executed = h.sim().ExecutedEvents();
  h.RunUntil(85.0);
  EXPECT_EQ(h.sim().ExecutedEvents(), executed + 2);  // the two resumed
  h.ExpectSame("deadline between entry and due key");
  h.Drain();
  h.ExpectSame("drained");
}

TEST(SchedulerDifferentialTest, MatchesReferenceOrderUnderChurn) {
  for (uint64_t seed : {1u, 7u, 42u, 1999u, 987654u}) {
    RunDifferential(seed, 20000);
  }
}

// Heavy-tie regime: many events share few distinct timestamps, so almost
// every pop is decided by the sequence-number tie-break.
TEST(SchedulerDifferentialTest, TieStormPreservesSchedulingOrder) {
  Simulator sim;
  ReferenceQueue ref;
  Rng rng(0xabcdef);
  std::vector<int> sim_order;
  std::vector<int> ref_order;
  int next_label = 0;
  for (int round = 0; round < 50; ++round) {
    const double base = sim.Now();
    for (int i = 0; i < 200; ++i) {
      const double t = base + static_cast<double>(rng.UniformInt(0, 3));
      const int label = next_label++;
      sim.ScheduleAt(t, [&sim_order, label] { sim_order.push_back(label); });
      ref.Schedule(t, label);
    }
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(sim.Step());
      ref_order.push_back(ref.Pop());
    }
    ASSERT_EQ(sim_order, ref_order) << "round " << round;
  }
  while (sim.Step()) ref_order.push_back(ref.Pop());
  EXPECT_EQ(sim_order, ref_order);
}

// Far-future outliers (watchdog-style events) must not perturb ordering
// while the near-term population churns through bucket-width rebuilds.
TEST(SchedulerDifferentialTest, FarFutureOutliersDoNotPerturbOrder) {
  Simulator sim;
  ReferenceQueue ref;
  Rng rng(31337);
  std::vector<int> sim_order;
  std::vector<int> ref_order;
  int next_label = 0;
  auto schedule = [&](double t) {
    const int label = next_label++;
    sim.ScheduleAt(t, [&sim_order, label] { sim_order.push_back(label); });
    ref.Schedule(t, label);
  };
  for (int i = 0; i < 8; ++i) schedule(1e6 + static_cast<double>(i));
  for (int step = 0; step < 5000; ++step) {
    schedule(sim.Now() + rng.UniformDouble(0.0, 0.5));
    if (step % 3 == 0) {
      ASSERT_TRUE(sim.Step());
      ref_order.push_back(ref.Pop());
      ASSERT_EQ(sim_order.back(), ref_order.back()) << "step " << step;
    }
  }
  while (sim.Step()) ref_order.push_back(ref.Pop());
  EXPECT_EQ(sim_order, ref_order);
}

}  // namespace
}  // namespace granulock::sim
