#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/busy_union.h"
#include "sim/machine.h"
#include "sim/priority_server.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace granulock::sim {
namespace {

using Members = std::vector<std::unique_ptr<PriorityServer>>;

/// `npros` members of `lane`, wired into `pool_union` when given.
Members JoinLane(Simulator* sim, LockLane* lane, int npros,
                 BusyUnionTracker* pool_union = nullptr) {
  Members members;
  for (int n = 0; n < npros; ++n) {
    members.push_back(std::make_unique<PriorityServer>(
        sim, "node" + std::to_string(n), lane));
    members.back()->SetBusyUnion(pool_union);
  }
  return members;
}

// --- A lane equals one server per node -------------------------------------

/// The lock class of a pool without a shared lane: one standalone server
/// per node, each given every lock job, joined by a fan-in counter.
class PerNodeServers {
 public:
  PerNodeServers(Simulator* sim, int npros) {
    for (int n = 0; n < npros; ++n) {
      servers_.push_back(
          std::make_unique<PriorityServer>(sim, "node" + std::to_string(n)));
      servers_.back()->SetBusyUnion(&union_);
    }
  }

  void SubmitLock(SimTime service, std::function<void()> then) {
    auto remaining = std::make_shared<size_t>(servers_.size());
    for (auto& server : servers_) {
      server->Submit(ServiceClass::kLock, service, [remaining, then] {
        if (--*remaining == 0) then();
      });
    }
  }
  void ResetStats(SimTime now) {
    for (auto& server : servers_) server->ResetStats();
    union_.ResetWindow(now);
  }
  PriorityServer& node(size_t n) { return *servers_[n]; }
  const PriorityServer& node(size_t n) const { return *servers_[n]; }
  const BusyUnionTracker& busy_union() const { return union_; }

 private:
  Members servers_;
  BusyUnionTracker union_;
};

/// The same pool on one shared lane.
class PooledLane {
 public:
  PooledLane(Simulator* sim, int npros)
      : lane_(sim, "pool"), servers_(JoinLane(sim, &lane_, npros, &union_)) {}

  void SubmitLock(SimTime service, std::function<void()> then) {
    lane_.Submit(service, std::move(then));
  }
  void ResetStats(SimTime now) {
    for (auto& server : servers_) server->ResetStats();
    lane_.ResetStats();
    union_.ResetWindow(now);
  }
  PriorityServer& node(size_t n) { return *servers_[n]; }
  const PriorityServer& node(size_t n) const { return *servers_[n]; }
  const BusyUnionTracker& busy_union() const { return union_; }

 private:
  LockLane lane_;
  BusyUnionTracker union_;
  Members servers_;
};

/// What a stream observably produced.
struct Outcome {
  std::vector<int> order;      // job ids in completion order
  std::vector<double> done;    // completion time per job id
  std::vector<double> probes;  // accounting read at fixed instants
  uint64_t events = 0;
  int64_t lock_jobs = 0;
};

/// A seeded random stream on a machine-like pair of pools (disks, then
/// CPUs) of `npros` nodes each: open arrivals of lock requests (a disk
/// lock job on every node, then a CPU one, as `Machine::PayLockCost`) and
/// transaction jobs (to one random node of either pool), continuations
/// that submit follow-up work, a warm-up reset half way, and probes of
/// every node's per-class busy time and all union totals. Every time is a
/// multiple of 1/4, so events often tie and their order is decided by
/// scheduling order alone.
template <typename Pool>
class Stream {
 public:
  Stream(uint64_t seed, int npros)
      : io_(&sim_, npros), cpu_(&sim_, npros), rng_(seed), npros_(npros) {}

  Outcome Run() {
    double t = 0.0;
    for (int i = 0; i < 300; ++i) {
      t += Quarters(2);
      const bool lock = rng_.Bernoulli(0.3);
      sim_.ScheduleAt(t, [this, lock] { lock ? SubmitLock() : SubmitTxn(); });
    }
    sim_.ScheduleAt(t / 2, [this] {
      io_.ResetStats(sim_.Now());
      cpu_.ResetStats(sim_.Now());
    });
    for (int k = 1; k <= 8; ++k) {
      sim_.ScheduleAt(t * k / 8, [this] { Probe(); });
    }
    sim_.RunUntilEmpty();
    Probe();
    out_.events = sim_.ExecutedEvents();
    return out_;
  }

 private:
  /// 0, 1/4, ..., `max` / 4 time units, uniformly.
  double Quarters(int max) {
    return 0.25 * static_cast<double>(rng_.UniformInt(0, max));
  }
  int NewJob() {
    out_.done.push_back(-1.0);
    return static_cast<int>(out_.done.size()) - 1;
  }
  void Done(int id) {
    out_.order.push_back(id);
    out_.done[static_cast<size_t>(id)] = sim_.Now();
  }

  void SubmitLock() {
    const int id = NewJob();
    out_.lock_jobs += 2;
    io_.SubmitLock(Quarters(2), [this, id] {
      cpu_.SubmitLock(Quarters(1), [this, id] {
        Done(id);
        // A paid lock request goes on to transaction work.
        if (rng_.Bernoulli(0.5)) SubmitTxn();
      });
    });
  }
  void SubmitTxn() {
    const int id = NewJob();
    Pool& pool = rng_.Bernoulli(0.5) ? io_ : cpu_;
    const auto node = static_cast<size_t>(rng_.UniformInt(0, npros_ - 1));
    pool.node(node).Submit(ServiceClass::kTransaction, Quarters(8),
                           [this, id] {
                             Done(id);
                             if (rng_.Bernoulli(0.2)) SubmitLock();
                           });
  }
  void Probe() {
    for (const Pool* pool : {&io_, &cpu_}) {
      for (int n = 0; n < npros_; ++n) {
        const PriorityServer& server = pool->node(static_cast<size_t>(n));
        out_.probes.push_back(server.BusyTime(ServiceClass::kLock));
        out_.probes.push_back(server.BusyTime(ServiceClass::kTransaction));
      }
      out_.probes.push_back(pool->busy_union().AnyBusyTime(sim_.Now()));
      out_.probes.push_back(pool->busy_union().LockBusyTime(sim_.Now()));
    }
  }

  Simulator sim_;
  Pool io_;
  Pool cpu_;
  Rng rng_;
  const int npros_;
  Outcome out_;
};

TEST(LockLaneTest, PoolMatchesPerNodeServers) {
  for (int npros : {1, 2, 5, 30}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(testing::Message() << "npros=" << npros << " seed=" << seed);
      const Outcome per_node = Stream<PerNodeServers>(seed, npros).Run();
      const Outcome lane = Stream<PooledLane>(seed, npros).Run();
      EXPECT_EQ(per_node.order, lane.order);
      EXPECT_EQ(per_node.done, lane.done);
      EXPECT_EQ(per_node.probes, lane.probes);
      ASSERT_EQ(per_node.lock_jobs, lane.lock_jobs);
      EXPECT_GT(lane.lock_jobs, 0);
      // One completion event per lock job instead of one per node.
      EXPECT_EQ(per_node.events - lane.events,
                static_cast<uint64_t>(lane.lock_jobs * (npros - 1)));
    }
  }
}

// --- Lane semantics ----------------------------------------------------------

TEST(LockLaneTest, JobPreemptsAndResumesEveryMember) {
  Simulator sim;
  LockLane lane(&sim, "pool");
  BusyUnionTracker pool_union;
  const Members members = JoinLane(&sim, &lane, 3, &pool_union);
  std::vector<int> finished;
  for (int n = 0; n < 3; ++n) {
    members[static_cast<size_t>(n)]->Submit(
        ServiceClass::kTransaction, 4.0, [&finished, n] {
          finished.push_back(n);
        });
  }
  double lock_done = -1.0;
  sim.ScheduleAt(1.0, [&] {
    lane.Submit(2.0, [&] { lock_done = sim.Now(); });
    // Every member's transaction job went back to the head of its queue.
    for (const auto& member : members) {
      EXPECT_TRUE(member->busy());
      EXPECT_EQ(member->QueueLength(ServiceClass::kTransaction), 1u);
    }
    EXPECT_EQ(pool_union.lock_count(), 3);
  });
  sim.RunUntilEmpty();
  EXPECT_DOUBLE_EQ(lock_done, 3.0);
  // 1.0 of service before the preemption, 3.0 after the lane drains at
  // t = 3; the members resume, and so finish, in node order.
  EXPECT_DOUBLE_EQ(sim.Now(), 6.0);
  EXPECT_EQ(finished, (std::vector<int>{0, 1, 2}));
  for (const auto& member : members) {
    EXPECT_DOUBLE_EQ(member->BusyTime(ServiceClass::kLock), 2.0);
    EXPECT_DOUBLE_EQ(member->BusyTime(ServiceClass::kTransaction), 4.0);
    EXPECT_EQ(member->CompletedJobs(ServiceClass::kLock), 1u);
  }
  EXPECT_DOUBLE_EQ(pool_union.AnyBusyTime(sim.Now()), 6.0);
  EXPECT_DOUBLE_EQ(pool_union.LockBusyTime(sim.Now()), 2.0);
  // The arrival, one lane completion, three transaction completions.
  EXPECT_EQ(sim.ExecutedEvents(), 5u);
}

TEST(LockLaneTest, JobsAreServedFcfs) {
  Simulator sim;
  LockLane lane(&sim, "pool");
  const Members members = JoinLane(&sim, &lane, 2);
  std::vector<std::pair<int, double>> done;
  lane.Submit(1.0, [&] { done.emplace_back(1, sim.Now()); });
  lane.Submit(2.0, [&] { done.emplace_back(2, sim.Now()); });
  sim.ScheduleAt(0.5, [&] {
    lane.Submit(0.0, [&] { done.emplace_back(3, sim.Now()); });
    EXPECT_EQ(lane.QueueLength(), 2u);
  });
  sim.RunUntilEmpty();
  EXPECT_EQ(done, (std::vector<std::pair<int, double>>{
                      {1, 1.0}, {2, 3.0}, {3, 3.0}}));
  EXPECT_EQ(lane.CompletedJobs(), 3u);
  EXPECT_DOUBLE_EQ(lane.BusyTime(), 3.0);
  EXPECT_DOUBLE_EQ(members[1]->BusyTime(ServiceClass::kLock), 3.0);
  // The arrival and one completion per lane job.
  EXPECT_EQ(sim.ExecutedEvents(), 4u);
}

// --- Machine ---------------------------------------------------------------

TEST(MachineTest, PayLockCostExecutesOneEventPerPhase) {
  for (int64_t npros : {1, 30}) {
    SCOPED_TRACE(npros);
    Machine machine;
    machine.Build(npros);
    double paid_at = -1.0;
    machine.PayLockCost(1.0, 0.5,
                        [&paid_at, &machine] { paid_at = machine.Now(); });
    machine.sim().RunUntilEmpty();
    EXPECT_DOUBLE_EQ(paid_at, 1.5);
    EXPECT_EQ(machine.sim().ExecutedEvents(), 2u);
    for (int64_t n = 0; n < npros; ++n) {
      EXPECT_DOUBLE_EQ(machine.io(n).BusyTime(ServiceClass::kLock), 1.0);
      EXPECT_DOUBLE_EQ(machine.cpu(n).BusyTime(ServiceClass::kLock), 0.5);
    }
    EXPECT_DOUBLE_EQ(machine.io_union().LockBusyTime(machine.Now()), 1.0);
    EXPECT_DOUBLE_EQ(machine.cpu_union().LockBusyTime(machine.Now()), 0.5);
  }
}

TEST(MachineTest, ZeroCostPhaseExecutesNoEvent) {
  Machine machine;
  machine.Build(5);
  int paid = 0;
  machine.PayLockCost(0.0, 0.5, [&paid] { ++paid; });
  machine.sim().RunUntilEmpty();
  EXPECT_EQ(paid, 1);
  EXPECT_EQ(machine.sim().ExecutedEvents(), 1u);
  EXPECT_EQ(machine.io(0).CompletedJobs(ServiceClass::kLock), 0u);
  // A free request is paid before the call returns.
  machine.PayLockCost(0.0, 0.0, [&paid] { ++paid; });
  EXPECT_EQ(paid, 2);
  EXPECT_EQ(machine.sim().PendingEvents(), 0u);
  EXPECT_EQ(machine.sim().ExecutedEvents(), 1u);
}

}  // namespace
}  // namespace granulock::sim
