#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
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
    // The completions capture a pointer to the job's fan-in, which the
    // harness keeps.
    FanIn* fan_in = &fan_ins_.emplace_back(servers_.size(), std::move(then));
    for (auto& server : servers_) {
      server->Submit(ServiceClass::kLock, service, [fan_in] {
        if (--fan_in->first == 0) fan_in->second();
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
  /// Completions still to come, and the continuation to run after them.
  using FanIn = std::pair<size_t, std::function<void()>>;

  Members servers_;
  BusyUnionTracker union_;
  std::deque<FanIn> fan_ins_;
};

/// The same pool on one shared lane.
class PooledLane {
 public:
  PooledLane(Simulator* sim, int npros)
      : lane_(sim, "pool"), servers_(JoinLane(sim, &lane_, npros, &union_)) {}

  void SubmitLock(SimTime service, std::function<void()> then) {
    const std::function<void()>* kept = &thens_.emplace_back(std::move(then));
    lane_.Submit(service, [kept] { (*kept)(); });
  }
  void ResetStats(SimTime now) {
    for (auto& server : servers_) server->ResetStats();
    lane_.ResetStats();
    union_.ResetWindow(now);
  }
  bool lane_busy() const { return lane_.busy(); }
  PriorityServer& node(size_t n) { return *servers_[n]; }
  const PriorityServer& node(size_t n) const { return *servers_[n]; }
  const BusyUnionTracker& busy_union() const { return union_; }

 private:
  LockLane lane_;
  BusyUnionTracker union_;
  Members servers_;
  std::deque<std::function<void()>> thens_;  // every job's continuation
};

/// The pool as it preempted before members were suspended in place, kept
/// as a reference for the lane: when the lane turns busy, every member
/// drops its in-service job's completion event and pushes the job back on
/// the head of its queue, crediting the service it received; when the
/// lane drains, every member starts the head of its queue with a fresh
/// `ScheduleAfter`. The dropped event is suspended and never resumed: as
/// a cancelled one would, its entry surfaces uncounted, draws no sequence
/// number and moves no clock. Each member reports its own union
/// transitions. A member always queues a submitted job and then moves the
/// head out of its queue to start it, even when it was idle.
class EagerPool {
 public:
  class Member {
   public:
    Member(Simulator* sim, EagerPool* pool) : sim_(sim), pool_(pool) {}

    void Submit(ServiceClass cls, SimTime service,
                std::function<void()> on_complete) {
      ASSERT_EQ(cls, ServiceClass::kTransaction);
      queue_.push_back(Job{service, std::move(on_complete)});
      StartNextIfIdle();
    }
    double BusyTime(ServiceClass cls) const {
      if (cls == ServiceClass::kLock) return pool_->LockBusyTime();
      double t = busy_time_;
      if (current_.has_value()) t += sim_->Now() - accounted_from_;
      return t;
    }
    size_t QueueLength(ServiceClass cls) const {
      return cls == ServiceClass::kLock ? pool_->LockQueueLength()
                                        : queue_.size();
    }
    bool busy() const { return pool_->busy() || current_.has_value(); }

   private:
    friend class EagerPool;
    struct Job {
      SimTime remaining;
      std::function<void()> on_complete;
    };

    void StartNextIfIdle() {
      if (current_.has_value() || pool_->busy() || queue_.empty()) return;
      current_ = std::move(queue_.front());
      queue_.pop_front();
      pool_->Notify(+1, 0);
      service_start_ = accounted_from_ = sim_->Now();
      completion_ = sim_->ScheduleAfter(current_->remaining,
                                        [this] { FinishCurrent(); });
    }
    void FinishCurrent() {
      busy_time_ += sim_->Now() - accounted_from_;
      pool_->Notify(-1, 0);
      std::function<void()> done = std::move(current_->on_complete);
      current_.reset();
      StartNextIfIdle();
      if (done) done();
    }
    void EnterLockService() {
      if (current_.has_value()) {
        ++pool_->preemptions_;
        sim_->Suspend(completion_);
        const SimTime served = sim_->Now() - service_start_;
        busy_time_ += sim_->Now() - accounted_from_;
        pool_->Notify(-1, 0);
        Job job = std::move(*current_);
        current_.reset();
        job.remaining -= served;
        if (job.remaining < 0.0) job.remaining = 0.0;
        queue_.push_front(std::move(job));
      }
      pool_->Notify(+1, +1);
    }
    void LeaveLockService() {
      pool_->Notify(-1, -1);
      StartNextIfIdle();
    }
    void ResetStats() {
      busy_time_ = 0.0;
      if (current_.has_value()) accounted_from_ = sim_->Now();
    }

    Simulator* sim_;
    EagerPool* pool_;
    std::deque<Job> queue_;
    std::optional<Job> current_;
    SimTime service_start_ = 0.0;
    SimTime accounted_from_ = 0.0;
    EventId completion_ = 0;
    double busy_time_ = 0.0;
  };

  EagerPool(Simulator* sim, int npros) : sim_(sim) {
    for (int n = 0; n < npros; ++n) {
      members_.push_back(std::make_unique<Member>(sim, this));
    }
  }

  void SubmitLock(SimTime service, std::function<void()> then) {
    jobs_.push_back(LockJob{service, std::move(then)});
    if (jobs_.size() > 1) return;
    for (auto& member : members_) member->EnterLockService();
    BeginService();
  }
  void ResetStats(SimTime now) {
    for (auto& member : members_) member->ResetStats();
    busy_time_ = 0.0;
    if (busy()) service_start_ = sim_->Now();
    union_.ResetWindow(now);
  }
  bool lane_busy() const { return busy(); }
  Member& node(size_t n) { return *members_[n]; }
  const Member& node(size_t n) const { return *members_[n]; }
  const BusyUnionTracker& busy_union() const { return union_; }
  /// Transaction jobs preempted so far.
  int64_t preemptions() const { return preemptions_; }

 private:
  struct LockJob {
    SimTime service;
    std::function<void()> on_complete;
  };

  bool busy() const { return !jobs_.empty(); }
  double LockBusyTime() const {
    return busy_time_ + (busy() ? sim_->Now() - service_start_ : 0.0);
  }
  size_t LockQueueLength() const { return jobs_.size() - (busy() ? 1 : 0); }
  void Notify(int delta_any, int delta_lock) {
    union_.Transition(sim_->Now(), delta_any, delta_lock);
  }
  void BeginService() {
    service_start_ = sim_->Now();
    sim_->ScheduleAfter(jobs_.front().service, [this] { FinishCurrent(); });
  }
  void FinishCurrent() {
    busy_time_ += sim_->Now() - service_start_;
    std::function<void()> done = std::move(jobs_.front().on_complete);
    jobs_.pop_front();
    if (jobs_.empty()) {
      for (auto& member : members_) member->LeaveLockService();
    } else {
      for (size_t n = 0; n < members_.size(); ++n) {
        Notify(-1, -1);
        Notify(+1, +1);
      }
      BeginService();
    }
    if (done) done();
  }

  Simulator* sim_;
  std::vector<std::unique_ptr<Member>> members_;
  std::deque<LockJob> jobs_;
  SimTime service_start_ = 0.0;
  double busy_time_ = 0.0;
  BusyUnionTracker union_;
  int64_t preemptions_ = 0;
};

/// A pool of one standalone `PriorityServer`, which is its own lane of
/// one. The lane is busy while a lock job is unfinished.
class StandaloneServer {
 public:
  StandaloneServer(Simulator* sim, int npros) : server_(sim, "node0") {
    EXPECT_EQ(npros, 1);
    server_.SetBusyUnion(&union_);
  }

  void SubmitLock(SimTime service, std::function<void()> then) {
    ++unfinished_locks_;
    const std::function<void()>* kept = &thens_.emplace_back(std::move(then));
    server_.Submit(ServiceClass::kLock, service, [this, kept] {
      --unfinished_locks_;
      (*kept)();
    });
  }
  void ResetStats(SimTime now) {
    server_.ResetStats();
    union_.ResetWindow(now);
  }
  bool lane_busy() const { return unfinished_locks_ > 0; }
  PriorityServer& node(size_t n) {
    EXPECT_EQ(n, 0u);
    return server_;
  }
  const PriorityServer& node(size_t n) const {
    EXPECT_EQ(n, 0u);
    return server_;
  }
  const BusyUnionTracker& busy_union() const { return union_; }

 private:
  BusyUnionTracker union_;
  PriorityServer server_;
  int unfinished_locks_ = 0;
  std::deque<std::function<void()>> thens_;  // every job's continuation
};

/// What a stream observably produced.
struct Outcome {
  std::vector<int> order;      // job ids in completion order
  std::vector<double> done;    // completion time per job id
  std::vector<double> probes;  // accounting read at fixed instants
  uint64_t events = 0;
  int64_t lock_jobs = 0;
  int64_t idle_submits = 0;  // transaction jobs that found their server idle
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

// --- The lane equals its eager predecessor ---------------------------------

/// The transaction work of a `PreemptionStream`.
enum class TxnShape {
  /// 16 to 160 ticks per job: every job is preempted many times over.
  kLong,
  /// 0 to 4 ticks per job, lock requests 2 to 12 ticks apart, and each
  /// paid request forks a stage as `core::ForkJoin` does: a disk job on
  /// about half the nodes, each submitting a CPU job on its node the
  /// instant it finishes. Most jobs find their server idle and start
  /// where they were enqueued.
  kShort,
};

/// A seeded stream of lock requests and transaction work on a
/// machine-like pair of pools of `npros` nodes: two transaction jobs per
/// node to start, and lock requests (a disk lock job on every node, then
/// a CPU one) arriving while transaction work remains. With
/// `TxnShape::kLong` they arrive every 1 to 4 ticks, far more often than
/// jobs complete. Every time is a whole number of ticks: with a tick of
/// 1/4 events tie exactly, and with 1/10 the busy-time sums also round,
/// so merging or splitting a union span would show. Each request probes
/// every node's per-class busy times and queue lengths and both unions at
/// the instant its lane job was submitted and half a tick later, inside
/// the busy period; the warm-up reset waits for the disk lane to be busy.
template <typename Pool>
class PreemptionStream {
 public:
  PreemptionStream(uint64_t seed, int npros, double tick,
                   TxnShape shape = TxnShape::kLong)
      : io_(&sim_, npros),
        cpu_(&sim_, npros),
        rng_(seed),
        npros_(npros),
        tick_(tick),
        shape_(shape) {}

  Outcome Run() {
    for (Pool* pool : {&io_, &cpu_}) {
      for (int n = 0; n < npros_; ++n) {
        for (int k = 0; k < 2; ++k) SubmitTxn(*pool, static_cast<size_t>(n));
      }
    }
    sim_.ScheduleAt(tick_, [this] { LockArrival(); });
    sim_.ScheduleAt(10.0, [this] { ResetInsideBusyPeriod(); });
    sim_.RunUntilEmpty();
    Probe();
    out_.events = sim_.ExecutedEvents();
    return out_;
  }
  const Pool& io() const { return io_; }
  const Pool& cpu() const { return cpu_; }
  int64_t txn_jobs() const { return txn_jobs_; }

 private:
  double Ticks(int min, int max) {
    return tick_ * static_cast<double>(rng_.UniformInt(min, max));
  }
  int NewJob() {
    out_.done.push_back(-1.0);
    return static_cast<int>(out_.done.size()) - 1;
  }
  void Done(int id) {
    out_.order.push_back(id);
    out_.done[static_cast<size_t>(id)] = sim_.Now();
  }

  void LockArrival() {
    if (outstanding_ == 0 && !StagesLeft()) return;
    SubmitLock();
    const double gap =
        shape_ == TxnShape::kLong ? Ticks(1, 4) : Ticks(2, 12);
    sim_.ScheduleAfter(gap, [this] { LockArrival(); });
  }
  void SubmitLock() {
    const int id = NewJob();
    out_.lock_jobs += 2;
    io_.SubmitLock(Ticks(1, 2), [this, id] {
      cpu_.SubmitLock(Ticks(1, 2), [this, id] {
        Done(id);
        if (shape_ == TxnShape::kShort) {
          if (StagesLeft()) ForkStage();
        } else if (txn_jobs_ < 200 && rng_.Bernoulli(0.1)) {
          Pool& pool = rng_.Bernoulli(0.5) ? io_ : cpu_;
          SubmitTxn(pool, static_cast<size_t>(rng_.UniformInt(0, npros_ - 1)));
        }
      });
      ProbeNowAndSoon();
    });
    ProbeNowAndSoon();
  }
  bool StagesLeft() const {
    return shape_ == TxnShape::kShort && txn_jobs_ < 400;
  }
  void ForkStage() {
    for (int n = 0; n < npros_; ++n) {
      if (rng_.Bernoulli(0.5)) {
        SubmitTxn(io_, static_cast<size_t>(n), /*then_cpu=*/true);
      }
    }
  }
  /// With `then_cpu`, the job's completion submits a CPU job on `node` at
  /// once, as a sub-transaction's I/O stage does.
  void SubmitTxn(Pool& pool, size_t node, bool then_cpu = false) {
    const int id = NewJob();
    ++txn_jobs_;
    ++outstanding_;
    if (!pool.node(node).busy()) ++out_.idle_submits;
    const double service =
        shape_ == TxnShape::kLong ? Ticks(16, 160) : Ticks(0, 4);
    pool.node(node).Submit(ServiceClass::kTransaction, service,
                           [this, id, node, then_cpu] {
                             Done(id);
                             --outstanding_;
                             if (then_cpu) SubmitTxn(cpu_, node);
                           });
  }
  void ResetInsideBusyPeriod() {
    if (!io_.lane_busy() && outstanding_ > 0) {
      sim_.ScheduleAfter(tick_, [this] { ResetInsideBusyPeriod(); });
      return;
    }
    io_.ResetStats(sim_.Now());
    cpu_.ResetStats(sim_.Now());
    Probe();
  }
  void ProbeNowAndSoon() {
    Probe();
    sim_.ScheduleAfter(tick_ / 2, [this] { Probe(); });
  }
  void Probe() {
    for (const Pool* pool : {&io_, &cpu_}) {
      for (int n = 0; n < npros_; ++n) {
        const auto& server = pool->node(static_cast<size_t>(n));
        for (ServiceClass cls :
             {ServiceClass::kLock, ServiceClass::kTransaction}) {
          out_.probes.push_back(server.BusyTime(cls));
          out_.probes.push_back(static_cast<double>(server.QueueLength(cls)));
        }
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
  const double tick_;
  const TxnShape shape_;
  int64_t txn_jobs_ = 0;
  int64_t outstanding_ = 0;
  Outcome out_;
};

TEST(LockLaneTest, MatchesEagerPreemptionBitForBit) {
  for (double tick : {0.25, 0.1}) {
    for (int npros : {1, 3, 30}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "tick=" << tick << " npros="
                                        << npros << " seed=" << seed);
        PreemptionStream<EagerPool> eager_stream(seed, npros, tick);
        const Outcome eager = eager_stream.Run();
        const Outcome lane =
            PreemptionStream<PooledLane>(seed, npros, tick).Run();
        EXPECT_EQ(eager.order, lane.order);
        EXPECT_EQ(eager.done, lane.done);
        EXPECT_EQ(eager.probes, lane.probes);
        EXPECT_EQ(eager.events, lane.events);
        EXPECT_EQ(eager.lock_jobs, lane.lock_jobs);
        // The stream does what it is for: every transaction job is
        // preempted many times over.
        const int64_t preemptions = eager_stream.io().preemptions() +
                                    eager_stream.cpu().preemptions();
        EXPECT_GT(preemptions, 5 * eager_stream.txn_jobs());
      }
    }
  }
}

TEST(LockLaneTest, IdleStartsMatchEagerPoolBitForBit) {
  // The eager pool always queues a job and then starts the head; the
  // server starts a job submitted to it while idle where it was enqueued.
  for (double tick : {0.25, 0.1}) {
    for (int npros : {1, 3, 30}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "tick=" << tick << " npros="
                                        << npros << " seed=" << seed);
        PreemptionStream<EagerPool> eager_stream(seed, npros, tick,
                                                 TxnShape::kShort);
        const Outcome eager = eager_stream.Run();
        PreemptionStream<PooledLane> lane_stream(seed, npros, tick,
                                                 TxnShape::kShort);
        const Outcome lane = lane_stream.Run();
        EXPECT_EQ(eager.order, lane.order);
        EXPECT_EQ(eager.done, lane.done);
        EXPECT_EQ(eager.probes, lane.probes);
        EXPECT_EQ(eager.events, lane.events);
        EXPECT_EQ(eager.lock_jobs, lane.lock_jobs);
        EXPECT_EQ(eager.idle_submits, lane.idle_submits);
        // Many jobs start on an idle server, and lock work still
        // preempts some.
        EXPECT_GT(3 * lane.idle_submits, lane_stream.txn_jobs());
        EXPECT_GT(eager_stream.io().preemptions() +
                      eager_stream.cpu().preemptions(),
                  0);
      }
    }
  }
}

TEST(LockLaneTest, StandaloneServerMatchesEagerPoolBitForBit) {
  for (TxnShape shape : {TxnShape::kLong, TxnShape::kShort}) {
    for (double tick : {0.25, 0.1}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "short=" << (shape == TxnShape::kShort)
                     << " tick=" << tick << " seed=" << seed);
        const Outcome eager =
            PreemptionStream<EagerPool>(seed, 1, tick, shape).Run();
        const Outcome server =
            PreemptionStream<StandaloneServer>(seed, 1, tick, shape).Run();
        EXPECT_EQ(eager.order, server.order);
        EXPECT_EQ(eager.done, server.done);
        EXPECT_EQ(eager.probes, server.probes);
        EXPECT_EQ(eager.events, server.events);
        EXPECT_EQ(eager.lock_jobs, server.lock_jobs);
        EXPECT_EQ(eager.idle_submits, server.idle_submits);
        EXPECT_GT(server.idle_submits, 0);
      }
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
    // Every member's transaction job is suspended in service; it counts
    // as queued until the lane drains.
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
