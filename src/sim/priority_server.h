#ifndef GRANULOCK_SIM_PRIORITY_SERVER_H_
#define GRANULOCK_SIM_PRIORITY_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/busy_union.h"
#include "sim/fcfs_ring.h"
#include "sim/simulator.h"

namespace granulock::sim {

/// Service classes at a node resource. The paper specifies that "the locking
/// mechanism has preemptive power over running transactions for I/O and CPU
/// resources": lock-manager work always runs ahead of (and interrupts)
/// transaction work.
enum class ServiceClass {
  kLock = 0,         ///< lock request/set/release processing (high priority)
  kTransaction = 1,  ///< useful transaction work (low priority)
};

class PriorityServer;

/// The lock class of a pool of `PriorityServer`s. The paper (§2) shares
/// lock-manager work equally among all processors at preemptive priority,
/// so a lock job occupies every member of the pool for the same service
/// time. The lane serves those jobs once for the whole pool: one FCFS
/// queue, one busy-time account and one completion event per job.
///
/// * While a job is in service, every member is serving it: when the lane
///   turns busy, each member with a transaction job in service is credited
///   the service it received and its completion event is suspended in
///   place (`Simulator::Suspend`); idle members are not visited. When the
///   lane drains, members with transaction work are visited in node
///   order: a suspended job resumes (`Simulator::Resume`) with its
///   remaining demand, and any other member starts its queued work.
/// * Lock jobs never preempt each other; a zero-length job completes at
///   its submission time.
///
/// This equals `npros` independent servers each given the same lock job:
/// lock service ignores transaction work, so their lock queues hold the
/// same jobs with the same start and finish times, and their completions
/// fire at one instant with consecutive sequence numbers. The lane's one
/// event takes the first of those positions and does the members' work in
/// the same order, so every other event keeps its (time, seq) order. A
/// resume draws its sequence number where a fresh schedule of the
/// preempted job's remainder would. Every member reports the lane's
/// lock account, and the pool's busy union gets one transition per lane
/// event, at the instant each member's transitions had.
class LockLane {
 public:
  using Completion = InlineCallback;

  /// Creates an empty lane scheduling on `sim` (not owned; must outlive
  /// the lane). Servers join it at construction. `name` is for
  /// diagnostics only.
  LockLane(Simulator* sim, std::string name);

  LockLane(const LockLane&) = delete;
  LockLane& operator=(const LockLane&) = delete;

  /// Enqueues a lock job demanding `service` (>= 0) time units of every
  /// member; `on_complete` fires once, when the job has been served.
  void Submit(SimTime service, Completion on_complete);

  /// Lock busy time of each member since construction (or the last
  /// `ResetStats`), including the in-progress portion of the current job.
  double BusyTime() const;

  /// Lock jobs fully served since construction (or the last `ResetStats`).
  uint64_t CompletedJobs() const { return completed_; }

  /// Lock jobs waiting, excluding the one in service.
  size_t QueueLength() const { return queue_.size() - (busy() ? 1 : 0); }

  /// True iff a lock job is in service (every member is serving it).
  bool busy() const { return !queue_.empty(); }

  /// Zeroes the accounting; an in-progress job's pre-reset service is no
  /// longer counted.
  void ResetStats();

  const std::string& name() const { return name_; }

  /// FCFS conservation audit, like `PriorityServer::CheckConsistency`:
  /// every job ever submitted is finished or queued (the head is in
  /// service while busy), demands and accounting are non-negative, every
  /// member's in-service transaction job is suspended exactly while the
  /// lane is busy, and the lane tracks which members have transaction
  /// work.
  void CheckConsistency() const;

 private:
  friend class PriorityServer;  // joins at construction
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Job {
    SimTime service;
    Completion on_complete;
  };

  /// Starts the head job: schedules its completion at `Now() + service`.
  void BeginService();
  void FinishCurrent();

  /// Marks member `index` as having transaction work (in service,
  /// suspended or queued) or not.
  void SetWorking(size_t index, bool working) {
    const uint64_t bit = uint64_t{1} << (index % 64);
    uint64_t& word = working_[index / 64];
    word = working ? (word | bit) : (word & ~bit);
  }
  bool IsWorking(size_t index) const {
    return (working_[index / 64] >> (index % 64) & 1) != 0;
  }
  /// Calls `f(member)` for each member with transaction work, in node
  /// order; returns how many there were. `f` must not change which
  /// members are working.
  template <typename F>
  int ForEachWorkingMember(F f);

  /// Reports one busy-state change of the pool at `Now()`.
  void Transition(int delta_any, int delta_lock) {
    if (busy_union_ != nullptr) {
      busy_union_->Transition(sim_->Now(), delta_any, delta_lock);
    }
  }

  Simulator* sim_;
  std::string name_;
  std::vector<PriorityServer*> members_;  // in the order they joined
  // One bit per member, in join (node) order: set while it has
  // transaction work, so lane events visit only those members.
  std::vector<uint64_t> working_;
  BusyUnionTracker* busy_union_ = nullptr;  // shared by every member
  FcfsRing<Job> queue_;  // the head is in service while busy
  SimTime service_start_ = 0.0;
  double busy_time_ = 0.0;
  uint64_t completed_ = 0;
  // Lifetime conservation counters (never reset; see CheckConsistency).
  uint64_t accepted_ = 0;
  uint64_t finished_ = 0;
};

/// A single-server queue with two priority classes and preemptive-resume
/// discipline, used for both the CPU and the disk of every node.
///
/// * Within a class, jobs are served FCFS. The transaction job in service
///   is the head of its queue: a job submitted to an idle server starts
///   where it was enqueued.
/// * A kLock arrival preempts an in-service kTransaction job; the preempted
///   job keeps its accumulated service and stays in service, suspended,
///   until no lock work remains, then resumes ahead of its queue.
/// * Zero-length jobs are legal and complete immediately (same timestamp).
///
/// The lock class is the server's `LockLane`: its own lane of one for a
/// standalone server, or the lane shared by a pool (`sim::Machine`), where
/// one lock job is served by every member at once.
///
/// The server keeps per-class busy-time accounting, which is exactly what
/// the paper's `totcpus/lockcpus/totios/lockios` outputs aggregate.
class PriorityServer {
 public:
  /// Completion callbacks use the same in-place storage as simulator
  /// events: submitting a job never heap-allocates for the callback.
  using Completion = InlineCallback;

  /// Creates a standalone server that schedules itself on `sim` (not
  /// owned; must outlive the server). `name` is used in diagnostics only.
  PriorityServer(Simulator* sim, std::string name);

  /// Creates a member of `lane`'s pool (not owned; must outlive the
  /// server and share its simulator). Members join in construction order.
  PriorityServer(Simulator* sim, std::string name, LockLane* lane);

  PriorityServer(const PriorityServer&) = delete;
  PriorityServer& operator=(const PriorityServer&) = delete;

  /// Enqueues a job demanding `service` (>= 0) time units in class `cls`;
  /// `on_complete` fires when the job has received its full service. A
  /// kLock job goes to the server's lane, so in a pool it occupies every
  /// member.
  void Submit(ServiceClass cls, SimTime service, Completion on_complete);

  /// Busy time delivered to class `cls` since construction (or the last
  /// `ResetStats`), including the in-progress portion of the current job.
  double BusyTime(ServiceClass cls) const;

  /// Total busy time across all classes.
  double TotalBusyTime() const;

  /// Jobs fully served per class.
  uint64_t CompletedJobs(ServiceClass cls) const;

  /// Zeroes all accounting; an in-progress job keeps its remaining demand
  /// but its pre-reset service is no longer counted. Used to discard a
  /// warmup interval. A standalone server resets its lane too; a pool's
  /// lane is reset by the pool's owner.
  void ResetStats();

  /// Instantaneous queue length of class `cls`, excluding the in-service
  /// job; a transaction job suspended by lock work counts as queued.
  size_t QueueLength(ServiceClass cls) const;

  /// True iff a job is in service.
  bool busy() const { return lane_->busy() || serving_; }

  const std::string& name() const { return name_; }

  /// Wires busy-state transitions into a `BusyUnionTracker` (not owned;
  /// may be null to unwire) to measure pool-level union busy time. Must
  /// be set before the first `Submit`. A lane reports its busy-state
  /// changes once for all its members, so the tracker is the lane's:
  /// wiring one member wires its whole lane, and the members of one lane
  /// must share one tracker.
  void SetBusyUnion(BusyUnionTracker* tracker);

  /// FCFS queue conservation audit: every transaction job ever submitted
  /// is finished, queued, or in service; the in-service job has
  /// non-negative remaining demand; accounting never goes negative. A
  /// standalone server also audits its lane. Unlike `CompletedJobs`, the
  /// conservation counters survive `ResetStats`, so the law holds across
  /// warmup resets. Violations report through `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend class LockLane;        // preempts and resumes its members
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  struct Job {
    SimTime remaining;
    Completion on_complete;
  };

  /// Joins `lane_` as its next member.
  void JoinLane();

  /// Transaction job service.
  void StartNextIfIdle();
  /// Starts serving the head of the queue (which must not be empty) in
  /// place: schedules its completion `remaining` from now.
  void StartHead();
  void FinishCurrent();
  /// The lane turned busy while this member had a job in service: credits
  /// the service it received so far and suspends its completion event.
  void SuspendService();
  /// The lane drained while this member had transaction work: resumes
  /// the suspended job, or starts the head of the queue.
  void ResumeService();
  void NotifyTransition(int delta_any) {
    if (lane_->busy_union_ != nullptr) {
      lane_->busy_union_->Transition(sim_->Now(), delta_any, 0);
    }
  }

  Simulator* sim_;
  std::string name_;
  std::unique_ptr<LockLane> own_lane_;  // standalone servers only
  LockLane* lane_;
  size_t index_ = 0;  // position in the lane, in node order
  // Transaction class, FCFS. While `serving_`, the head is in service;
  // while the lane is busy, that job is suspended.
  FcfsRing<Job> queue_;
  bool serving_ = false;
  bool suspended_ = false;
  SimTime service_start_ = 0.0;
  // Where the in-service job's busy time starts counting: its service
  // start, or the last `ResetStats` if that came later.
  SimTime accounted_from_ = 0.0;
  EventId completion_event_ = 0;
  double busy_time_ = 0.0;
  uint64_t completed_ = 0;
  // Lifetime conservation counters (never reset; see CheckConsistency).
  uint64_t accepted_ = 0;
  uint64_t finished_ = 0;
};

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_PRIORITY_SERVER_H_
