#ifndef GRANULOCK_SIM_MACHINE_H_
#define GRANULOCK_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/busy_union.h"
#include "sim/priority_server.h"
#include "sim/simulator.h"

namespace granulock::sim {

/// The paper's machine (§2, Figure 1): `npros` shared-nothing nodes, each
/// with an FCFS CPU and disk, driven by one event simulator. Lock-manager
/// work is shared equally by all nodes and served at preemptive priority
/// over transaction work: the CPU pool and the disk pool each have one
/// `LockLane`, which serves a lock job on every node of its pool at once.
/// Every engine runs its locking protocol on one `Machine`; the machine
/// itself is the same for all of them.
///
/// Not movable: the servers hold pointers to the simulator, the lanes and
/// the busy unions.
class Machine {
 public:
  Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Creates the per-node CPU and disk servers, joined to the pool lanes
  /// and wired into the pool busy unions. Call once, before the first
  /// event.
  void Build(int64_t npros);

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  SimTime Now() const { return sim_.Now(); }
  int64_t npros() const { return static_cast<int64_t>(cpu_.size()); }

  PriorityServer& cpu(int64_t node) { return *cpu_[static_cast<size_t>(node)]; }
  PriorityServer& io(int64_t node) { return *io_[static_cast<size_t>(node)]; }
  const PriorityServer& cpu(int64_t node) const {
    return *cpu_[static_cast<size_t>(node)];
  }
  const PriorityServer& io(int64_t node) const {
    return *io_[static_cast<size_t>(node)];
  }
  const BusyUnionTracker& cpu_union() const { return cpu_union_; }
  const BusyUnionTracker& io_union() const { return io_union_; }

  /// Warm-up discard: zeroes every server's and lane's accounting and
  /// restarts both busy-union windows at `Now()`.
  void ResetWindow();

  /// Pays one lock-manager request: `io_per_node` of disk work on every
  /// node, then `cpu_per_node` of CPU work on every node, each phase one
  /// job of its pool's lane at preemptive lock priority; then calls
  /// `then()`. A phase without work (<= 0) is skipped, so a free request
  /// calls `then()` before returning. Nothing is allocated once the
  /// lanes' queues have held their longest backlog: the I/O phase's
  /// completion captures only the CPU share and `then`, which must be at
  /// most two pointers, so both completions fit an `InlineCallback`.
  template <typename Then>
  void PayLockCost(double io_per_node, double cpu_per_node, Then then);

  /// Deep audit of the substrate: the simulator, both lanes and every
  /// server pass their own audits, and each pool's busy union counts
  /// exactly its busy members — all of them on lock work while its lane
  /// is busy, none otherwise. Violations report through
  /// `invariants::Fail`.
  void CheckConsistency() const;

 private:
  friend struct AuditTestPeer;  // invariants_test corrupts state through it

  Simulator sim_;
  LockLane cpu_lane_;
  LockLane io_lane_;
  std::vector<std::unique_ptr<PriorityServer>> cpu_;
  std::vector<std::unique_ptr<PriorityServer>> io_;
  BusyUnionTracker cpu_union_;
  BusyUnionTracker io_union_;
};

template <typename Then>
void Machine::PayLockCost(double io_per_node, double cpu_per_node,
                          Then then) {
  static_assert(sizeof(Then) <= 2 * sizeof(void*),
                "a PayLockCost continuation must fit in two pointers, so "
                "that the I/O phase's completion fits an InlineCallback");
  if (io_per_node > 0.0) {
    io_lane_.Submit(io_per_node, [this, cpu_per_node, then] {
      PayLockCost(0.0, cpu_per_node, then);
    });
    return;
  }
  if (cpu_per_node > 0.0) {
    cpu_lane_.Submit(cpu_per_node, then);
    return;
  }
  then();
}

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_MACHINE_H_
