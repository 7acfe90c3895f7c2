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
/// over transaction work. Every engine runs its locking protocol on one
/// `Machine`; the machine itself is the same for all of them.
///
/// Not movable: the servers hold pointers to the simulator and the busy
/// unions.
class Machine {
 public:
  Machine() = default;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Creates the per-node CPU and disk servers, wired into the pool busy
  /// unions. Call once, before the first event.
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

  /// Warm-up discard: zeroes every server's accounting and restarts both
  /// busy-union windows at `Now()`.
  void ResetWindow();

  /// Pays one lock-manager request: `io_per_node` of disk work on every
  /// node, then — once every node has finished its share — `cpu_per_node`
  /// of CPU work on every node, all at preemptive lock priority; then
  /// calls `then()`. A phase without work (<= 0) is skipped, so a free
  /// request calls `then()` before returning.
  ///
  /// `remaining` is the caller's fan-in counter (a transaction field: the
  /// two phases never overlap, so one counter serves both). It must stay
  /// valid until `then` runs. Nothing is allocated: each completion
  /// captures only the counter, the CPU share and `then`, which must be
  /// at most two pointers so the capture fits the inline callback buffer.
  template <typename Then>
  void PayLockCost(int64_t* remaining, double io_per_node,
                   double cpu_per_node, Then then);

 private:
  Simulator sim_;
  std::vector<std::unique_ptr<PriorityServer>> cpu_;
  std::vector<std::unique_ptr<PriorityServer>> io_;
  BusyUnionTracker cpu_union_;
  BusyUnionTracker io_union_;
};

template <typename Then>
void Machine::PayLockCost(int64_t* remaining, double io_per_node,
                          double cpu_per_node, Then then) {
  static_assert(sizeof(Then) <= 2 * sizeof(void*),
                "PayLockCost continuations must stay allocation-free");
  if (io_per_node > 0.0) {
    *remaining = npros();
    for (auto& server : io_) {
      server->Submit(ServiceClass::kLock, io_per_node,
                     [this, remaining, cpu_per_node, then] {
                       if (--*remaining == 0) {
                         PayLockCost(remaining, 0.0, cpu_per_node, then);
                       }
                     });
    }
    return;
  }
  if (cpu_per_node > 0.0) {
    *remaining = npros();
    for (auto& server : cpu_) {
      server->Submit(ServiceClass::kLock, cpu_per_node, [remaining, then] {
        if (--*remaining == 0) then();
      });
    }
    return;
  }
  then();
}

}  // namespace granulock::sim

#endif  // GRANULOCK_SIM_MACHINE_H_
