#ifndef GRANULOCK_CORE_FORK_JOIN_H_
#define GRANULOCK_CORE_FORK_JOIN_H_

#include <cstdint>

#include "core/engine_probe.h"
#include "core/run_stats.h"
#include "sim/machine.h"
#include "util/logging.h"

namespace granulock::core {

/// The fork-join the paper's machine runs for granted work (§2): one
/// sub-transaction per node in `txn->params.nodes`, each doing `io` of
/// disk work then `cpu` of CPU work at transaction priority in its node's
/// FCFS queues. Starts a fork of `txn->clock` now, accumulates every
/// sub-transaction's io and cpu spans into it, reports them to `probe`,
/// and calls `join(txn)` when the last sub-transaction finishes.
///
/// `Txn` provides `id`, `params`, `clock` (a `PhaseClock`),
/// `subtxns_remaining` and `sub_cpu_done`. `join` must be one pointer
/// (typically `[this]`): the completions then fit an `sim::InlineCallback`.
/// A sub-transaction that finds its server idle starts in place, and once
/// every server's queue has held its longest backlog nothing is allocated.
template <typename Txn, typename Join>
void ForkJoin(sim::Machine* machine, EngineProbe* probe, Txn* txn, double io,
              double cpu, Join join) {
  txn->clock.grant_time = machine->Now();
  txn->clock.cpu_done_sum = 0.0;
  txn->subtxns_remaining = txn->params.pu;
  for (int32_t node : txn->params.nodes) {
    auto on_io = [machine, probe, txn, node, cpu, join] {
      const double io_done = machine->Now();
      txn->clock.io_span_sum += io_done - txn->clock.grant_time;
      probe->IoDone(txn->id, node, txn->clock.grant_time);
      auto on_cpu = [machine, probe, txn, node, io_done, join] {
        const double cpu_done = machine->Now();
        txn->clock.cpu_span_sum += cpu_done - io_done;
        txn->clock.cpu_done_sum += cpu_done;
        probe->CpuDone(txn->id, node, io_done, &txn->sub_cpu_done);
        probe->SubTxnDone();
        GRANULOCK_CHECK_GT(txn->subtxns_remaining, 0);
        if (--txn->subtxns_remaining == 0) join(txn);
      };
      machine->cpu(node).Submit(sim::ServiceClass::kTransaction, cpu,
                                on_cpu);
    };
    machine->io(node).Submit(sim::ServiceClass::kTransaction, io, on_io);
  }
}

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_FORK_JOIN_H_
