// google-benchmark microbenchmarks for the simulation substrate: the
// event engine, the preemptive-priority server, the machine's lock lanes
// and fork-join stages, the lock managers, and the analytic model
// pieces. These quantify the cost of the building blocks that the figure
// benches exercise millions of times.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine_probe.h"
#include "core/experiment.h"
#include "core/fork_join.h"
#include "core/granularity_simulator.h"
#include "core/parallel_runner.h"
#include "db/contention_policy.h"
#include "db/granule_selector.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_table.h"
#include "lockmgr/wait_queue_table.h"
#include "lockmgr/waits_for.h"
#include "model/conflict.h"
#include "model/placement.h"
#include "obs/hooks.h"
#include "sim/busy_union.h"
#include "sim/machine.h"
#include "sim/priority_server.h"
#include "sim/stats.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace granulock {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  const int64_t batch = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    for (int64_t i = 0; i < batch; ++i) {
      sim.ScheduleAt(static_cast<double>(i % 97), [] {});
    }
    sim.RunUntilEmpty();
    benchmark::DoNotOptimize(sim.ExecutedEvents());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(10000);

void BM_CalendarQueueChurn(benchmark::State& state) {
  // The calendar queue's steady state: range(0) events in flight with
  // random-offset reschedule churn. The engines' own queues peak at a few
  // hundred live events (docs/PERFORMANCE.md); the 16k size probes how the
  // queue scales beyond them. Each iteration pops the next
  // event and schedules a replacement at now + U[0, 10), so the queue
  // holds `live` events forever while the clock advances — bucket rotation,
  // bottom-rung refills, and width recalibration all on the hot path.
  const int64_t live = state.range(0);
  sim::Simulator sim;
  Rng rng(1);
  for (int64_t i = 0; i < live; ++i) {
    sim.ScheduleAt(rng.UniformDouble(0.0, 10.0), [] {});
  }
  for (auto _ : state) {
    sim.Step();
    sim.ScheduleAt(sim.Now() + rng.UniformDouble(0.0, 10.0), [] {});
  }
  benchmark::DoNotOptimize(sim.ExecutedEvents());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarQueueChurn)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PriorityServerThroughput(benchmark::State& state) {
  const int64_t jobs = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    sim::PriorityServer server(&sim, "bench");
    for (int64_t i = 0; i < jobs; ++i) {
      server.Submit(i % 3 == 0 ? sim::ServiceClass::kLock
                               : sim::ServiceClass::kTransaction,
                    0.5, [] {});
    }
    sim.RunUntilEmpty();
    benchmark::DoNotOptimize(server.TotalBusyTime());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_PriorityServerThroughput)->Arg(1000);

void BM_PayLockCost(benchmark::State& state) {
  // One lock-manager request on a machine of range(0) nodes, every node
  // busy on transaction work: each phase preempts and resumes every node's
  // job through its pool's lock lane. items/sec counts requests.
  const int64_t npros = state.range(0);
  sim::Machine machine;
  machine.Build(npros);
  for (int64_t n = 0; n < npros; ++n) {
    // Far longer than the run: the jobs stay resident, and no simulated
    // time passes between requests, so they never progress.
    machine.io(n).Submit(sim::ServiceClass::kTransaction, 1e12, [] {});
    machine.cpu(n).Submit(sim::ServiceClass::kTransaction, 1e12, [] {});
  }
  int64_t paid = 0;
  for (auto _ : state) {
    const int64_t target = paid + 1;
    machine.PayLockCost(0.01, 0.01, [&paid] { ++paid; });
    while (paid < target) machine.sim().Step();
  }
  benchmark::DoNotOptimize(machine.sim().ExecutedEvents());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayLockCost)->Arg(1)->Arg(10)->Arg(30);

void BM_LanePreemption(benchmark::State& state) {
  // One lock job on a lane of range(0) members, each with a long
  // transaction job in service: the job preempts every member when the
  // lane turns busy and resumes it when the lane drains. Simulated time
  // passes, so the members' jobs progress between lock jobs but never
  // finish. items/sec counts lock jobs.
  const int64_t npros = state.range(0);
  sim::Simulator sim;
  sim::LockLane lane(&sim, "bench");
  sim::BusyUnionTracker pool_union;
  std::vector<std::unique_ptr<sim::PriorityServer>> members;
  for (int64_t n = 0; n < npros; ++n) {
    members.push_back(std::make_unique<sim::PriorityServer>(&sim, "m", &lane));
    members.back()->SetBusyUnion(&pool_union);
    members.back()->Submit(sim::ServiceClass::kTransaction, 1e12, [] {});
  }
  int64_t served = 0;
  for (auto _ : state) {
    lane.Submit(0.01, [&served] { ++served; });
    sim.Step();  // the lane job's completion: the soonest event
  }
  if (served != state.iterations()) state.SkipWithError("lane job not served");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LanePreemption)->Arg(1)->Arg(10)->Arg(30);

/// A granted stage of one transaction on a machine, as the engines run
/// it: a lock request, then `core::ForkJoin` over every node.
struct ForkJoinStage {
  struct Txn {
    struct Params {
      int64_t pu = 0;
      std::vector<int32_t> nodes;
    };
    uint64_t id = 1;
    Params params;
    core::PhaseClock clock;
    int64_t subtxns_remaining = 0;
    std::vector<std::pair<int32_t, double>> sub_cpu_done;
  };

  explicit ForkJoinStage(int64_t npros) {
    machine.Build(npros);
    txn.params.pu = npros;
    for (int64_t n = 0; n < npros; ++n) {
      txn.params.nodes.push_back(static_cast<int32_t>(n));
    }
  }

  void Run() {
    machine.PayLockCost(0.01, 0.01, [this] {
      core::ForkJoin(&machine, &probe, &txn, 0.02, 0.01,
                     [this](Txn*) { ++stages; });
    });
  }

  sim::Machine machine;
  core::EngineProbe probe{obs::Hooks{}, nullptr};
  Txn txn;
  int64_t stages = 0;
};

void BM_ForkJoinStage(benchmark::State& state) {
  // One lock request (a disk and a CPU lane job), then a range(0)-wide
  // fork-join: a disk job then a CPU job on every node, each starting on
  // an idle server. items/sec counts stages.
  ForkJoinStage stage(state.range(0));
  for (auto _ : state) {
    const int64_t target = stage.stages + 1;
    stage.Run();
    while (stage.stages < target) stage.machine.sim().Step();
  }
  benchmark::DoNotOptimize(stage.machine.sim().ExecutedEvents());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForkJoinStage)->Arg(1)->Arg(10)->Arg(30);

void BM_LockTableAcquireRelease(benchmark::State& state) {
  const int64_t locks_per_txn = state.range(0);
  lockmgr::LockTable table(5000);
  Rng rng(1);
  lockmgr::TxnId txn = 1;
  for (auto _ : state) {
    std::vector<lockmgr::LockRequest> reqs;
    reqs.reserve(static_cast<size_t>(locks_per_txn));
    const int64_t start = rng.UniformInt(0, 5000 - locks_per_txn);
    for (int64_t i = 0; i < locks_per_txn; ++i) {
      reqs.push_back({start + i, lockmgr::LockMode::kX});
    }
    auto blocker = table.TryAcquireAll(txn, reqs);
    benchmark::DoNotOptimize(blocker);
    table.ReleaseAll(txn);
    ++txn;
  }
  state.SetItemsProcessed(state.iterations() * locks_per_txn);
}
BENCHMARK(BM_LockTableAcquireRelease)->Arg(10)->Arg(100);

void BM_HierarchicalAcquireRelease(benchmark::State& state) {
  lockmgr::HierarchicalLockManager::Options opts;
  opts.num_granules = 5000;
  opts.num_files = 50;
  lockmgr::HierarchicalLockManager mgr(opts);
  Rng rng(1);
  lockmgr::TxnId txn = 1;
  for (auto _ : state) {
    std::vector<lockmgr::HierRequest> reqs;
    const int64_t start = rng.UniformInt(0, 4900);
    for (int64_t i = 0; i < 20; ++i) {
      reqs.push_back(
          {lockmgr::ObjectId::Granule(start + i), lockmgr::LockMode::kX});
    }
    auto blocker = mgr.TryAcquireAll(txn, reqs);
    benchmark::DoNotOptimize(blocker);
    mgr.ReleaseAll(txn);
    ++txn;
  }
}
BENCHMARK(BM_HierarchicalAcquireRelease);

/// Claim-as-needed transactions on a 100-granule table, as the
/// incremental engine runs them under `incremental_2pl`: worst-placement
/// sets of 1 to 20 granules claimed one at a time in X. In turn, each
/// claims its next granule, commits after its last, or, when its turn
/// finds it queued, aborts; either way it restarts under a fresh id.
class ClaimChurn {
 public:
  explicit ClaimChurn(int64_t txns)
      : table_(kGranules), rng_(1), txns_(static_cast<size_t>(txns)) {
    for (Claimer& t : txns_) Restart(&t);
  }

  /// One turn of the next transaction; true when it requested a lock.
  bool Turn() {
    Claimer& t = txns_[turn_++ % txns_.size()];
    grants_.clear();
    bool requested = false;
    if (t.queued) {
      table_.Abort(t.id, &grants_);
      Restart(&t);
    } else if (t.next == t.granules.size()) {
      table_.ReleaseAll(t.id, &grants_);
      Restart(&t);
    } else {
      requested = true;
      if (table_.Acquire(t.id, t.granules[t.next], lockmgr::LockMode::kX) ==
          lockmgr::WaitQueueLockTable::AcquireResult::kGranted) {
        ++t.next;
      } else {
        t.queued = true;
      }
    }
    for (const lockmgr::TxnId id : grants_) {
      for (Claimer& waiter : txns_) {
        if (waiter.id != id) continue;
        waiter.queued = false;
        ++waiter.next;
      }
    }
    return requested;
  }

  /// Turns without aborts until `waiters` transactions queue (or a
  /// budget of turns runs out), leaving hold-and-wait chains in place.
  void BuildWaits(int64_t waiters) {
    for (int i = 0; i < 100000 && table_.WaitingCount() < waiters; ++i) {
      Claimer& t = txns_[turn_++ % txns_.size()];
      if (t.queued || t.next == t.granules.size()) continue;
      if (table_.Acquire(t.id, t.granules[t.next], lockmgr::LockMode::kX) ==
          lockmgr::WaitQueueLockTable::AcquireResult::kGranted) {
        ++t.next;
      } else {
        t.queued = true;
      }
    }
  }

  const lockmgr::WaitQueueLockTable& table() const { return table_; }

 private:
  static constexpr int64_t kGranules = 100;
  struct Claimer {
    lockmgr::TxnId id = 0;
    std::vector<int64_t> granules;
    size_t next = 0;
    bool queued = false;
  };

  void Restart(Claimer* t) {
    t->id = next_id_++;
    db::SelectGranules(model::Placement::kWorst, 5000, kGranules,
                       rng_.UniformInt(1, 20), rng_, &t->granules);
    rng_.Shuffle(t->granules);
    t->next = 0;
    t->queued = false;
  }

  lockmgr::WaitQueueLockTable table_;
  Rng rng_;
  std::vector<Claimer> txns_;
  std::vector<lockmgr::TxnId> grants_;
  lockmgr::TxnId next_id_ = 1;
  size_t turn_ = 0;
};

void BM_QueuedLockChurn(benchmark::State& state) {
  ClaimChurn churn(state.range(0));
  int64_t requests = 0;
  for (auto _ : state) {
    requests += churn.Turn() ? 1 : 0;
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_QueuedLockChurn)->Arg(64);

/// A directory in which nobody has restarted or is doomed.
class QuietDirectory final : public db::TxnDirectory {
 public:
  int64_t RestartsOf(lockmgr::TxnId) const override { return 0; }
  bool IsDoomed(lockmgr::TxnId) const override { return false; }
};

void BM_DetectOnBlock(benchmark::State& state) {
  // The `detect` policy's cycle question for each waiter of a table in
  // which half of `mpl` claiming transactions wait while holding.
  const int64_t mpl = state.range(0);
  ClaimChurn churn(mpl);
  churn.BuildWaits(mpl / 2);
  std::vector<db::ConflictRequest> blocked;
  for (const auto& [waiter, granule] : churn.table().WaitingRequests()) {
    blocked.push_back({waiter, granule, lockmgr::LockMode::kX});
  }
  if (blocked.empty()) {
    state.SkipWithError("no transaction waits");
    return;
  }
  const auto policy =
      db::MakeContentionPolicy(db::ContentionPolicyKind::kDetectRequester);
  const QuietDirectory directory;
  std::vector<lockmgr::TxnId> victims;
  size_t next = 0;
  for (auto _ : state) {
    policy->OnBlock(blocked[next++ % blocked.size()], churn.table(),
                    directory, &victims);
    benchmark::DoNotOptimize(victims.data());
  }
  state.counters["waiters"] = static_cast<double>(blocked.size());
}
BENCHMARK(BM_DetectOnBlock)->Arg(8)->Arg(64);

void BM_YaoExpectedGranules(benchmark::State& state) {
  const int64_t nu = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::YaoExpectedGranules(5000, 100, nu));
  }
}
BENCHMARK(BM_YaoExpectedGranules)->Arg(25)->Arg(250)->Arg(2500);

void BM_VectorizedYao(benchmark::State& state) {
  // Whole-sweep Yao evaluation (one incremental product across nu =
  // 1..max_nu) vs. the per-nu scalar restarts BM_YaoExpectedGranules
  // measures. items/sec counts nu values, so the two benchmarks are
  // directly comparable; the sweep amortizes the product to O(1) per nu.
  const int64_t max_nu = state.range(0);
  std::vector<double> out(static_cast<size_t>(max_nu));
  for (auto _ : state) {
    model::YaoExpectedGranulesSweep(5000, 100, max_nu, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * max_nu);
}
BENCHMARK(BM_VectorizedYao)->Arg(25)->Arg(250)->Arg(2500);

void BM_ConflictDraw(benchmark::State& state) {
  model::ConflictModel conflict(5000);
  Rng rng(1);
  std::vector<int64_t> active(static_cast<size_t>(state.range(0)), 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conflict.DrawBlocker(active, rng));
  }
}
BENCHMARK(BM_ConflictDraw)->Arg(10)->Arg(200);

void BM_SelectGranulesRandom(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::SelectGranules(model::Placement::kRandom,
                                                5000, 100, state.range(0),
                                                rng));
  }
}
BENCHMARK(BM_SelectGranulesRandom)->Arg(25)->Arg(250);

void BM_SelectGranulesWorst(benchmark::State& state) {
  // The engines' path: worst placement into a reused buffer, as the
  // incremental engine draws it (ltot 100, up to 20 granules) and at the
  // largest worst-placement set the figure benches draw.
  Rng rng(1);
  std::vector<int64_t> granules;
  for (auto _ : state) {
    db::SelectGranules(model::Placement::kWorst, 5000, state.range(0),
                       state.range(1), rng, &granules);
    benchmark::DoNotOptimize(granules.data());
  }
}
BENCHMARK(BM_SelectGranulesWorst)->Args({100, 20})->Args({5000, 500});

void BM_FullSimulationShort(benchmark::State& state) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 500.0;
  cfg.ltot = state.range(0);
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto result = core::GranularitySimulator::RunOnce(cfg, spec, seed++);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSimulationShort)->Arg(1)->Arg(100)->Arg(5000);

void BM_RunReplicatedParallel(benchmark::State& state) {
  // End-to-end replication fan-out through ParallelRunner. Thread count is
  // the benchmark argument; 1 uses the serial inline path. On a
  // single-core host all counts measure the same work plus pool overhead;
  // with N cores the speedup approaches min(N, replications). Timed in
  // wall-clock time: the main thread mostly waits on the workers, so its
  // CPU time would inflate items/s with the thread count.
  const int threads = static_cast<int>(state.range(0));
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.tmax = 500.0;
  const workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  core::ParallelRunner runner(threads);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto result = core::RunReplicated(cfg, spec, seed++, /*replications=*/8,
                                      {}, &runner);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_RunReplicatedParallel)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(5000, 0.99);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_QuantileEstimatorAdd(benchmark::State& state) {
  sim::QuantileEstimator quantiles(4096);
  Rng rng(1);
  for (auto _ : state) {
    quantiles.Add(rng.NextDouble());
  }
  benchmark::DoNotOptimize(quantiles.Quantile(0.99));
}
BENCHMARK(BM_QuantileEstimatorAdd);

void BM_WaitsForCycleCheck(benchmark::State& state) {
  // A 50-node chain with a closing back-edge: worst-case full traversal.
  lockmgr::WaitsForGraph graph;
  for (lockmgr::TxnId i = 0; i < 50; ++i) graph.AddWait(i, i + 1);
  graph.AddWait(50, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.FindCycleFrom(0));
  }
}
BENCHMARK(BM_WaitsForCycleCheck);

}  // namespace
}  // namespace granulock

BENCHMARK_MAIN();
