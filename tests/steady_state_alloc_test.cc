// The hot paths allocate nothing in steady state.
//
// This binary replaces the global allocation functions with counting
// versions over std::malloc/std::free, so it must stay a test binary of
// its own. Three gates:
//
//  * The machine substrate: a few clients on a `sim::Machine` each loop
//    over one lock request (`Machine::PayLockCost`) and one 10-wide
//    `core::ForkJoin` stage. Their stages overlap on the nodes and their
//    requests preempt each other's stages, so servers start jobs while
//    idle, queue them while busy and suspend them for lock work.
//  * The claim-as-needed lock path: a few dozen synthetic transactions on
//    a `lockmgr::WaitQueueLockTable` select their granules, claim them one
//    at a time, queue, are granted, commit and abort, and every block is
//    put to four contention policies.
//
//  After a warm-up, which lets every queue, table and buffer reach its
//  working size, 10,000 further requests must not allocate once.
//
//  * The incremental engine end to end: a run to 2T minus a run to T of
//    the same seed must allocate less than 0.025 times per lock request.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <algorithm>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_probe.h"
#include "core/fork_join.h"
#include "core/run_stats.h"
#include "db/contention_policy.h"
#include "db/granule_selector.h"
#include "db/incremental_simulator.h"
#include "lockmgr/wait_queue_table.h"
#include "model/config.h"
#include "obs/hooks.h"
#include "sim/machine.h"
#include "sim/priority_server.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/workload.h"

namespace {

bool g_counting = false;
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t align) noexcept {
  if (g_counting) ++g_allocations;
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](std::size_t size) {
  return CountedAllocOrThrow(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace granulock {
namespace {

constexpr int64_t kNodes = 16;
constexpr int32_t kStageWidth = 10;
constexpr int kClients = 3;

/// What `core::ForkJoin` needs of a transaction.
struct Txn {
  struct Params {
    int64_t pu = kStageWidth;
    std::vector<int32_t> nodes;
  };
  uint64_t id = 0;
  Params params;
  core::PhaseClock clock;
  int64_t subtxns_remaining = 0;
  std::vector<std::pair<int32_t, double>> sub_cpu_done;
};

/// How often the servers were found in each state at a submission.
struct Coverage {
  int64_t requests = 0;
  int64_t preempting_requests = 0;  // the disk lane suspends busy disks
  int64_t idle_starts = 0;          // a stage's disk job starts in place
  int64_t queued_starts = 0;        // it waits behind busy work
};

/// One client: a lock request, then a stage on 10 of the 16 nodes, again
/// and again. Service times are whole quarters, zero included.
class Client {
 public:
  Client(sim::Machine* machine, core::EngineProbe* probe, Coverage* coverage,
         uint64_t id)
      : machine_(machine), probe_(probe), coverage_(coverage), rng_(id) {
    txn_.id = id;
    txn_.params.nodes.reserve(static_cast<size_t>(kStageWidth));
  }

  void Request() {
    ++coverage_->requests;
    const sim::BusyUnionTracker& disks = machine_->io_union();
    if (disks.lock_count() == 0 && disks.busy_count() > 0) {
      ++coverage_->preempting_requests;
    }
    machine_->PayLockCost(Quarters(1, 2), Quarters(0, 1),
                          [this] { Stage(); });
  }

 private:
  double Quarters(int64_t lo, int64_t hi) {
    return 0.25 * static_cast<double>(rng_.UniformInt(lo, hi));
  }

  void Stage() {
    const int64_t first = rng_.UniformInt(0, kNodes - 1);
    txn_.params.nodes.clear();
    for (int32_t k = 0; k < kStageWidth; ++k) {
      const auto node = static_cast<int32_t>((first + k) % kNodes);
      txn_.params.nodes.push_back(node);
      if (machine_->io(node).busy()) {
        ++coverage_->queued_starts;
      } else {
        ++coverage_->idle_starts;
      }
    }
    core::ForkJoin(machine_, probe_, &txn_, Quarters(0, 4), Quarters(0, 2),
                   [this](Txn*) { Request(); });
  }

  sim::Machine* machine_;
  core::EngineProbe* probe_;
  Coverage* coverage_;
  Rng rng_;
  Txn txn_;
};

TEST(SteadyStateAllocTest, LockRequestsAndStagesAllocateNothing) {
  sim::Machine machine;
  machine.Build(kNodes);
  core::EngineProbe probe(obs::Hooks{}, nullptr);
  Coverage coverage;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(&machine, &probe, &coverage,
                                               static_cast<uint64_t>(c + 1)));
  }
  for (auto& client : clients) client->Request();

  auto run_requests = [&](int64_t n) {
    const int64_t target = coverage.requests + n;
    while (coverage.requests < target && machine.sim().Step()) {
    }
    return coverage.requests >= target;
  };
  // Warm-up: the queues and the calendar reach their working sizes.
  ASSERT_TRUE(run_requests(2000));
  const Coverage warm = coverage;

  g_allocations = 0;
  g_counting = true;
  const bool ran = run_requests(10000);
  g_counting = false;

  ASSERT_TRUE(ran);
  EXPECT_EQ(g_allocations, 0);
  // The measured requests covered every path a server job takes.
  EXPECT_GT(coverage.preempting_requests, warm.preempting_requests);
  EXPECT_GT(coverage.idle_starts, warm.idle_starts);
  EXPECT_GT(coverage.queued_starts, warm.queued_starts);
  machine.CheckConsistency();
}

// --- The claim-as-needed lock path ------------------------------------

using lockmgr::LockMode;
using lockmgr::TxnId;
using lockmgr::WaitQueueLockTable;

/// A directory in which nobody has restarted or is doomed.
class QuietDirectory final : public db::TxnDirectory {
 public:
  int64_t RestartsOf(TxnId) const override { return 0; }
  bool IsDoomed(TxnId) const override { return false; }
};

/// What the measured lock requests exercised.
struct LockPathCoverage {
  int64_t requests = 0;
  int64_t blocks = 0;         // a request queued
  int64_t cycles = 0;         // detect found the requester on a cycle
  int64_t queued_grants = 0;  // a release or abort granted a waiter
  int64_t commits = 0;
  int64_t aborts = 0;
};

/// Claim-as-needed transactions in the style of `db::IncrementalSimulator`
/// on a 100-granule table: worst-placement granule sets of 1 to 20,
/// claimed in random order, a quarter of them in S mode. Each step picks a
/// transaction at random. A running one claims its next granule, or
/// commits after its last; a queued one aborts half the time and waits
/// otherwise. Every block is put to `detect`, `wait_die`, `wait_depth`
/// and `wound_wait`; a cycle is broken by aborting the requester, as
/// under `detect`. Every commit and abort restarts the transaction under
/// a fresh id.
class LockPathDriver {
 public:
  static constexpr int64_t kGranules = 100;
  static constexpr int kTxns = 40;
  static constexpr int64_t kMaxSize = 20;

  LockPathDriver() : table_(kGranules), rng_(11), txns_(kTxns) {
    for (const auto kind : {db::ContentionPolicyKind::kDetectRequester,
                            db::ContentionPolicyKind::kWaitDie,
                            db::ContentionPolicyKind::kWaitDepth,
                            db::ContentionPolicyKind::kWoundWait}) {
      policies_.push_back(db::MakeContentionPolicy(kind));
    }
    // The driver's own buffers: at most kTxns grants, twice that many
    // blockers before wound-wait de-duplicates them, and the sampler's
    // ~3k + 8 elements for k <= kMaxSize.
    grants_.reserve(kTxns);
    victims_.reserve(2 * kTxns);
    for (ClaimTxn& txn : txns_) {
      txn.granules.reserve(4 * kMaxSize + 8);
      Restart(&txn);
    }
  }

  /// Takes the table to the largest population these transactions can
  /// make, so that no later step can be the first to need more room:
  /// every transaction holds every granule in S at once, then granule by
  /// granule one holds it in X while all the others queue for it. (Each
  /// granule's holder list and queue, each slot's held list, the index
  /// and the slot count only grow, and a random run reaches some of their
  /// largest sizes only rarely.)
  void Prime() {
    TxnId id = 1u << 30;  // apart from the ids the steps use
    for (int t = 0; t < kTxns; ++t) {
      for (int64_t g = 0; g < kGranules; ++g) {
        table_.Acquire(id + t, g, LockMode::kS);
      }
    }
    for (int t = 0; t < kTxns; ++t) table_.ReleaseAll(id + t, &grants_);
    id += kTxns;
    for (int64_t g = 0; g < kGranules; ++g) {
      for (int t = 0; t < kTxns; ++t) table_.Acquire(id + t, g, LockMode::kX);
      for (int t = kTxns - 1; t >= 0; --t) table_.Abort(id + t, &grants_);
      id += kTxns;
    }
    grants_.clear();
    GRANULOCK_CHECK(table_.Empty());
  }

  /// Steps until `n` more lock requests have been made.
  void RunRequests(int64_t n) {
    const int64_t target = coverage_.requests + n;
    while (coverage_.requests < target) Step();
  }

  const LockPathCoverage& coverage() const { return coverage_; }
  const WaitQueueLockTable& table() const { return table_; }

 private:
  struct ClaimTxn {
    TxnId id = 0;
    std::vector<int64_t> granules;
    size_t next = 0;
    LockMode mode = LockMode::kX;
    bool queued = false;
  };

  void Restart(ClaimTxn* txn) {
    txn->id = next_id_++;
    db::SelectGranules(model::Placement::kWorst, /*dbsize=*/5000, kGranules,
                       rng_.UniformInt(1, kMaxSize), rng_, &txn->granules);
    rng_.Shuffle(txn->granules);
    txn->next = 0;
    txn->mode = rng_.Bernoulli(0.25) ? LockMode::kS : LockMode::kX;
    txn->queued = false;
  }

  void Step() {
    ClaimTxn& txn = txns_[static_cast<size_t>(rng_.UniformInt(0, kTxns - 1))];
    grants_.clear();
    if (txn.queued) {
      if (rng_.Bernoulli(0.5)) return;  // keeps waiting
      Abort(&txn);
    } else if (txn.next == txn.granules.size()) {
      table_.ReleaseAll(txn.id, &grants_);
      ++coverage_.commits;
      Restart(&txn);
    } else {
      Claim(&txn);
    }
    coverage_.queued_grants += static_cast<int64_t>(grants_.size());
    for (const TxnId id : grants_) {
      for (ClaimTxn& waiter : txns_) {
        if (waiter.id != id) continue;
        waiter.queued = false;
        ++waiter.next;
      }
    }
  }

  void Claim(ClaimTxn* txn) {
    ++coverage_.requests;
    const int64_t granule = txn->granules[txn->next];
    if (table_.Acquire(txn->id, granule, txn->mode) ==
        WaitQueueLockTable::AcquireResult::kGranted) {
      ++txn->next;
      return;
    }
    txn->queued = true;
    ++coverage_.blocks;
    const db::ConflictRequest req{txn->id, granule, txn->mode};
    bool cycle = false;
    for (const auto& policy : policies_) {
      policy->OnBlock(req, table_, directory_, &victims_);
      if (policy->kind() == db::ContentionPolicyKind::kDetectRequester) {
        cycle = !victims_.empty();
      }
    }
    if (cycle) {
      ++coverage_.cycles;
      Abort(txn);
    }
  }

  void Abort(ClaimTxn* txn) {
    table_.Abort(txn->id, &grants_);
    ++coverage_.aborts;
    Restart(txn);
  }

  WaitQueueLockTable table_;
  Rng rng_;
  std::vector<ClaimTxn> txns_;
  std::vector<std::unique_ptr<db::ContentionPolicy>> policies_;
  QuietDirectory directory_;
  std::vector<TxnId> grants_;
  std::vector<TxnId> victims_;
  TxnId next_id_ = 1;
  LockPathCoverage coverage_;
};

TEST(SteadyStateAllocTest, LockPathAllocatesNothing) {
  LockPathDriver driver;
  // Warm-up: the table is primed to its largest population, then random
  // steps give the policies' scratch its working size.
  driver.Prime();
  driver.RunRequests(20000);
  driver.table().CheckConsistency();
  const LockPathCoverage warm = driver.coverage();

  g_allocations = 0;
  g_counting = true;
  driver.RunRequests(10000);
  g_counting = false;

  EXPECT_EQ(g_allocations, 0);
  // The measured requests covered every path a lock request takes.
  const LockPathCoverage& done = driver.coverage();
  EXPECT_GT(done.blocks, warm.blocks);
  EXPECT_GT(done.cycles, warm.cycles);
  EXPECT_GT(done.queued_grants, warm.queued_grants);
  EXPECT_GT(done.commits, warm.commits);
  EXPECT_GT(done.aborts, warm.aborts);
  driver.table().CheckConsistency();
}

// --- The incremental engine ------------------------------------------

/// Allocations per lock request made between simulated times `tmax` and
/// `2 * tmax` of one of perfbench's `incremental_2pl` cells (seed 7): a
/// run to 2T minus a run to T, which cancels the setup both share.
double EngineAllocationsPerRequest(db::ContentionPolicyKind policy,
                                   int64_t mpl, double tmax) {
  model::SystemConfig cfg = model::SystemConfig::Table1Defaults();
  cfg.ltot = 100;
  cfg.maxtransize = 20;
  cfg.think_time = 5.0;
  cfg.ntrans = mpl;
  workload::WorkloadSpec spec = workload::WorkloadSpec::Base(cfg);
  spec.placement = model::Placement::kWorst;
  db::IncrementalSimulator::Options options;
  options.contention.policy = policy;
  struct Count {
    int64_t allocations = 0;
    int64_t requests = 0;
  };
  const auto run = [&](double t) {
    cfg.tmax = t;
    g_allocations = 0;
    g_counting = true;
    const auto metrics =
        db::IncrementalSimulator::RunOnce(cfg, spec, /*seed=*/7, options);
    g_counting = false;
    EXPECT_TRUE(metrics.ok());
    return Count{g_allocations, metrics.ok() ? metrics->lock_requests : 0};
  };
  const Count shorter = run(tmax);
  const Count longer = run(2 * tmax);
  const int64_t requests = longer.requests - shorter.requests;
  EXPECT_GT(requests, 0);
  return static_cast<double>(longer.allocations - shorter.allocations) /
         static_cast<double>(std::max<int64_t>(requests, 1));
}

TEST(SteadyStateAllocTest, IncrementalEngineAllocatesRarelyPerRequest) {
  for (const auto policy : {db::ContentionPolicyKind::kDetectRequester,
                            db::ContentionPolicyKind::kWaitDie,
                            db::ContentionPolicyKind::kWaitDepth}) {
    for (const int64_t mpl : {8, 64}) {
      const double per_request =
          EngineAllocationsPerRequest(policy, mpl, /*tmax=*/250.0);
      EXPECT_LT(per_request, 0.025)
          << db::ContentionPolicyName(policy) << " at MPL " << mpl;
      RecordProperty(std::string(db::ContentionPolicyName(policy)) +
                         "_mpl" + std::to_string(mpl),
                     std::to_string(per_request));
    }
  }
}

TEST(SteadyStateAllocTest, CounterSeesAllocations) {
  // The replaced allocation functions are the ones in use. (Called by
  // name: a new-expression's allocation may be elided.)
  g_allocations = 0;
  g_counting = true;
  void* one = ::operator new(24);
  void* many = ::operator new[](240);
  g_counting = false;
  ::operator delete(one);
  ::operator delete[](many);
  EXPECT_EQ(g_allocations, 2);
}

}  // namespace
}  // namespace granulock
