// Model-checked fuzzing for the hierarchical (MGL) lock manager and the
// wait-queue lock table: random operation sequences are mirrored against
// simple reference models, and the semantics are compared step by step.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "db/contention_policy.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/wait_queue_table.h"
#include "sim/invariants.h"
#include "util/random.h"

namespace granulock::lockmgr {
namespace {

// ---------------------------------------------------------------------
// Hierarchical manager vs a brute-force reference: a request set is
// grantable iff, for every granule it touches in X (S), no other live
// transaction touches that granule in any (X) mode — computed straight
// from each transaction's leaf-level intent, ignoring the hierarchy.
// MGL with correct intention locks must agree with this leaf-level truth
// whenever no transaction holds coarse locks (all requests are leaf
// requests), which is the property fuzzed here.
// ---------------------------------------------------------------------

class HierFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HierFuzzTest, LeafRequestsMatchLeafLevelTruth) {
  constexpr int64_t kGranules = 40;
  HierarchicalLockManager::Options opts;
  opts.num_granules = kGranules;
  opts.num_files = 4;
  HierarchicalLockManager mgr(opts);
  Rng rng(GetParam());

  struct LiveTxn {
    std::vector<int64_t> granules;
    LockMode mode;
  };
  std::map<TxnId, LiveTxn> live;
  TxnId next_txn = 1;

  for (int step = 0; step < 1500; ++step) {
    if (rng.Bernoulli(0.65)) {
      // New transaction requests a random granule set in S or X.
      const int64_t k = rng.UniformInt(1, 6);
      std::vector<int64_t> granules;
      rng.SampleWithoutReplacement(kGranules, k, &granules);
      const LockMode mode = rng.Bernoulli(0.5) ? LockMode::kX : LockMode::kS;
      std::vector<HierRequest> requests;
      for (int64_t g : granules) {
        requests.push_back({ObjectId::Granule(g), mode});
      }
      // Reference verdict from leaf-level intent.
      bool expect_conflict = false;
      for (const auto& [other_id, other] : live) {
        for (int64_t g : granules) {
          const bool overlap =
              std::binary_search(other.granules.begin(),
                                 other.granules.end(), g);
          if (overlap && !Compatible(other.mode, mode)) {
            expect_conflict = true;
          }
        }
      }
      const auto blocker = mgr.TryAcquireAll(next_txn, requests);
      ASSERT_EQ(blocker.has_value(), expect_conflict)
          << "step " << step << " txn " << next_txn;
      if (!blocker) {
        live.emplace(next_txn,
                     LiveTxn{{granules.begin(), granules.end()}, mode});
      }
      ++next_txn;
    } else if (!live.empty()) {
      // Release a random live transaction.
      auto it = live.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(live.size()) - 1));
      mgr.ReleaseAll(it->first);
      live.erase(it);
    }
    if (live.empty()) {
      ASSERT_TRUE(mgr.Empty()) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierFuzzTest,
                         ::testing::Values<uint64_t>(10, 20, 30, 40));

// ---------------------------------------------------------------------
// Wait-queue table vs a queueing reference: X-only operations with FIFO
// grants, checked after every operation.
// ---------------------------------------------------------------------

class WaitQueueFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WaitQueueFuzzTest, FifoGrantSemanticsMatchReference) {
  constexpr int64_t kGranules = 12;
  WaitQueueLockTable table(kGranules);
  Rng rng(GetParam());

  // Reference model: per-granule owner and FIFO waiter queue.
  std::vector<int64_t> owner(kGranules, -1);
  std::vector<std::vector<TxnId>> queue(kGranules);
  std::map<TxnId, std::vector<int64_t>> held;
  std::map<TxnId, int64_t> waiting_on;
  TxnId next_txn = 1;

  auto ref_grant_front = [&](int64_t g, std::vector<TxnId>* granted) {
    while (owner[static_cast<size_t>(g)] < 0 &&
           !queue[static_cast<size_t>(g)].empty()) {
      const TxnId w = queue[static_cast<size_t>(g)].front();
      queue[static_cast<size_t>(g)].erase(
          queue[static_cast<size_t>(g)].begin());
      owner[static_cast<size_t>(g)] = static_cast<int64_t>(w);
      held[w].push_back(g);
      waiting_on.erase(w);
      granted->push_back(w);
      break;  // X locks: exactly one grant per free-up
    }
  };

  for (int step = 0; step < 1500; ++step) {
    const int64_t action = rng.UniformInt(0, 2);
    if (action == 0) {
      // Acquire: a transaction with no pending wait asks for one granule.
      const TxnId txn = next_txn++;
      const int64_t g = rng.UniformInt(0, kGranules - 1);
      const auto result = table.Acquire(txn, g, LockMode::kX);
      if (owner[static_cast<size_t>(g)] < 0 &&
          queue[static_cast<size_t>(g)].empty()) {
        ASSERT_EQ(result, WaitQueueLockTable::AcquireResult::kGranted)
            << "step " << step;
        owner[static_cast<size_t>(g)] = static_cast<int64_t>(txn);
        held[txn].push_back(g);
      } else {
        ASSERT_EQ(result, WaitQueueLockTable::AcquireResult::kQueued)
            << "step " << step;
        queue[static_cast<size_t>(g)].push_back(txn);
        waiting_on[txn] = g;
      }
    } else if (action == 1 && !held.empty()) {
      // Release a random holder (that is not also waiting — mirrors the
      // engines, which only release transactions that are running).
      std::vector<TxnId> candidates;
      for (const auto& [txn, granules] : held) {
        if (waiting_on.find(txn) == waiting_on.end()) {
          candidates.push_back(txn);
        }
      }
      if (candidates.empty()) continue;
      const TxnId victim = candidates[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(candidates.size()) - 1))];
      const auto granted = table.ReleaseAll(victim);
      std::vector<TxnId> expected;
      for (int64_t g : held[victim]) {
        owner[static_cast<size_t>(g)] = -1;
        ref_grant_front(g, &expected);
      }
      held.erase(victim);
      ASSERT_EQ(granted, expected) << "step " << step;
    } else if (!waiting_on.empty()) {
      // Abort a random waiter.
      auto it = waiting_on.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(waiting_on.size()) - 1));
      const TxnId victim = it->first;
      const int64_t g = it->second;
      const auto granted = table.Abort(victim);
      auto& q = queue[static_cast<size_t>(g)];
      q.erase(std::find(q.begin(), q.end(), victim));
      std::vector<TxnId> expected;
      ref_grant_front(g, &expected);
      for (int64_t held_g : held[victim]) {
        owner[static_cast<size_t>(held_g)] = -1;
        ref_grant_front(held_g, &expected);
      }
      held.erase(victim);
      waiting_on.erase(victim);
      ASSERT_EQ(granted, expected) << "step " << step;
    }
    // Global invariant: waiting counts agree.
    int64_t ref_waiting = 0;
    for (const auto& q : queue) {
      ref_waiting += static_cast<int64_t>(q.size());
    }
    ASSERT_EQ(table.WaitingCount(), ref_waiting) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitQueueFuzzTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------
// Wait-queue table vs a reference model where cycles form: transactions
// claim several granules one at a time in S or X, some upgrade an S lock
// to X, and they keep what they hold while they wait. After every
// operation the grants, every granule's holders (order and mode) and
// queue, and the wait count must match the model, the audit must pass,
// and for every waiter the table's cycle walk must agree with a search
// of the rebuilt waits-for graph.
// ---------------------------------------------------------------------

/// The wait-queue discipline stated over plain containers.
class QueueModel {
 public:
  using Entry = std::pair<TxnId, LockMode>;

  explicit QueueModel(int64_t granules)
      : holders_(static_cast<size_t>(granules)),
        queues_(static_cast<size_t>(granules)) {}

  bool Acquire(TxnId txn, int64_t g, LockMode mode) {
    const LockMode held = HeldMode(txn, g);
    if (held != LockMode::kNL && Covers(held, mode)) return true;
    if (Queue(g).empty() && Grantable(g, txn, mode)) {
      Grant(g, txn, mode);
      return true;
    }
    MutableQueue(g).emplace_back(txn, mode);
    queued_on_[txn] = g;
    return false;
  }

  std::vector<TxnId> ReleaseAll(TxnId txn) {
    std::vector<TxnId> granted;
    Release(txn, &granted);
    return granted;
  }

  std::vector<TxnId> Abort(TxnId txn) {
    std::vector<TxnId> granted;
    auto it = queued_on_.find(txn);
    if (it != queued_on_.end()) {
      const int64_t g = it->second;
      queued_on_.erase(it);
      auto& queue = MutableQueue(g);
      queue.erase(std::find_if(queue.begin(), queue.end(),
                               [txn](const Entry& e) { return e.first == txn; }));
      Drain(g, &granted);
    }
    Release(txn, &granted);
    return granted;
  }

  LockMode HeldMode(TxnId txn, int64_t g) const {
    for (const auto& [holder, mode] : holders_[static_cast<size_t>(g)]) {
      if (holder == txn) return mode;
    }
    return LockMode::kNL;
  }
  const std::vector<Entry>& Holders(int64_t g) const {
    return holders_[static_cast<size_t>(g)];
  }
  const std::vector<Entry>& Queue(int64_t g) const {
    return queues_[static_cast<size_t>(g)];
  }
  bool IsQueued(TxnId txn) const { return queued_on_.contains(txn); }
  int64_t HeldCount(TxnId txn) const {
    auto it = held_.find(txn);
    return it == held_.end() ? 0 : static_cast<int64_t>(it->second.size());
  }
  int64_t WaitingCount() const {
    return static_cast<int64_t>(queued_on_.size());
  }
  const std::map<TxnId, int64_t>& queued_on() const { return queued_on_; }

 private:
  std::vector<Entry>& MutableQueue(int64_t g) {
    return queues_[static_cast<size_t>(g)];
  }
  bool Grantable(int64_t g, TxnId txn, LockMode mode) const {
    for (const auto& [holder, held] : Holders(g)) {
      if (holder != txn && !Compatible(held, mode)) return false;
    }
    return true;
  }
  void Grant(int64_t g, TxnId txn, LockMode mode) {
    for (auto& [holder, held] : holders_[static_cast<size_t>(g)]) {
      if (holder == txn) {
        held = Supremum(held, mode);
        return;
      }
    }
    holders_[static_cast<size_t>(g)].emplace_back(txn, mode);
    held_[txn].push_back(g);
  }
  void Drain(int64_t g, std::vector<TxnId>* granted) {
    auto& queue = MutableQueue(g);
    while (!queue.empty() &&
           Grantable(g, queue.front().first, queue.front().second)) {
      const Entry front = queue.front();
      queue.erase(queue.begin());
      queued_on_.erase(front.first);
      Grant(g, front.first, front.second);
      granted->push_back(front.first);
    }
  }
  void Release(TxnId txn, std::vector<TxnId>* granted) {
    auto it = held_.find(txn);
    if (it == held_.end()) return;
    const std::vector<int64_t> held = std::move(it->second);
    held_.erase(it);
    for (const int64_t g : held) {
      auto& holders = holders_[static_cast<size_t>(g)];
      holders.erase(std::find_if(
          holders.begin(), holders.end(),
          [txn](const Entry& e) { return e.first == txn; }));
      Drain(g, granted);
    }
  }

  std::vector<std::vector<Entry>> holders_;  // grant order
  std::vector<std::vector<Entry>> queues_;   // FIFO
  std::map<TxnId, std::vector<int64_t>> held_;
  std::map<TxnId, int64_t> queued_on_;
};

class WaitQueueCycleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WaitQueueCycleFuzzTest, MultiGranuleClaimsMatchModelAndGraph) {
  constexpr int64_t kGranules = 8;
  constexpr size_t kMaxLive = 9;
  WaitQueueLockTable table(kGranules);
  QueueModel model(kGranules);
  WaitQueueLockTable::CycleWalk walk;
  Rng rng(GetParam());
  sim::invariants::ScopedFailureCapture audit;

  /// A live transaction: its claims in order, and how far it got.
  struct Claimer {
    std::vector<std::pair<int64_t, LockMode>> plan;
    size_t next = 0;
    bool queued = false;
  };
  std::map<TxnId, Claimer> live;
  TxnId next_txn = 1;
  int64_t cycles = 0;
  int64_t upgrades = 0;
  int64_t shared = 0;
  int64_t queued_grants = 0;

  auto start = [&] {
    Claimer c;
    std::vector<int64_t> granules;
    rng.SampleWithoutReplacement(kGranules, rng.UniformInt(1, 4), &granules);
    rng.Shuffle(granules);
    for (const int64_t g : granules) {
      c.plan.emplace_back(g, rng.Bernoulli(0.5) ? LockMode::kS : LockMode::kX);
    }
    // Re-claim an earlier granule: an upgrade to X, or a covered S.
    if (rng.Bernoulli(0.5)) {
      const auto& [g, mode] = c.plan[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(c.plan.size()) - 1))];
      c.plan.emplace_back(g, rng.Bernoulli(0.8) ? LockMode::kX : LockMode::kS);
    }
    live.emplace(next_txn++, std::move(c));
  };
  auto apply_grants = [&](const std::vector<TxnId>& granted) {
    queued_grants += static_cast<int64_t>(granted.size());
    for (const TxnId id : granted) {
      Claimer& c = live.at(id);
      c.queued = false;
      ++c.next;
    }
  };
  auto pick = [&] {
    auto it = live.begin();
    std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    return it;
  };

  for (int step = 0; step < 3000; ++step) {
    std::vector<TxnId> granted;
    if (live.size() < kMaxLive && rng.Bernoulli(0.2)) {
      start();
      continue;
    }
    if (live.empty()) continue;
    auto it = pick();
    const TxnId txn = it->first;
    Claimer& c = it->second;
    if ((c.queued && rng.Bernoulli(0.3)) ||
        (!c.queued && rng.Bernoulli(0.05))) {
      const auto expected = model.Abort(txn);
      table.Abort(txn, &granted);
      ASSERT_EQ(granted, expected) << "step " << step;
      live.erase(it);
    } else if (c.queued) {
      continue;  // keeps waiting
    } else if (c.next == c.plan.size()) {
      const auto expected = model.ReleaseAll(txn);
      table.ReleaseAll(txn, &granted);
      ASSERT_EQ(granted, expected) << "step " << step;
      live.erase(it);
    } else {
      const auto [g, mode] = c.plan[c.next];
      const LockMode before = table.HeldMode(txn, g);
      const bool expect_grant = model.Acquire(txn, g, mode);
      const auto result = table.Acquire(txn, g, mode);
      ASSERT_EQ(result == WaitQueueLockTable::AcquireResult::kGranted,
                expect_grant)
          << "step " << step;
      if (before == LockMode::kS && mode == LockMode::kX) ++upgrades;
      if (expect_grant) {
        if (mode == LockMode::kS && table.Holders(g).size() > 1) ++shared;
        ++c.next;
      } else {
        c.queued = true;
      }
    }
    apply_grants(granted);

    // The whole table against the model.
    ASSERT_EQ(table.WaitingCount(), model.WaitingCount()) << "step " << step;
    for (int64_t g = 0; g < kGranules; ++g) {
      std::vector<QueueModel::Entry> holders;
      for (const auto& h : table.Holders(g)) holders.emplace_back(h.txn, h.mode);
      ASSERT_EQ(holders, model.Holders(g)) << "step " << step << " g " << g;
    }
    for (const auto& [id, claimer] : live) {
      ASSERT_EQ(table.IsQueued(id), model.IsQueued(id)) << "step " << step;
      ASSERT_EQ(table.HeldCount(id), model.HeldCount(id)) << "step " << step;
    }
    const lockmgr::WaitsForGraph graph = db::BuildWaitsForGraph(table);
    for (const auto& [waiter, g] : model.queued_on()) {
      std::vector<TxnId> ahead;
      table.ForEachWaiterAhead(waiter, g,
                               [&ahead](TxnId w) { ahead.push_back(w); });
      std::vector<TxnId> expected_ahead;
      for (const auto& [w, mode] : model.Queue(g)) {
        if (w == waiter) break;
        expected_ahead.push_back(w);
      }
      ASSERT_EQ(ahead, expected_ahead) << "step " << step;
      const bool on_cycle = !graph.FindCycleFrom(waiter).empty();
      ASSERT_EQ(table.OnWaitsForCycle(waiter, &walk), on_cycle)
          << "step " << step << " waiter " << waiter;
      if (on_cycle) ++cycles;
    }
    table.CheckConsistency();
    ASSERT_EQ(audit.count(), 0) << "step " << step << ": "
                                << audit.last_message();
  }
  // The run reached the shapes this test is for.
  EXPECT_GT(cycles, 0);
  EXPECT_GT(upgrades, 0);
  EXPECT_GT(shared, 0);
  EXPECT_GT(queued_grants, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitQueueCycleFuzzTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace granulock::lockmgr
