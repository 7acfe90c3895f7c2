#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "db/contention_policy.h"
#include "db/granule_selector.h"
#include "lockmgr/hierarchical.h"
#include "lockmgr/lock_table.h"
#include "lockmgr/wait_queue_table.h"
#include "lockmgr/waits_for.h"
#include "model/conflict.h"
#include "sim/busy_union.h"
#include "sim/priority_server.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "workload/workload.h"

namespace perfbench {

namespace db = granulock::db;
namespace lockmgr = granulock::lockmgr;
namespace model = granulock::model;
namespace sim = granulock::sim;
namespace workload = granulock::workload;
using granulock::Rng;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps replayed results observable so the optimizer cannot drop the
/// calls that produce them.
volatile int64_t g_sink = 0;

/// Runs `batch` (which performs some operations and returns how many)
/// until `budget_s` has elapsed, inside one span; returns ns per operation.
template <typename Batch>
double TimeOps(const char* name, double budget_s, SpanLog* spans,
               Batch&& batch) {
  const int span = spans->Begin(name, -1);
  int64_t ops = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    ops += batch();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < budget_s);
  spans->End(span);
  return ops > 0 ? elapsed * 1e9 / static_cast<double>(ops) : 0.0;
}

int64_t RoundAtLeast(double v, int64_t lo) {
  return std::max<int64_t>(lo, std::llround(v));
}

bool IsDetectPolicy(const Point& point) {
  using Kind = db::ContentionPolicyKind;
  const Kind k = point.incremental_options.contention.policy;
  return k == Kind::kDetectRequester || k == Kind::kDetectFewestLocks ||
         k == Kind::kDetectYoungest;
}

bool IsCoarse(const Point& point, int64_t nu) {
  const auto& o = point.explicit_options;
  return point.engine == Engine::kExplicit &&
         o.strategy == db::ExplicitSimulator::LockingStrategy::kHierarchical &&
         o.coarse_threshold > 0 && nu >= o.coarse_threshold;
}

// --- sim ---------------------------------------------------------------

/// Exponential variates drawn up front, so a replay times the layer and
/// not the random number generator.
std::vector<double> Exponentials(double mean, Rng& rng) {
  std::vector<double> out(4096);
  for (double& v : out) v = rng.Exponential(mean);
  return out;
}

/// The classic "hold" model: `n` pending events; each one that fires
/// schedules its replacement, so the queue stays at `n`.
struct HoldModel {
  sim::Simulator simulator;
  std::vector<double> delays;
  size_t next = 0;

  struct Tick {
    HoldModel* model;
    void operator()() const {
      const double delay = model->delays[model->next++ % model->delays.size()];
      model->simulator.ScheduleAfter(delay, Tick{model});
    }
  };

  HoldModel(int64_t n, uint64_t seed) {
    Rng rng(seed);
    delays = Exponentials(static_cast<double>(n), rng);
    for (int64_t i = 0; i < n; ++i) {
      simulator.ScheduleAt(delays[static_cast<size_t>(i) % delays.size()],
                           Tick{this});
    }
  }
};

double PriceEvent(int64_t hwm, double budget_s, uint64_t seed,
                  SpanLog* spans) {
  HoldModel hold(std::max<int64_t>(1, hwm), seed);
  return TimeOps("replay.sim.event", budget_s, spans, [&] {
    for (int i = 0; i < 256; ++i) hold.simulator.Step();
    return int64_t{256};
  });
}

/// Jobs fan out over one server per node, all feeding one busy union, as
/// the engines submit a lock request's cost to every node at once.
double PriceServerJob(int64_t npros, double lock_fraction, double budget_s,
                      uint64_t seed, SpanLog* spans) {
  sim::Simulator simulator;
  sim::BusyUnionTracker tracker;
  std::vector<std::unique_ptr<sim::PriorityServer>> servers;
  for (int64_t n = 0; n < npros; ++n) {
    servers.push_back(
        std::make_unique<sim::PriorityServer>(&simulator, "replay"));
    servers.back()->SetBusyUnion(&tracker);
  }
  Rng rng(seed);
  const std::vector<double> service = Exponentials(1.0, rng);
  std::vector<sim::ServiceClass> classes(service.size());
  for (sim::ServiceClass& c : classes) {
    c = rng.NextDouble() < lock_fraction ? sim::ServiceClass::kLock
                                         : sim::ServiceClass::kTransaction;
  }
  size_t next = 0;
  return TimeOps("replay.sim.server_job", budget_s, spans, [&] {
    for (auto& server : servers) {
      const size_t k = next++ % service.size();
      server->Submit(classes[k], service[k], [] {});
    }
    simulator.RunUntilEmpty();
    return npros;
  });
}

// --- model -------------------------------------------------------------

double PriceConflictDraw(const Point& point,
                         const workload::TransactionFactory& factory,
                         int64_t active, double budget_s, uint64_t seed,
                         SpanLog* spans) {
  Rng rng(seed);
  workload::TransactionParams params;
  std::vector<int64_t> active_locks;
  for (int64_t i = 0; i < active; ++i) {
    factory.Generate(rng, &params);
    active_locks.push_back(params.lu);
  }
  const model::ConflictModel conflict(point.cfg.ltot);
  return TimeOps("replay.model.conflict_draw", budget_s, spans, [&] {
    int64_t blocked = 0;
    for (int i = 0; i < 256; ++i) {
      blocked += conflict.DrawBlocker(active_locks, rng) >= 0 ? 1 : 0;
    }
    g_sink = g_sink + blocked;
    return int64_t{256};
  });
}

// --- lockmgr -----------------------------------------------------------

struct TxnSample {
  int64_t nu = 0;
  std::vector<int64_t> granules;
  lockmgr::LockMode mode = lockmgr::LockMode::kX;
};

/// Draws `n` transactions the way the db engines create them: a size from
/// the factory, a mode from the read fraction, a granule set from
/// SelectGranules (empty for coarse hierarchical transactions).
std::vector<TxnSample> SampleTxns(const Point& point,
                                  const workload::TransactionFactory& factory,
                                  double read_fraction, int n, Rng& rng) {
  std::vector<TxnSample> out(static_cast<size_t>(n));
  workload::TransactionParams params;
  for (TxnSample& t : out) {
    factory.Generate(rng, &params);
    t.nu = params.nu;
    t.mode = rng.Bernoulli(read_fraction) ? lockmgr::LockMode::kS
                                          : lockmgr::LockMode::kX;
    if (!IsCoarse(point, t.nu)) {
      t.granules = db::SelectGranules(point.spec.placement, point.cfg.dbsize,
                                      point.cfg.ltot, t.nu, rng);
    }
  }
  return out;
}

double PriceAcquireAll(const Point& point,
                       const workload::TransactionFactory& factory,
                       int64_t active, double budget_s, uint64_t seed,
                       SpanLog* spans) {
  Rng rng(seed);
  const bool explicit_engine = point.engine == Engine::kExplicit;
  const auto& o = point.explicit_options;
  const std::vector<TxnSample> pool = SampleTxns(
      point, factory, explicit_engine ? o.read_fraction : 0.0, 64, rng);
  const bool hierarchical =
      explicit_engine &&
      o.strategy == db::ExplicitSimulator::LockingStrategy::kHierarchical;
  lockmgr::LockTable flat(point.cfg.ltot);
  lockmgr::HierarchicalLockManager hier(lockmgr::HierarchicalLockManager::Options{
      point.cfg.ltot, hierarchical ? o.num_files : 1,
      hierarchical ? o.escalation_threshold : 0});
  std::vector<std::vector<lockmgr::LockRequest>> flat_requests;
  std::vector<std::vector<lockmgr::HierRequest>> hier_requests;
  for (const TxnSample& t : pool) {
    std::vector<lockmgr::LockRequest> f;
    std::vector<lockmgr::HierRequest> h;
    if (t.granules.empty()) {
      h.push_back({lockmgr::ObjectId::Root(), t.mode});
    }
    for (int64_t g : t.granules) {
      f.push_back({g, t.mode});
      h.push_back({lockmgr::ObjectId::Granule(g), t.mode});
    }
    flat_requests.push_back(std::move(f));
    hier_requests.push_back(std::move(h));
  }
  std::deque<lockmgr::TxnId> holders;
  lockmgr::TxnId next_id = 1;
  size_t next_request = 0;
  return TimeOps("replay.lockmgr.acquire_all", budget_s, spans, [&] {
    for (int i = 0; i < 64; ++i) {
      const lockmgr::TxnId id = next_id++;
      const size_t k = next_request++ % pool.size();
      const bool granted =
          hierarchical ? !hier.TryAcquireAll(id, hier_requests[k]).has_value()
                       : !flat.TryAcquireAll(id, flat_requests[k]).has_value();
      if (granted) holders.push_back(id);
      while (static_cast<int64_t>(holders.size()) > active) {
        if (hierarchical) {
          hier.ReleaseAll(holders.front());
        } else {
          flat.ReleaseAll(holders.front());
        }
        holders.pop_front();
      }
    }
    return int64_t{64};
  });
}

/// A transaction of the queued-locking replay: claims its granules one at
/// a time, in shuffled order.
struct ClaimTxn {
  lockmgr::TxnId id = 0;
  std::vector<int64_t> granules;
  size_t next = 0;
  lockmgr::LockMode mode = lockmgr::LockMode::kX;
  bool queued = false;
};

double PriceQueuedAcquire(const Point& point,
                          const workload::TransactionFactory& factory,
                          int64_t concurrent, double budget_s, uint64_t seed,
                          SpanLog* spans) {
  Rng rng(seed);
  const double read_fraction = point.engine == Engine::kIncremental
                                   ? point.incremental_options.read_fraction
                                   : 0.0;
  const std::vector<TxnSample> pool =
      SampleTxns(point, factory, read_fraction, 64, rng);
  lockmgr::WaitQueueLockTable table(point.cfg.ltot);
  std::vector<ClaimTxn> txns(static_cast<size_t>(concurrent));
  std::unordered_map<lockmgr::TxnId, size_t> slot_of;
  lockmgr::TxnId next_id = 1;
  size_t next_sample = 0;
  auto fresh = [&](size_t slot) {
    ClaimTxn& t = txns[slot];
    slot_of.erase(t.id);
    const TxnSample& s = pool[next_sample++ % pool.size()];
    t.id = next_id++;
    t.granules = s.granules.empty() ? std::vector<int64_t>{0} : s.granules;
    rng.Shuffle(t.granules);
    t.next = 0;
    t.mode = s.mode;
    t.queued = false;
    slot_of[t.id] = slot;
  };
  auto granted = [&](const std::vector<lockmgr::TxnId>& ids) {
    for (lockmgr::TxnId id : ids) {
      ClaimTxn& t = txns[slot_of.at(id)];
      t.queued = false;
      ++t.next;
    }
  };
  for (size_t s = 0; s < txns.size(); ++s) fresh(s);
  size_t turn = 0;
  return TimeOps("replay.lockmgr.queued_acquire", budget_s, spans, [&] {
    int64_t acquires = 0;
    for (int i = 0; i < 64; ++i) {
      const size_t slot = turn++ % txns.size();
      ClaimTxn& t = txns[slot];
      if (t.queued) {
        // A waiter's turn comes round again: it is the victim.
        granted(table.Abort(t.id));
        fresh(slot);
      } else if (t.next == t.granules.size()) {
        granted(table.ReleaseAll(t.id));
        fresh(slot);
      } else {
        ++acquires;
        if (table.Acquire(t.id, t.granules[t.next], t.mode) ==
            lockmgr::WaitQueueLockTable::AcquireResult::kGranted) {
          ++t.next;
        } else {
          t.queued = true;
        }
      }
    }
    return acquires;
  });
}

double PriceCycleCheck(int64_t concurrent, int64_t waiters, double budget_s,
                       uint64_t seed, SpanLog* spans) {
  Rng rng(seed);
  lockmgr::WaitsForGraph graph;
  const int64_t n = std::max<int64_t>(2, concurrent);
  const int64_t w = std::clamp<int64_t>(waiters, 1, n - 1);
  std::vector<lockmgr::TxnId> ids;
  for (int64_t i = 1; i <= n; ++i) ids.push_back(static_cast<lockmgr::TxnId>(i));
  rng.Shuffle(ids);
  for (int64_t i = 0; i < w; ++i) {
    // Each waiter waits on one or two other transactions.
    for (int e = 0; e < 1 + static_cast<int>(rng.UniformInt(0, 1)); ++e) {
      graph.AddWait(ids[static_cast<size_t>(i)],
                    ids[static_cast<size_t>(rng.UniformInt(0, n - 1))]);
    }
  }
  size_t next = 0;
  return TimeOps("replay.lockmgr.cycle_check", budget_s, spans, [&] {
    int64_t found = 0;
    for (int i = 0; i < 64; ++i) {
      found += static_cast<int64_t>(
          graph.FindCycleFrom(ids[next++ % static_cast<size_t>(w)]).size());
    }
    g_sink = g_sink + found;
    return int64_t{64};
  });
}

// --- db ----------------------------------------------------------------

double PriceSelectGranules(const Point& point,
                           const workload::TransactionFactory& factory,
                           double budget_s, uint64_t seed,
                           SpanLog* spans) {
  Rng rng(seed);
  workload::TransactionParams params;
  return TimeOps("replay.db.select_granules", budget_s, spans, [&] {
    int64_t size = 0;
    for (int i = 0; i < 16; ++i) {
      factory.Generate(rng, &params);
      if (IsCoarse(point, params.nu)) continue;
      size += static_cast<int64_t>(
          db::SelectGranules(point.spec.placement, point.cfg.dbsize,
                             point.cfg.ltot, params.nu, rng)
              .size());
    }
    g_sink = g_sink + size;
    return int64_t{16};
  });
}

double PriceWaitsForBuild(const Point& point,
                          const workload::TransactionFactory& factory,
                          int64_t concurrent, int64_t waiters, double budget_s,
                          uint64_t seed, SpanLog* spans) {
  Rng rng(seed);
  const int64_t n = std::max<int64_t>(2, concurrent);
  const int64_t w = std::clamp<int64_t>(waiters, 1, n - 1);
  const std::vector<TxnSample> pool =
      SampleTxns(point, factory, 0.0, static_cast<int>(n - w), rng);
  lockmgr::WaitQueueLockTable table(point.cfg.ltot);
  std::vector<int64_t> held;
  lockmgr::TxnId id = 1;
  for (const TxnSample& s : pool) {
    for (int64_t g : s.granules) {
      if (table.Acquire(id, g, lockmgr::LockMode::kX) !=
          lockmgr::WaitQueueLockTable::AcquireResult::kGranted) {
        break;  // now a waiter: at most one queued request per transaction
      }
      held.push_back(g);
    }
    ++id;
  }
  if (held.empty()) {
    table.Acquire(id++, 0, lockmgr::LockMode::kX);
    held.push_back(0);
  }
  for (int64_t i = 0; i < w; ++i) {
    const int64_t g =
        held[static_cast<size_t>(rng.UniformInt(0, (int64_t)held.size() - 1))];
    table.Acquire(id++, g, lockmgr::LockMode::kX);
  }
  return TimeOps("replay.db.waits_for_build", budget_s, spans, [&] {
    int64_t edges = 0;
    for (int i = 0; i < 16; ++i) {
      edges += static_cast<int64_t>(db::BuildWaitsForGraph(table).EdgeCount());
    }
    g_sink = g_sink + edges;
    return int64_t{16};
  });
}

}  // namespace

Counts CountOperations(const Point& point, const PointObservation& obs) {
  Counts c;
  // Every lock request pays its cost as one I/O and one CPU job on each
  // node; every sub-transaction (or incremental stage) is one I/O and one
  // CPU job. Each job ends in one completion event.
  const double jobs = 2.0 * static_cast<double>(point.cfg.npros) *
                          static_cast<double>(obs.lock_requests) +
                      2.0 * static_cast<double>(obs.subtxns);
  c.server_jobs = std::min(jobs, static_cast<double>(obs.events));
  c.events = static_cast<double>(obs.events) - c.server_jobs;
  c.txns = static_cast<double>(obs.txn_created);
  c.factory_builds = static_cast<double>(obs.cells);
  const double requests = static_cast<double>(obs.lock_requests);
  const double denials = static_cast<double>(obs.lock_denials);
  switch (point.engine) {
    case Engine::kProbabilistic:
      c.conflict_draws = requests;
      break;
    case Engine::kExplicit:
      c.acquire_all = requests;
      c.select_granules = c.txns;
      break;
    case Engine::kIncremental:
      c.queued_acquires = requests;
      c.select_granules = c.txns;
      if (IsDetectPolicy(point)) {
        // Detection rebuilds the waits-for graph and searches it for a
        // cycle on every wait.
        c.cycle_checks = denials;
        c.waits_for_builds = denials;
      }
      break;
  }
  return c;
}

Prices FasterOf(const Prices& a, const Prices& b) {
  Prices p;
  for (double Prices::*f :
       {&Prices::event, &Prices::server_job, &Prices::conflict_draw,
        &Prices::txn, &Prices::factory_build, &Prices::acquire_all,
        &Prices::queued_acquire, &Prices::cycle_check,
        &Prices::select_granules, &Prices::waits_for_build}) {
    p.*f = std::min(a.*f, b.*f);
  }
  return p;
}

Prices PricePoint(const Point& point, const PointObservation& obs,
                  double budget_s, uint64_t seed, SpanLog* spans) {
  Prices p;
  const uint64_t s = seed ^ point.base_seed;
  const double cells = static_cast<double>(std::max<int64_t>(1, obs.cells));
  const int64_t active = RoundAtLeast(obs.avg_active / cells, 1);
  const int64_t waiting = RoundAtLeast(obs.avg_blocked / cells, 1);
  const Counts counts = CountOperations(point, obs);

  const double lock_jobs = 2.0 * static_cast<double>(point.cfg.npros) *
                           static_cast<double>(obs.lock_requests);
  const double lock_fraction =
      counts.server_jobs > 0.0 ? std::min(1.0, lock_jobs / counts.server_jobs)
                               : 0.5;
  p.event = PriceEvent(obs.queue_hwm, budget_s, s + 1, spans);
  p.server_job =
      PriceServerJob(point.cfg.npros, lock_fraction, budget_s, s + 2, spans);

  p.factory_build =
      TimeOps("replay.workload.factory_build", budget_s, spans, [&] {
        const workload::TransactionFactory f(point.cfg, point.spec);
        workload::TransactionParams params;
        Rng rng(s);
        f.Generate(rng, &params);
        g_sink = g_sink + params.nu;
        return int64_t{1};
      });
  const workload::TransactionFactory factory(point.cfg, point.spec);
  {
    Rng rng(s + 3);
    workload::TransactionParams params;
    p.txn = TimeOps("replay.workload.txn", budget_s, spans, [&] {
      int64_t nu = 0;
      for (int i = 0; i < 256; ++i) {
        factory.Generate(rng, &params);
        nu += params.nu;
      }
      g_sink = g_sink + nu;
      return int64_t{256};
    });
  }
  p.conflict_draw =
      PriceConflictDraw(point, factory, active, budget_s, s + 4, spans);
  p.acquire_all =
      PriceAcquireAll(point, factory, active, budget_s, s + 5, spans);
  p.queued_acquire = PriceQueuedAcquire(point, factory, active + waiting,
                                        budget_s, s + 6, spans);
  p.cycle_check =
      PriceCycleCheck(active + waiting, waiting, budget_s, s + 7, spans);
  p.select_granules =
      PriceSelectGranules(point, factory, budget_s, s + 8, spans);
  p.waits_for_build = PriceWaitsForBuild(point, factory, active + waiting,
                                         waiting, budget_s, s + 9, spans);
  return p;
}

}  // namespace perfbench
