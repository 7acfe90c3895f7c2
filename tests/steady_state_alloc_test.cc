// The machine substrate's hot path allocates nothing in steady state.
//
// This binary replaces the global allocation functions with counting
// versions over std::malloc/std::free, so it must stay a test binary of
// its own. A few clients on a `sim::Machine` each loop over one lock
// request (`Machine::PayLockCost`) and one 10-wide `core::ForkJoin` stage.
// Their stages overlap on the nodes and their requests preempt each
// other's stages, so servers start jobs while idle, queue them while
// busy and suspend them for lock work. After a warm-up round, which lets
// every queue and the event calendar reach their working sizes, 10,000
// further requests and their stages must not allocate once.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/engine_probe.h"
#include "core/fork_join.h"
#include "core/run_stats.h"
#include "obs/hooks.h"
#include "sim/machine.h"
#include "sim/priority_server.h"
#include "util/random.h"

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
