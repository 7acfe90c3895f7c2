#include "sim/machine.h"

#include "sim/invariants.h"
#include "util/strings.h"

namespace granulock::sim {

namespace {

/// One pool's share of `Machine::CheckConsistency`.
void CheckPool(const LockLane& lane,
               const std::vector<std::unique_ptr<PriorityServer>>& servers,
               const BusyUnionTracker& pool_union) {
  lane.CheckConsistency();
  int busy = 0;
  for (const auto& server : servers) {
    server->CheckConsistency();
    if (server->busy()) ++busy;
  }
  GRANULOCK_AUDIT_CHECK_EQ(pool_union.busy_count(), busy)
      << "pool " << lane.name() << " union counts "
      << pool_union.busy_count() << " busy members, found " << busy;
  const int on_lock = lane.busy() ? static_cast<int>(servers.size()) : 0;
  GRANULOCK_AUDIT_CHECK_EQ(pool_union.lock_count(), on_lock)
      << "pool " << lane.name() << " union counts "
      << pool_union.lock_count() << " members on lock work, lane busy="
      << lane.busy();
}

}  // namespace

Machine::Machine() : cpu_lane_(&sim_, "cpu"), io_lane_(&sim_, "io") {}

void Machine::Build(int64_t npros) {
  cpu_.reserve(static_cast<size_t>(npros));
  io_.reserve(static_cast<size_t>(npros));
  for (int64_t n = 0; n < npros; ++n) {
    cpu_.push_back(std::make_unique<PriorityServer>(
        &sim_, StrFormat("cpu%lld", (long long)n), &cpu_lane_));
    io_.push_back(std::make_unique<PriorityServer>(
        &sim_, StrFormat("io%lld", (long long)n), &io_lane_));
    cpu_.back()->SetBusyUnion(&cpu_union_);
    io_.back()->SetBusyUnion(&io_union_);
  }
}

void Machine::ResetWindow() {
  for (auto& server : cpu_) server->ResetStats();
  for (auto& server : io_) server->ResetStats();
  cpu_lane_.ResetStats();
  io_lane_.ResetStats();
  cpu_union_.ResetWindow(Now());
  io_union_.ResetWindow(Now());
}

void Machine::CheckConsistency() const {
  sim_.CheckConsistency();
  CheckPool(cpu_lane_, cpu_, cpu_union_);
  CheckPool(io_lane_, io_, io_union_);
}

}  // namespace granulock::sim
