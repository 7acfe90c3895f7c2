#include "sim/machine.h"

#include "util/strings.h"

namespace granulock::sim {

void Machine::Build(int64_t npros) {
  cpu_.reserve(static_cast<size_t>(npros));
  io_.reserve(static_cast<size_t>(npros));
  for (int64_t n = 0; n < npros; ++n) {
    cpu_.push_back(std::make_unique<PriorityServer>(
        &sim_, StrFormat("cpu%lld", (long long)n)));
    io_.push_back(std::make_unique<PriorityServer>(
        &sim_, StrFormat("io%lld", (long long)n)));
    cpu_.back()->SetBusyUnion(&cpu_union_);
    io_.back()->SetBusyUnion(&io_union_);
  }
}

void Machine::ResetWindow() {
  for (auto& server : cpu_) server->ResetStats();
  for (auto& server : io_) server->ResetStats();
  cpu_union_.ResetWindow(Now());
  io_union_.ResetWindow(Now());
}

}  // namespace granulock::sim
