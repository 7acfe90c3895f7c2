#include "workload/workload.h"

#include "util/logging.h"
#include "util/strings.h"

namespace granulock::workload {

const char* PartitioningToString(PartitioningMethod m) {
  switch (m) {
    case PartitioningMethod::kHorizontal:
      return "horizontal";
    case PartitioningMethod::kRandom:
      return "random";
  }
  return "?";
}

bool PartitioningFromString(const std::string& s, PartitioningMethod* out) {
  if (s == "horizontal") {
    *out = PartitioningMethod::kHorizontal;
  } else if (s == "random") {
    *out = PartitioningMethod::kRandom;
  } else {
    return false;
  }
  return true;
}

WorkloadSpec WorkloadSpec::Base(const model::SystemConfig& cfg) {
  WorkloadSpec spec;
  spec.sizes = std::make_shared<UniformSizeDistribution>(cfg.maxtransize);
  spec.placement = model::Placement::kBest;
  spec.partitioning = PartitioningMethod::kHorizontal;
  return spec;
}

Status WorkloadSpec::Validate(const model::SystemConfig& cfg) const {
  if (sizes == nullptr) {
    return Status::InvalidArgument("workload has no size distribution");
  }
  if (sizes->MaxSize() > cfg.dbsize) {
    return Status::InvalidArgument(StrFormat(
        "size distribution can produce %lld entities but dbsize is %lld",
        (long long)sizes->MaxSize(), (long long)cfg.dbsize));
  }
  return Status::OK();
}

std::string WorkloadSpec::Describe() const {
  return StrFormat("sizes=%s placement=%s partitioning=%s",
                   sizes ? sizes->Describe().c_str() : "<none>",
                   model::PlacementToString(placement),
                   PartitioningToString(partitioning));
}

TransactionParams GenerateTransaction(const model::SystemConfig& cfg,
                                      const WorkloadSpec& spec, Rng& rng) {
  GRANULOCK_CHECK(spec.sizes != nullptr);
  TransactionParams params;
  params.nu = spec.sizes->Sample(rng);
  GRANULOCK_CHECK_GE(params.nu, 1);
  GRANULOCK_CHECK_LE(params.nu, cfg.dbsize);

  const model::LockDemand demand =
      model::LocksRequired(spec.placement, cfg.dbsize, cfg.ltot, params.nu);
  params.lu = demand.locks;
  params.expected_locks = demand.expected_locks;

  switch (spec.partitioning) {
    case PartitioningMethod::kHorizontal:
      params.pu = cfg.npros;
      break;
    case PartitioningMethod::kRandom:
      params.pu = rng.UniformInt(1, cfg.npros);
      break;
  }
  // Distinct nodes: horizontal uses all of them; random picks a uniform
  // PU-subset ("no two sub-transactions are assigned to the same
  // processor").
  if (params.pu == cfg.npros) {
    params.nodes.resize(static_cast<size_t>(cfg.npros));
    for (int64_t i = 0; i < cfg.npros; ++i) {
      params.nodes[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
  } else {
    rng.SampleWithoutReplacement(cfg.npros, params.pu, &params.nodes);
  }

  params.io_demand = static_cast<double>(params.nu) * cfg.iotime;
  params.cpu_demand = static_cast<double>(params.nu) * cfg.cputime;
  params.lock_io_demand = params.expected_locks * cfg.liotime;
  params.lock_cpu_demand = params.expected_locks * cfg.lcputime;
  return params;
}

TransactionFactory::TransactionFactory(const model::SystemConfig& cfg,
                                       const WorkloadSpec& spec)
    : sizes_(spec.sizes),
      partitioning_(spec.partitioning),
      demand_table_(spec.placement, cfg.dbsize, cfg.ltot,
                    spec.sizes != nullptr ? spec.sizes->MaxSize() : 1),
      dbsize_(cfg.dbsize),
      npros_(cfg.npros),
      iotime_(cfg.iotime),
      cputime_(cfg.cputime),
      liotime_(cfg.liotime),
      lcputime_(cfg.lcputime) {
  GRANULOCK_CHECK(sizes_ != nullptr);
}

void TransactionFactory::Generate(Rng& rng, TransactionParams* params) const {
  params->nu = sizes_->Sample(rng);
  GRANULOCK_CHECK_GE(params->nu, 1);
  GRANULOCK_CHECK_LE(params->nu, dbsize_);

  const model::LockDemand& demand = demand_table_.Lookup(params->nu);
  params->lu = demand.locks;
  params->expected_locks = demand.expected_locks;

  switch (partitioning_) {
    case PartitioningMethod::kHorizontal:
      params->pu = npros_;
      break;
    case PartitioningMethod::kRandom:
      params->pu = rng.UniformInt(1, npros_);
      break;
  }
  if (params->pu == npros_) {
    params->nodes.resize(static_cast<size_t>(npros_));
    for (int64_t i = 0; i < npros_; ++i) {
      params->nodes[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
  } else {
    rng.SampleWithoutReplacement(npros_, params->pu, &params->nodes);
  }

  params->io_demand = static_cast<double>(params->nu) * iotime_;
  params->cpu_demand = static_cast<double>(params->nu) * cputime_;
  params->lock_io_demand = params->expected_locks * liotime_;
  params->lock_cpu_demand = params->expected_locks * lcputime_;
}

}  // namespace granulock::workload
