#include "workload/size_distribution.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace granulock::workload {

UniformSizeDistribution::UniformSizeDistribution(int64_t maxtransize)
    : maxtransize_(maxtransize) {
  GRANULOCK_CHECK_GE(maxtransize, 1);
}

int64_t UniformSizeDistribution::Sample(Rng& rng) const {
  return rng.UniformInt(1, maxtransize_);
}

double UniformSizeDistribution::Mean() const {
  return (static_cast<double>(maxtransize_) + 1.0) / 2.0;
}

std::string UniformSizeDistribution::Describe() const {
  return StrFormat("uniform{1..%lld}", (long long)maxtransize_);
}

ConstantSizeDistribution::ConstantSizeDistribution(int64_t size)
    : size_(size) {
  GRANULOCK_CHECK_GE(size, 1);
}

int64_t ConstantSizeDistribution::Sample(Rng& rng) const {
  (void)rng;
  return size_;
}

std::string ConstantSizeDistribution::Describe() const {
  return StrFormat("constant{%lld}", (long long)size_);
}

MixedSizeDistribution::MixedSizeDistribution(std::vector<Component> components)
    : components_(std::move(components)) {}

Result<std::shared_ptr<const SizeDistribution>> MixedSizeDistribution::Create(
    std::vector<Component> components) {
  if (components.empty()) {
    return Status::InvalidArgument("mixture needs at least one component");
  }
  double total = 0.0;
  for (const Component& c : components) {
    if (c.dist == nullptr) {
      return Status::InvalidArgument("mixture component is null");
    }
    // Negated accepted ranges, so a NaN fails them.
    if (!(c.weight >= 0.0 && std::isfinite(c.weight))) {
      return Status::InvalidArgument(
          "mixture weight must be finite and non-negative");
    }
    total += c.weight;
  }
  if (!(std::abs(total - 1.0) <= 1e-9)) {
    return Status::InvalidArgument(
        StrFormat("mixture weights sum to %g, expected 1", total));
  }
  return std::shared_ptr<const SizeDistribution>(
      new MixedSizeDistribution(std::move(components)));
}

int64_t MixedSizeDistribution::Sample(Rng& rng) const {
  double p = rng.NextDouble();
  for (const Component& c : components_) {
    if (p < c.weight) return c.dist->Sample(rng);
    p -= c.weight;
  }
  // Floating-point slack: fall through to the last component.
  return components_.back().dist->Sample(rng);
}

double MixedSizeDistribution::Mean() const {
  double mean = 0.0;
  for (const Component& c : components_) mean += c.weight * c.dist->Mean();
  return mean;
}

int64_t MixedSizeDistribution::MaxSize() const {
  int64_t max_size = 1;
  for (const Component& c : components_) {
    max_size = std::max(max_size, c.dist->MaxSize());
  }
  return max_size;
}

std::string MixedSizeDistribution::Describe() const {
  std::string out = "mix(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.0f%% %s", components_[i].weight * 100.0,
                     components_[i].dist->Describe().c_str());
  }
  out += ")";
  return out;
}

std::shared_ptr<const SizeDistribution> MakeSmallLargeMix(
    double small_fraction, int64_t small_max, int64_t large_max) {
  auto result = MixedSizeDistribution::Create(
      {{small_fraction, std::make_shared<UniformSizeDistribution>(small_max)},
       {1.0 - small_fraction,
        std::make_shared<UniformSizeDistribution>(large_max)}});
  GRANULOCK_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace granulock::workload
