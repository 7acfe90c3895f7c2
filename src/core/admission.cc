#include "core/admission.h"

#include <algorithm>
#include <cmath>

namespace granulock::core {

AdmissionController::AdmissionController(AdmissionOptions options,
                                         int64_t max_mpl)
    : options_(options), max_mpl_(max_mpl), target_(max_mpl) {}

bool AdmissionController::Evaluate(double signal) {
  const int64_t before = target_;
  if (signal > options_.high_water) {
    const auto contracted = static_cast<int64_t>(std::floor(
        static_cast<double>(target_) * options_.decrease_factor));
    target_ = std::max(options_.min_mpl, contracted);
    if (target_ < before) ++contractions_;
  } else if (signal < options_.low_water) {
    target_ = std::min(max_mpl_, target_ + options_.increase_step);
  }
  return target_ != before;
}

}  // namespace granulock::core
