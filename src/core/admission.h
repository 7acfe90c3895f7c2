#ifndef GRANULOCK_CORE_ADMISSION_H_
#define GRANULOCK_CORE_ADMISSION_H_

#include <cstdint>

namespace granulock::core {

/// Knobs of the multiprogramming-level controller. The defaults are the
/// incremental engine's (blocked-fraction feedback); the probabilistic
/// engine builds its own from `target_denial_rate`.
struct AdmissionOptions {
  /// Master switch; when false the controller is never constructed and
  /// the engine is bit-identical to a run without one.
  bool enabled = false;
  /// Feedback signal above which the target MPL contracts
  /// multiplicatively.
  double high_water = 0.6;
  /// Feedback signal below which the target recovers additively —
  /// hysteresis: between the waters the target holds.
  double low_water = 0.3;
  /// Simulated-time spacing of controller evaluations. Short relative to
  /// transaction response times: an overloaded seed population (MPL far
  /// past the knee) must be clamped before its restart storm pollutes a
  /// whole measurement window.
  double interval = 10.0;
  /// Multiplicative decrease applied to the target on contraction.
  /// Halving reaches a sane target from any overload in log2(MPL)
  /// evaluations; the additive +1 recovery then probes back up slowly
  /// (classic AIMD asymmetry).
  double decrease_factor = 0.5;
  /// Additive increase applied on recovery.
  int64_t increase_step = 1;
  /// The target never contracts below this.
  int64_t min_mpl = 1;
};

/// Multiprogramming-level throttle: classic AIMD with hysteresis on a
/// feedback signal in [0, 1] — the blocked fraction in the incremental
/// engine, the lock-denial rate in the probabilistic one. The engine
/// parks work while its admitted count sits at the target and drains it
/// when the target rises.
class AdmissionController {
 public:
  /// `max_mpl` is the configured MPL (cfg.ntrans) — the target's ceiling
  /// and starting value.
  AdmissionController(AdmissionOptions options, int64_t max_mpl);

  int64_t target() const { return target_; }

  /// One feedback evaluation: contract above the high water, recover
  /// below the low water, hold in between. Returns true when the target
  /// changed.
  bool Evaluate(double signal);

  /// Evaluations that contracted the target (diagnostics).
  int64_t contractions() const { return contractions_; }

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  int64_t max_mpl_;
  int64_t target_;
  int64_t contractions_ = 0;
};

}  // namespace granulock::core

#endif  // GRANULOCK_CORE_ADMISSION_H_
