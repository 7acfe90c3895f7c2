#ifndef GRANULOCK_UTIL_RANDOM_H_
#define GRANULOCK_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace granulock {

class Rng;

/// Zipf-distributed integer sampler over [0, n) with skew parameter
/// `theta` in [0, 1): probability of rank k is proportional to
/// 1/(k+1)^theta. theta = 0 is uniform; theta ~ 0.99 is the classic
/// "YCSB zipfian" hot-key skew. Uses the Gray et al. constant-time
/// algorithm with precomputed zeta constants, so sampling is O(1).
class ZipfGenerator {
 public:
  /// Requires n >= 1 and 0 <= theta < 1.
  ZipfGenerator(int64_t n, double theta);

  /// Draws one value in [0, n); rank 0 is the hottest.
  int64_t Sample(Rng& rng) const;

  int64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  int64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
};

/// SplitMix64 — a tiny, well-distributed 64-bit generator used to expand a
/// single user seed into the state of stronger generators. Deterministic and
/// platform-independent (unlike std::mt19937 seeded via seed_seq differences
/// in library implementations it has a fixed, documented algorithm).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value and advances the state.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna — the library's workhorse PRNG.
///
/// Fast (a few ns per draw), passes BigCrush, 2^256-1 period, and fully
/// reproducible across platforms. Every stochastic component of the
/// simulator draws from an explicitly seeded `Rng`, so a (config, seed)
/// pair always reproduces a run exactly.
class Rng {
 public:
  /// Seeds the generator; all 2^64 seeds give well-separated streams
  /// (state is expanded through SplitMix64 per the authors' guidance).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Raw 64 uniform random bits.
  uint64_t NextUint64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in (0, 1] — zero-free, for inverse-CDF style draws
  /// where 0 would be degenerate (e.g. the conflict-interval draw).
  double NextDoubleOpenClosed();

  /// Uniform integer in [lo, hi], inclusive on both ends. Requires lo <= hi.
  /// Uses rejection sampling (Lemire-style) so the result is exactly uniform.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Replaces `*out` with `k` distinct integers sampled uniformly from
  /// [0, n), in ascending order. Requires 0 <= k <= n (and n within the
  /// element type). Floyd's algorithm: exactly k `UniformInt` draws, a
  /// hash-set membership test kept in `out`'s own spare capacity, and a
  /// sort, so it is O(k log k) and allocates nothing once `out` has held
  /// about 3k elements.
  void SampleWithoutReplacement(int64_t n, int64_t k,
                                std::vector<int64_t>* out);
  void SampleWithoutReplacement(int64_t n, int64_t k,
                                std::vector<int32_t>* out);

  /// Fisher–Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives an independent child generator; stream `i` of the same parent
  /// is reproducible. Used to give each replication its own stream.
  Rng Fork(uint64_t stream_index) const;

 private:
  uint64_t s_[4];
  uint64_t seed_;  // retained so Fork() can derive child streams
};

}  // namespace granulock

#endif  // GRANULOCK_UTIL_RANDOM_H_
