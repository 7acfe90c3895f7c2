#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace granulock {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpenClosed() {
  return 1.0 - NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  GRANULOCK_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {
    // Full 64-bit range requested.
    return static_cast<int64_t>(NextUint64());
  }
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = NextUint64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::UniformDouble(double lo, double hi) {
  GRANULOCK_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  GRANULOCK_CHECK_GT(mean, 0.0);
  return -mean * std::log(NextDoubleOpenClosed());
}

namespace {

// Floyd's algorithm: for j = n-k .. n-1, add a uniform draw from [0, j],
// or j itself when the draw is already chosen (j never is: every earlier
// choice is < j). Exactly k draws give a uniform k-subset. The chosen set
// is tested in an open-addressing table of at least 2k cells, empty = -1,
// laid out in `out` behind the k chosen values.
template <typename T>
void FloydSample(Rng& rng, int64_t n, int64_t k, std::vector<T>* out) {
  GRANULOCK_CHECK_GE(k, 0);
  GRANULOCK_CHECK_LE(k, n);
  GRANULOCK_CHECK_LE(n, std::numeric_limits<T>::max());
  const size_t count = static_cast<size_t>(k);
  int bits = 3;
  while ((size_t{1} << bits) < 2 * count) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  out->resize(count + mask + 1);
  T* chosen = out->data();
  T* cells = chosen + count;
  std::fill(cells, cells + mask + 1, T{-1});
  size_t size = 0;
  const auto insert = [&](T value) {
    const uint64_t hash = static_cast<uint64_t>(value) * 0x9e3779b97f4a7c15ull;
    size_t i = static_cast<size_t>(hash >> (64 - bits));
    for (; cells[i] != T{-1}; i = (i + 1) & mask) {
      if (cells[i] == value) return false;
    }
    cells[i] = value;
    chosen[size++] = value;
    return true;
  };
  for (int64_t j = n - k; j < n; ++j) {
    if (!insert(static_cast<T>(rng.UniformInt(0, j)))) {
      insert(static_cast<T>(j));
    }
  }
  out->resize(count);
  std::sort(out->begin(), out->end());
}

}  // namespace

void Rng::SampleWithoutReplacement(int64_t n, int64_t k,
                                   std::vector<int64_t>* out) {
  FloydSample(*this, n, k, out);
}

void Rng::SampleWithoutReplacement(int64_t n, int64_t k,
                                   std::vector<int32_t>* out) {
  FloydSample(*this, n, k, out);
}

namespace {

// Generalized harmonic number H_{n,theta} = sum_{i=1..n} 1/i^theta.
double Zeta(int64_t n, double theta) {
  double sum = 0.0;
  for (int64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(int64_t n, double theta)
    : n_(n), theta_(theta) {
  GRANULOCK_CHECK_GE(n, 1);
  GRANULOCK_CHECK_GE(theta, 0.0);
  GRANULOCK_CHECK_LT(theta, 1.0);
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(std::min<int64_t>(2, n), theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

int64_t ZipfGenerator::Sample(Rng& rng) const {
  // Gray et al., "Quickly generating billion-record synthetic databases"
  // (SIGMOD '94) — the sampler used by YCSB.
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (n_ >= 2 && uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const int64_t value = static_cast<int64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::clamp<int64_t>(value, 0, n_ - 1);
}

Rng Rng::Fork(uint64_t stream_index) const {
  // Mix the parent seed with the stream index through SplitMix64 so child
  // streams are decorrelated from each other and from the parent.
  SplitMix64 sm(seed_ ^ (0xd1342543de82ef95ull * (stream_index + 1)));
  return Rng(sm.Next());
}

}  // namespace granulock
