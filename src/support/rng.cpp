#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>

namespace cityhunter::support {

namespace {

using Word = Mt64::result_type;

/// Seed word i of the initialisation recurrence, from word i - 1.
Word seed_step(Word prev, std::uint32_t i) {
  return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
}

/// The MT19937-64 recurrence: the word that replaces x_k, from x_k, x_k+1
/// and x_k+m.
Word twist(Word xk, Word xk1, Word xkm) {
  const Word y = (xk & 0xffffffff80000000ULL) | (xk1 & 0x7fffffffULL);
  return xkm ^ (y >> 1) ^ ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
}

}  // namespace

void Mt64::advance() {
  if (ready_ < kN) {
    // First generation: twist word k alone, seeding the words it reads
    // (x_k+1 and x_k+m; past the middle both are already there).
    const std::uint32_t k = ready_;
    const std::uint32_t need = std::min(k + kM + 1, kN);
    if (seeded_ < need) {
      std::uint32_t i = seeded_;
      Word w = x_[i - 1];
      do {
        w = seed_step(w, i);
        x_[i] = w;
      } while (++i < need);
      seeded_ = static_cast<std::uint16_t>(need);
    }
    x_[k] = twist(x_[k], x_[k + 1 == kN ? 0 : k + 1],
                  x_[k + kM < kN ? k + kM : k + kM - kN]);
    ++ready_;
    return;
  }
  // Later generations: regenerate every word at once.
  std::uint32_t k = 0;
  for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  pos_ = 0;
}

Mt64::result_type Mt64::peek() const {
  if (pos_ < ready_) return temper(x_[pos_]);
  if (ready_ == kN) return temper(twist(x_[0], x_[1], x_[kM]));
  const std::uint32_t k = ready_;
  if (k + kM >= kN) {
    // Second half of the first generation: every seed word is there.
    return temper(twist(x_[k], x_[k + 1 == kN ? 0 : k + 1], x_[k + kM - kN]));
  }
  // First half: x_k+m lies past the seeded prefix (so does x_k+1 before the
  // first draw); run the recurrence in locals rather than write to a const
  // object.
  Word next = k + 1 < seeded_ ? x_[k + 1] : 0;
  Word w = x_[seeded_ - 1];
  for (std::uint32_t i = seeded_; i <= k + kM; ++i) {
    w = seed_step(w, i);
    if (i == k + 1) next = w;
  }
  return temper(twist(x_[k], next, w));
}

void Mt64::copy_from(const Mt64& other) noexcept {
  seeded_ = other.seeded_;
  ready_ = other.ready_;
  pos_ = other.pos_;
  std::memcpy(x_, other.x_, sizeof(Word) * seeded_);
}

std::uint64_t Rng::splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng Rng::fork(std::string_view label) const {
  // FNV-1a over the label mixed with a snapshot of the engine state hash.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  // Combine with the parent's *seed-derived* identity: its next output,
  // peeked without disturbing the parent.
  return Rng(splitmix(h ^ engine_.peek()));
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  std::lognormal_distribution<double> d(mu, sigma);
  return d(engine_);
}

double Rng::exponential_mean(double mean) {
  if (mean <= 0.0) return 0.0;
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

int Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  // glibc's lgamma() — called by poisson_distribution's setup and by its
  // large-mean rejection sampler — writes the process-global `signgam`,
  // which is a data race when campaigns run in parallel. Poisson draws are
  // rare (slot scheduling), so serializing them is cheaper than swapping
  // the sampler, and keeps the drawn values bit-identical.
  static std::mutex mutex;
  const std::scoped_lock lock(mutex);
  std::poisson_distribution<int> d(mean);
  return d(engine_);
}

int Rng::zipf(int n, double s) {
  if (n <= 0) throw std::invalid_argument("zipf: n must be positive");
  if (n == 1) return 1;
  // Inverse CDF over the harmonic weights. n in this codebase is at most a
  // few thousand, so a linear scan is fine and exact.
  double norm = 0.0;
  for (int k = 1; k <= n; ++k) norm += 1.0 / std::pow(k, s);
  double u = uniform(0.0, norm);
  double acc = 0.0;
  for (int k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    if (u <= acc) return k;
  }
  return n;
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0 || weights.empty()) {
    throw std::invalid_argument("weighted_index: non-positive total weight");
  }
  double u = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) k = n;
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace cityhunter::support
