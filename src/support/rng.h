// Deterministic random-number generation.
//
// All stochastic behaviour in the simulator is driven by an Rng seeded from a
// scenario seed, so every experiment in bench/ is exactly reproducible. Child
// generators can be forked with independent streams (SplitMix64 over the seed
// and a stream label) so adding randomness to one module does not perturb
// another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace cityhunter::support {

/// MT19937-64 with the exact output sequence of the standard library's
/// 64-bit Mersenne Twister for every seed, built for the simulator's many
/// short streams (a per-entity fork draws a handful of values, a per-frame
/// fault stream 2-60):
///  - seeding is lazy: construction stores only the seed, and the first
///    generation computes seed words as draws need them (157 for the first);
///  - the first generation twists one word per draw; later generations
///    regenerate all 312 words at once, like the standard engine, so long
///    streams draw at full speed;
///  - peek() returns the next output without advancing, computing any
///    unseeded word it needs in locals (no mutable state);
///  - a copy copies only the words seeded so far.
class Mt64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt64(result_type value) { seed(value); }
  // noexcept, so containers move (rather than deep-copy) the objects that
  // hold an Rng when they grow.
  Mt64(const Mt64& other) noexcept { copy_from(other); }
  Mt64& operator=(const Mt64& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  /// Restart the sequence from `seed`, as if newly constructed.
  void seed(result_type value) {
    x_[0] = value;
    seeded_ = 1;
    ready_ = 0;
    pos_ = 0;
  }

  result_type operator()() {
    if (pos_ == ready_) [[unlikely]] advance();
    return temper(x_[pos_++]);
  }

  /// The value the next operator() call will return.
  result_type peek() const;

 private:
  static constexpr std::uint32_t kN = 312;
  static constexpr std::uint32_t kM = 156;

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  void advance();
  void copy_from(const Mt64& other) noexcept;

  // The counters are 16-bit so that Mt64 has the standard engine's size
  // (2504 bytes) and the objects holding an Rng keep their allocation sizes.

  /// x_[0, seeded_) holds words of the current state: seed words from the
  /// initialisation recurrence and, below ready_, twisted words. Words at
  /// and beyond seeded_ are unwritten or stale and are never read (seeded_
  /// reaches kN during the first generation and stays there).
  std::uint16_t seeded_;
  /// Twisted words of the current generation: x_[0, ready_).
  std::uint16_t ready_;
  /// Next word to output; pos_ <= ready_.
  std::uint16_t pos_;
  result_type x_[kN];
};

/// Deterministic RNG: an Mt64 stream with convenience distributions used
/// throughout the simulator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix(seed)) {}

  /// Restart as Rng(seed) would, reusing this object's storage.
  void reseed(std::uint64_t seed) { engine_.seed(splitmix(seed)); }

  /// Fork an independent child stream. The label keeps streams stable across
  /// code changes: rng.fork("mobility") always yields the same stream for a
  /// given parent seed. The parent is only read (its next output is peeked),
  /// so forking a shared const Rng from several threads is safe.
  Rng fork(std::string_view label) const;

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Normal distribution (mean, stddev).
  double normal(double mean, double stddev);

  /// Lognormal by underlying normal parameters.
  double lognormal(double mu, double sigma);

  /// Exponential with the given mean (NOT rate).
  double exponential_mean(double mean);

  /// Poisson-distributed count.
  int poisson(double mean);

  /// Zipf-distributed rank in [1, n] with exponent s. Uses inverse-CDF over a
  /// precomputed table for small n, rejection sampling otherwise.
  int zipf(int n, double s);

  /// Pick a uniformly random element index of a container of size n.
  std::size_t index(std::size_t n);

  /// Weighted index selection: weights need not be normalised.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Sample k distinct indices out of [0, n). Order unspecified.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Next raw 64-bit output of the stream.
  std::uint64_t next_u64() { return engine_(); }

 private:
  static std::uint64_t splitmix(std::uint64_t x);
  Mt64 engine_;
};

}  // namespace cityhunter::support
