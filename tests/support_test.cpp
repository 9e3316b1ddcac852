#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "support/histogram.h"
#include "support/rng.h"
#include "support/sim_time.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace cityhunter::support {
namespace {

// --- TaskTeam ---

TEST(TaskTeam, EveryHelperRunsExactlyOncePerDispatch) {
  TaskTeam team(3);
  ASSERT_EQ(team.helpers(), 3u);
  struct Ctx {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> index_sum{0};
  } ctx;
  const auto fn = +[](void* c, std::size_t i) {
    auto* x = static_cast<Ctx*>(c);
    x->hits.fetch_add(1);
    x->index_sum.fetch_add(i);
  };
  for (int round = 1; round <= 50; ++round) {
    team.dispatch(fn, &ctx);
    team.wait();
    EXPECT_EQ(ctx.hits.load(), static_cast<std::uint64_t>(3 * round));
  }
  // Helper indices 0+1+2 per round: every helper ran, none twice.
  EXPECT_EQ(ctx.index_sum.load(), 50u * 3u);
}

TEST(TaskTeam, WaitPublishesHelperWrites) {
  // Data written by helpers before finishing must be visible to the caller
  // after wait() without any extra synchronization (release/acquire on the
  // done counter).
  TaskTeam team(4);
  struct Ctx {
    std::uint64_t lane[4] = {};  // plain, non-atomic: ordering must carry it
  } ctx;
  const auto fn = +[](void* c, std::size_t i) {
    static_cast<Ctx*>(c)->lane[i] = i * 1000 + 7;
  };
  for (int round = 0; round < 20; ++round) {
    for (auto& v : ctx.lane) v = 0;
    team.dispatch(fn, &ctx);
    team.wait();
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_EQ(ctx.lane[i], i * 1000 + 7) << "round " << round;
    }
  }
}

TEST(TaskTeam, ZeroHelpersIsAValidDegenerateTeam) {
  // A 1-worker fork-join has no helpers: dispatch/wait must be no-ops.
  TaskTeam team(0);
  EXPECT_EQ(team.helpers(), 0u);
  int touched = 0;
  team.dispatch(+[](void*, std::size_t) {}, &touched);
  team.wait();
  EXPECT_EQ(touched, 0);
}

TEST(TaskTeam, DestructionWhileParkedJoinsCleanly) {
  // Helpers park on the epoch futex between dispatches; the destructor must
  // wake and join them without a dispatch in flight.
  for (int i = 0; i < 8; ++i) {
    TaskTeam team(2);
    if (i % 2 == 0) {
      std::atomic<int> n{0};
      team.dispatch(+[](void* c, std::size_t) {
        static_cast<std::atomic<int>*>(c)->fetch_add(1);
      }, &n);
      team.wait();
      EXPECT_EQ(n.load(), 2);
    }
  }
}

// --- SimTime ---

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::milliseconds(1).us(), 1000);
  EXPECT_EQ(SimTime::seconds(1.0).us(), 1000000);
  EXPECT_EQ(SimTime::minutes(1.0).us(), 60000000);
  EXPECT_EQ(SimTime::hours(1.0).us(), 3600000000LL);
}

TEST(SimTime, Arithmetic) {
  const auto t = SimTime::seconds(2.0) + SimTime::milliseconds(500);
  EXPECT_DOUBLE_EQ(t.sec(), 2.5);
  EXPECT_DOUBLE_EQ((t - SimTime::seconds(1.0)).sec(), 1.5);
  EXPECT_DOUBLE_EQ((SimTime::seconds(10.0) * 0.5).sec(), 5.0);
}

TEST(SimTime, ComparisonIsTotal) {
  EXPECT_LT(SimTime::zero(), SimTime::microseconds(1));
  EXPECT_LE(SimTime::seconds(1.0), SimTime::milliseconds(1000));
  EXPECT_EQ(SimTime::seconds(1.0), SimTime::milliseconds(1000));
  EXPECT_GT(SimTime::max(), SimTime::hours(10000));
}

TEST(SimTime, HumanReadableString) {
  EXPECT_EQ(SimTime::milliseconds(250).str(), "250.000ms");
  EXPECT_EQ(SimTime::seconds(5.0).str(), "5.0s");
  EXPECT_EQ(SimTime::minutes(2.5).str(), "2m30.0s");
  EXPECT_EQ(SimTime::hours(3.25).str(), "3h15m");
}

// --- Rng determinism ---

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsStableAndIndependent) {
  Rng parent(77);
  Rng c1 = parent.fork("mobility");
  Rng c2 = Rng(77).fork("mobility");
  // Same parent seed + same label => same child stream.
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  }
  // Different labels => different streams.
  Rng c3 = Rng(77).fork("world");
  Rng c4 = Rng(77).fork("mobility");
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (std::abs(c3.uniform() - c4.uniform()) < 1e-12) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ZipfRankOneIsMostProbable) {
  Rng rng(9);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) {
    const int r = rng.zipf(10, 1.0);
    ASSERT_GE(r, 1);
    ASSERT_LE(r, 10);
    ++counts[static_cast<std::size_t>(r)];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], 0);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(9);
  EXPECT_EQ(rng.zipf(1, 1.0), 1);
  EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(11);
  std::vector<double> w{1.0, 0.0, 9.0};
  int c0 = 0, c2 = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto idx = rng.weighted_index(w);
    ASSERT_NE(idx, 1u);  // zero weight never picked
    if (idx == 0) ++c0;
    if (idx == 2) ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / (c0 + c2), 0.9, 0.03);
}

TEST(Rng, WeightedIndexRejectsEmptyAndZero) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    auto idx = rng.sample_indices(20, 7);
    ASSERT_EQ(idx.size(), 7u);
    std::sort(idx.begin(), idx.end());
    EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
    EXPECT_LT(idx.back(), 20u);
  }
  // k > n clamps to n.
  EXPECT_EQ(rng.sample_indices(3, 10).size(), 3u);
}

TEST(Rng, PoissonMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.poisson(4.0);
  EXPECT_NEAR(sum / 10000.0, 4.0, 0.1);
}

// --- Mt64 and Rng against the standard engine ---
//
// Mt64 must reproduce std::mt19937_64 for every seed, and Rng must return
// exactly what it returned when it wrapped std::mt19937_64. StdRng is that
// earlier Rng: the same distributions and fork formula over the standard
// engine.

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(splitmix(seed)) {}

  // Hashes the label with the next word of a copied engine.
  StdRng fork(std::string_view label) const {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : label) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ULL;
    }
    std::mt19937_64 copy = engine_;
    return StdRng(splitmix(h ^ copy()));
  }

  std::uint64_t next_u64() { return engine_(); }
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }
  double exponential_mean(double mean) {
    if (mean <= 0.0) return 0.0;
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  int poisson(double mean) {
    if (mean <= 0.0) return 0;
    // Rng::poisson serialises lgamma's global signgam the same way.
    static std::mutex mutex;
    const std::scoped_lock lock(mutex);
    return std::poisson_distribution<int>(mean)(engine_);
  }
  int zipf(int n, double s) {
    if (n == 1) return 1;
    double norm = 0.0;
    for (int k = 1; k <= n; ++k) norm += 1.0 / std::pow(k, s);
    const double u = uniform(0.0, norm);
    double acc = 0.0;
    for (int k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(k, s);
      if (u <= acc) return k;
    }
    return n;
  }
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  std::size_t weighted_index(const std::vector<double>& weights) {
    double u = uniform(0.0, std::accumulate(weights.begin(), weights.end(),
                                            0.0));
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u <= 0.0) return i;
    }
    return weights.size() - 1;
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) {
    if (k > n) k = n;
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(idx[i], idx[i + index(n - i)]);
    }
    idx.resize(k);
    return idx;
  }

 private:
  std::mt19937_64 engine_;
};

/// 2051 seeds: small integers, well-mixed values and bit-pattern extremes.
std::vector<std::uint64_t> oracle_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, ~0ULL, 1ULL << 63,
                                   0x5555555555555555ULL};
  for (std::uint64_t i = 2; i < 1024; ++i) seeds.push_back(i);
  for (std::uint64_t i = 0; i < 1024; ++i) seeds.push_back(splitmix(~i));
  return seeds;
}

/// Draw counts around the lazy-seeding and generation boundaries: the first
/// draw needs 157 seed words, the 156th needs all 312, the 313th starts the
/// first batch-regenerated generation.
const std::vector<int> kBoundaries{0,   1,   155, 156, 157, 310,
                                   311, 312, 313, 624, 625, 2000};

TEST(Mt64, MatchesStdEngineAtGenerationBoundaries) {
  for (const std::uint64_t seed : oracle_seeds()) {
    Mt64 engine(seed);
    std::mt19937_64 oracle(seed);
    int drawn = 0;
    for (const int stop : kBoundaries) {
      for (; drawn < stop; ++drawn) {
        const std::uint64_t want = oracle();
        ASSERT_EQ(engine.peek(), want) << "seed " << seed << " draw " << drawn;
        ASSERT_EQ(engine(), want) << "seed " << seed << " draw " << drawn;
      }
      // A copy, a move and an assignment over an engine in another state
      // all continue the stream across the next two generation boundaries.
      Mt64 copy = engine;
      Mt64 tmp = engine;
      Mt64 moved = std::move(tmp);
      Mt64 assigned(seed ^ 1);
      for (int i = 0; i < 400; ++i) assigned();
      assigned = engine;
      std::mt19937_64 ahead = oracle;
      for (int i = 0; i < 640; ++i) {
        const std::uint64_t want = ahead();
        ASSERT_EQ(copy(), want) << "seed " << seed << " at " << stop;
        ASSERT_EQ(moved(), want) << "seed " << seed << " at " << stop;
        ASSERT_EQ(assigned(), want) << "seed " << seed << " at " << stop;
      }
    }
  }
}

TEST(Mt64, SeedRestartsTheSequenceInPlace) {
  Mt64 engine(7);
  for (int i = 0; i < 1000; ++i) engine();
  engine.seed(99);
  std::mt19937_64 oracle(99);
  for (int i = 0; i < 700; ++i) ASSERT_EQ(engine(), oracle()) << i;

  Rng rng(5);
  for (int i = 0; i < 400; ++i) rng.next_u64();
  rng.reseed(42);
  Rng fresh(42);
  for (int i = 0; i < 700; ++i) ASSERT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(Rng, ForkMatchesCopiedStdEngineFormula) {
  for (const std::uint64_t seed : oracle_seeds()) {
    Rng rng(seed);
    StdRng oracle(seed);
    int drawn = 0;
    for (const int stop : kBoundaries) {
      for (; drawn < stop; ++drawn) {
        ASSERT_EQ(rng.next_u64(), oracle.next_u64());
      }
      for (const std::string_view label : {"", "walk", "entity-4711"}) {
        Rng child = rng.fork(label);
        StdRng want = oracle.fork(label);
        for (int i = 0; i < 3; ++i) {
          ASSERT_EQ(child.next_u64(), want.next_u64())
              << "seed " << seed << " at " << stop << " label " << label;
        }
      }
    }
  }
}

TEST(Rng, DistributionsMatchStdEngine) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<double> weights{0.5, 0.0, 2.0, 1.25, 0.25};
  for (const std::uint64_t seed : oracle_seeds()) {
    Rng rng(seed);
    StdRng oracle(seed);
    // About 60 draws a round: 20 rounds cross two generation boundaries.
    for (int round = 0; round < 20; ++round) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round);
      ASSERT_EQ(rng.uniform(), oracle.uniform());
      ASSERT_EQ(rng.uniform(-3.0, 5.0), oracle.uniform(-3.0, 5.0));
      ASSERT_EQ(rng.uniform_int(0, 3), oracle.uniform_int(0, 3));
      ASSERT_EQ(rng.uniform_int(-1000000000000, 7),
                oracle.uniform_int(-1000000000000, 7));
      ASSERT_EQ(rng.uniform_int(kMin, kMax), oracle.uniform_int(kMin, kMax));
      ASSERT_EQ(rng.chance(0.3), oracle.chance(0.3));
      ASSERT_EQ(rng.normal(2.0, 0.5), oracle.normal(2.0, 0.5));
      ASSERT_EQ(rng.lognormal(0.1, 0.8), oracle.lognormal(0.1, 0.8));
      ASSERT_EQ(rng.exponential_mean(12.5), oracle.exponential_mean(12.5));
      ASSERT_EQ(rng.poisson(3.5), oracle.poisson(3.5));
      ASSERT_EQ(rng.poisson(40.0), oracle.poisson(40.0));
      ASSERT_EQ(rng.zipf(50, 0.9), oracle.zipf(50, 0.9));
      ASSERT_EQ(rng.index(17), oracle.index(17));
      ASSERT_EQ(rng.weighted_index(weights), oracle.weighted_index(weights));
      std::vector<int> a(20), b(20);
      std::iota(a.begin(), a.end(), 0);
      std::iota(b.begin(), b.end(), 0);
      rng.shuffle(a);
      oracle.shuffle(b);
      ASSERT_EQ(a, b);
      ASSERT_EQ(rng.sample_indices(30, 10), oracle.sample_indices(30, 10));
    }
  }
}

// --- Histogram ---

TEST(Histogram, BucketsAndStats) {
  Histogram h(10.0);
  for (const double v : {5.0, 15.0, 15.5, 25.0, 25.0, 25.0}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  EXPECT_NEAR(h.mean(), 18.42, 0.01);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(0.0), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(10.0), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(20.0), 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_in_bucket(90.0), 0.0);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].first, 0.0);
  EXPECT_EQ(buckets[2].second, 3u);
}

TEST(Histogram, RejectsNonPositiveWidth) {
  EXPECT_THROW(Histogram(0.0), std::invalid_argument);
  EXPECT_THROW(Histogram(-1.0), std::invalid_argument);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h(1.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ascii(), "(empty)\n");
}

TEST(Summary, RunningStats) {
  Summary s;
  for (const double v : {2.0, 4.0, 6.0, 8.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.stddev(), 2.582, 0.001);
}

// --- TextTable ---

TEST(TextTable, AlignsColumnsAndPadsMissingCells) {
  TextTable t({"a", "long-header"});
  t.add_row({"x"});
  t.add_row({"longer-cell", "y"});
  const auto s = t.str();
  EXPECT_NE(s.find("a           | long-header"), std::string::npos);
  EXPECT_NE(s.find("longer-cell | y"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::pct(0.159), "15.9%");
  EXPECT_EQ(TextTable::pct(0.0366, 2), "3.66%");
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(1234LL), "1234");
}

}  // namespace
}  // namespace cityhunter::support
