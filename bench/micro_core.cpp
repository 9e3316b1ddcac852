// Micro-benchmarks: attacker data-structure hot paths and RNG streams
// (google-benchmark). The selection loops report allocs_per_op so
// allocation regressions on the attacker side are visible next to the
// time/op numbers. The BM_Rng* rows run each stream operation on
// std::mt19937_64, the engine whose outputs support::Mt64 reproduces, and
// on support::Rng, each as kRngRepetitions repetitions reported as
// median/min/max, under a host fingerprint in the context header.
#include "alloc_counter.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/buffers.h"
#include "core/ssid_db.h"
#include "support/rng.h"

using namespace cityhunter;

namespace {

core::SsidDatabase make_db(int n) {
  core::SsidDatabase db;
  for (int i = 0; i < n; ++i) {
    db.add("SSID-" + std::to_string(i), static_cast<double>(n - i),
           core::SsidSource::kWiglePopular, support::SimTime::zero());
  }
  return db;
}

void BM_SsidDbAdd(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::SsidDatabase db;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      db.add("SSID-" + std::to_string(i), static_cast<double>(i),
             core::SsidSource::kDirectProbe, support::SimTime::zero());
    }
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_SsidDbAdd)->Arg(100)->Arg(500);

void BM_SsidDbRecordHit(benchmark::State& state) {
  // The maintained orders re-file one id per hit: the incremental cost that
  // replaced the per-scan-window re-sort.
  auto db = make_db(static_cast<int>(state.range(0)));
  const int n = static_cast<int>(state.range(0));
  std::int64_t t = 0;
  for (auto _ : state) {
    db.record_hit("SSID-" + std::to_string(t % n), 8.0,
                  support::SimTime::seconds(t));
    ++t;
  }
}
BENCHMARK(BM_SsidDbRecordHit)->Arg(500)->Arg(2000);

/// Args: {database size, SSIDs already sent to the client}. The 2000/200
/// row is a long-staying venue client against a grown database.
void BM_BufferSelect(benchmark::State& state) {
  auto db = make_db(static_cast<int>(state.range(0)));
  support::Rng rng(3);
  // Mark a handful as fresh so both buffers engage.
  for (int i = 0; i < 30; ++i) {
    db.record_hit("SSID-" + std::to_string(i * 7),
                  1.0, support::SimTime::seconds(i));
  }
  core::BufferSelector selector(core::BufferSelectorConfig{}, rng.fork("s"));
  core::SsidIdSet sent;
  for (int i = 0; i < state.range(1); ++i) {
    sent.insert(db.id_of("SSID-" + std::to_string(i)));
  }
  const auto a0 = bench::alloc_count();
  for (auto _ : state) {
    auto choices = selector.select(db, &sent);
    benchmark::DoNotOptimize(choices);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 40);
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::alloc_count() - a0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_BufferSelect)->Args({300, 60})->Args({1000, 60})->Args({2000, 200});

// --- RNG streams ----------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view label) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// support::Rng's seeding and fork formula over std::mt19937_64: the fork
/// copies the whole engine to read its next word, and every new stream
/// seeds all 312 state words.
struct StdStream {
  explicit StdStream(std::uint64_t seed) : engine(splitmix(seed)) {}
  std::uint64_t next() { return engine(); }
  StdStream fork(std::string_view label) const {
    std::mt19937_64 copy = engine;
    return StdStream(splitmix(fnv1a(label) ^ copy()));
  }
  std::mt19937_64 engine;
};

struct RngStream {
  explicit RngStream(std::uint64_t seed) : rng(seed) {}
  explicit RngStream(support::Rng r) : rng(std::move(r)) {}
  std::uint64_t next() { return rng.next_u64(); }
  RngStream fork(std::string_view label) const {
    return RngStream(rng.fork(label));
  }
  support::Rng rng;
};

constexpr int kRngRepetitions = 9;

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

void rng_rows(benchmark::internal::Benchmark* b) {
  b->Repetitions(kRngRepetitions)
      ->ReportAggregatesOnly(true)
      ->ComputeStatistics("min", min_of)
      ->ComputeStatistics("max", max_of)
      ->MinTime(0.1);
}

/// A new stream and its first value: what every per-entity fork and every
/// per-frame fault stream pays before anything else.
template <typename S>
void BM_RngConstructFirstDraw(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    S s(seed++);
    benchmark::DoNotOptimize(s.next());
  }
}
BENCHMARK_TEMPLATE(BM_RngConstructFirstDraw, StdStream)->Apply(rng_rows);
BENCHMARK_TEMPLATE(BM_RngConstructFirstDraw, RngStream)->Apply(rng_rows);

/// fork() of a parent that has drawn range(0) values: 0 is the city's
/// never-drawn root, 1 an entity stream forking its walker.
template <typename S>
void BM_RngFork(benchmark::State& state) {
  S parent(42);
  for (std::int64_t i = 0; i < state.range(0); ++i) parent.next();
  const S& shared = parent;
  for (auto _ : state) {
    S child = shared.fork("entity-12345");
    benchmark::DoNotOptimize(child);
  }
}
BENCHMARK_TEMPLATE(BM_RngFork, StdStream)->Arg(0)->Arg(1)->Apply(rng_rows);
BENCHMARK_TEMPLATE(BM_RngFork, RngStream)->Arg(0)->Arg(1)->Apply(rng_rows);

/// One draw from a long-running stream (the World build, venue runs).
template <typename S>
void BM_RngSteadyDraw(benchmark::State& state) {
  S s(7);
  for (int i = 0; i < 1000; ++i) s.next();
  for (auto _ : state) benchmark::DoNotOptimize(s.next());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_RngSteadyDraw, StdStream)->Apply(rng_rows);
BENCHMARK_TEMPLATE(BM_RngSteadyDraw, RngStream)->Apply(rng_rows);

/// A fault stream: a new stream and 60 draws, the most one lossy frame
/// takes (retries and per-receiver erasures).
template <typename S>
void BM_RngFaultStream(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    S s(seed++);
    std::uint64_t acc = 0;
    for (int i = 0; i < 60; ++i) acc ^= s.next();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK_TEMPLATE(BM_RngFaultStream, StdStream)->Apply(rng_rows);
BENCHMARK_TEMPLATE(BM_RngFaultStream, RngStream)->Apply(rng_rows);

/// CPU model, core count, AVX2/AVX-512 and compiler, added to the context
/// header so rows are only compared within one host.
void add_host_fingerprint() {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string value = line.substr(colon + 1);
    if (line.starts_with("model name") && model == "unknown") {
      model = value.substr(value.find_first_not_of(' '));
    }
    if (line.starts_with("flags") && flags.empty()) flags = value + " ";
  }
  const auto has = [&](const char* flag) {
    return flags.find(std::string(" ") + flag + " ") != std::string::npos;
  };
  benchmark::AddCustomContext("host_cpu_model", model);
  benchmark::AddCustomContext(
      "host_nproc", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("host_avx2", has("avx2") ? "yes" : "no");
  benchmark::AddCustomContext("host_avx512f", has("avx512f") ? "yes" : "no");
  benchmark::AddCustomContext("compiler", __VERSION__);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  add_host_fingerprint();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
