// City-scale delivery throughput: the headline scenario for the batched SoA
// pipeline. A 2 km urban district with 5k–20k radios (30% static APs
// beaconing at 9.77 Hz, 70% phones scanning every ~2 s while walking)
// drives the Medium fanout through its one delivery pipeline:
//
//   batched  — SoA gather, slot-ordered merge, d² filter, LUT + pair cache
//   scan     — the full-scan oracle (smallest size only; O(n) per frame)
//
// Both must produce identical transmission/delivery counts. Each row also
// reports the index efficiency on the district's 1/6/11 channel plan:
// bucket entries the filter loaded and how many of them failed the fused
// listening-key compare (0 with the channel-partitioned buckets).
//
// Usage: fig_city_scale [--smoke]
//   --smoke: one small size (2k radios, 2 s), used by ctest -L perf.
#include "bench_common.h"
#include "city_scale.h"

#include <cstring>

namespace {

using cityhunter::bench::CityScaleParams;
using cityhunter::bench::CityScaleResult;
using cityhunter::bench::run_city_scale;
using cityhunter::medium::Medium;

Medium::Config scan_config() {
  Medium::Config cfg;
  cfg.spatial_grid = false;
  cfg.pathloss_lut = false;
  cfg.pathloss_cache = false;
  return cfg;
}

int g_failures = 0;

void check_equal(const char* what, std::uint64_t a, std::uint64_t b) {
  if (a != b) {
    std::printf("  MISMATCH %s: %llu vs %llu\n", what,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
    ++g_failures;
  }
}

void run_size(int radios, double sim_s, bool with_scan) {
  CityScaleParams params;
  params.radios = radios;
  params.duration = cityhunter::support::SimTime::seconds(sim_s);

  const CityScaleResult batched = run_city_scale(params, Medium::Config{});
  char scan_col[32] = "        -";
  char speedup_col[32] = "      -";
  if (with_scan) {
    const CityScaleResult scan = run_city_scale(params, scan_config());
    check_equal("scan transmissions", batched.transmissions,
                scan.transmissions);
    check_equal("scan deliveries", batched.deliveries, scan.deliveries);
    std::snprintf(scan_col, sizeof(scan_col), "%8.3fs", scan.wall_s);
    std::snprintf(speedup_col, sizeof(speedup_col), "%6.2fx",
                  batched.wall_s > 0.0 ? scan.wall_s / batched.wall_s : 0.0);
  }

  const double hit_rate =
      batched.cache_hits + batched.cache_misses > 0
          ? static_cast<double>(batched.cache_hits) /
                static_cast<double>(batched.cache_hits + batched.cache_misses)
          : 0.0;
  std::printf(
      "  %6d | %9.2fM | %s | %8.3fs | %s | %9.3gM/s | %5.1f%% | %11llu | "
      "%6llu | %.1f / %u\n",
      radios, static_cast<double>(batched.deliveries) / 1e6, scan_col,
      batched.wall_s, speedup_col, batched.deliveries_per_s / 1e6,
      hit_rate * 100.0,
      static_cast<unsigned long long>(batched.candidates_loaded),
      static_cast<unsigned long long>(batched.wasted_candidates),
      batched.mean_bucket_occupancy, batched.max_bucket_occupancy);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  cityhunter::bench::print_header(
      "city-scale deliver throughput (batched SoA pipeline vs full scan)",
      "ROADMAP north star: city-sized populations, as fast as the hardware "
      "allows");
  std::printf(
      "  radios | delivered | scan      | batched  | speedup | throughput | "
      "cache hit | loaded      | wasted | occupancy mean/max\n");
  if (smoke) {
    run_size(2000, 2.0, /*with_scan=*/true);
  } else {
    run_size(5000, 5.0, /*with_scan=*/true);
    run_size(10000, 5.0, /*with_scan=*/false);
    run_size(20000, 3.0, /*with_scan=*/false);
  }
  if (g_failures != 0) {
    std::printf("FAILED: %d pipeline mismatches\n", g_failures);
    return 1;
  }
  std::printf("OK: batched pipeline agrees with the full scan\n");
  return 0;
}
