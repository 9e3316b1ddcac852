// perfbench_workload — one benchmark workload, measured in its own process.
//
// Runs one named workload for a wall-time budget and prints one JSON object
// of raw samples on stdout; perfbench/run.py turns the samples into the
// named metrics, checks the digests against perfbench/pinned.json and owns
// the result line. Every number here is taken from outside the program:
// steady_clock around the benchmark's own calls into each layer's public
// functions, getrusage, the allocation counter of bench/alloc_counter.h, and
// the counters the public result structs already expose.
//
// Workloads (see perfbench/layers.json for why each was chosen):
//   venue_campaign  fig6 mix, 4 venues x 12 hourly slots, CityHunter,
//                   perfect channel, sim::run_campaigns on 2 workers;
//                   6 draws of the mix (see venue_draws)
//   lossy_venue     the same mix with fault injection on, 1 worker; 4 draws
//   city_100k       sim::run_sharded_city, 100k radios, 4 shards x 2 workers
//
// Usage:
//   perfbench_workload --workload NAME [--seed N] [--seconds S]
//                      [--trace 0|1] [--short]
//
// --trace 1 alternates untraced and traced repetitions (the difference is
// the tracing overhead), enables RunConfig::obs on traced venue runs and
// records spans around the benchmark's own calls into the output.
// --short shrinks every workload to a seconds-long smoke size.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "sim/checkpoint.h"
#include "sim/parallel.h"
#include "sim/scenario.h"
#include "sim/shard.h"

using namespace cityhunter;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a run's deterministic output. Traced runs carry an obs harvest
/// that untraced runs lack; it is dropped first so a traced run must hash to
/// the same value as its untraced twin.
std::uint64_t run_digest(sim::RunOutput out) {
  out.metrics = {};
  out.trace.clear();
  out.trace_dropped = 0;
  return fnv1a(sim::run_output_bytes(out));
}

// ---------------------------------------------------------------- JSON out

/// Minimal streaming JSON writer: the caller emits keys and values in
/// order, commas are placed automatically.
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(std::string_view k) {
    comma();
    quoted(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(static_cast<double>(v)); }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(std::string_view v) {
    comma();
    quoted(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string_view(v)); }

  template <typename T>
  Json& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quoted(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

// ------------------------------------------------------------------ spans

/// Spans recorded around the benchmark's own calls, kept in memory and
/// written out once at the end. `start_s` is relative to the recorder's
/// creation, or negative when only the duration is known (phase splits the
/// program reports as durations). `lanes` > 1 marks a span whose children
/// run in parallel on that many workers: they are accounted against
/// lanes x duration worker-seconds.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = -1.0;
    double dur_s = 0.0;
    int lanes = 1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Open a span timed by the benchmark's clock; close with end().
  int begin(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent,
                      seconds_between(t0_, Clock::now()), 0.0, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, int lanes = 1) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_s = seconds_between(t0_, Clock::now()) - s.start_s;
    s.lanes = lanes;
  }
  /// A span whose duration the program measured and reported.
  int add(std::string name, int parent, double dur_s, int lanes = 1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, -1.0, dur_s, lanes});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write(Json& j) const {
    j.begin_array();
    for (const Span& s : spans_) {
      j.begin_object()
          .field("name", s.name)
          .field("parent", s.parent)
          .field("start_s", s.start_s)
          .field("dur_s", s.dur_s)
          .field("lanes", s.lanes)
          .end_object();
    }
    j.end_array();
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload "
               "--workload venue_campaign|lossy_venue|city_100k [--seed N] "
               "[--seconds S] [--trace 0|1] [--short]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    const auto number = [&](auto parse) {
      const std::string v = next();
      try {
        return parse(v);
      } catch (const std::exception&) {
        usage(("bad number for " + arg + ": " + v).c_str());
      }
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = number([](const std::string& v) { return std::stoull(v); });
    } else if (arg == "--seconds") {
      a.seconds = number([](const std::string& v) { return std::stod(v); });
    } else if (arg == "--trace") {
      a.trace = next() == "1";
    } else if (arg == "--short") {
      a.short_mode = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Repetitions run in whole cycles: one repetition per input draw, or one
/// untraced/traced pair per draw in traced mode. They go on while the
/// budget is not spent, stopping early rather than late when the next cycle
/// would overrun it by more than half; at least two repetitions, and in
/// traced mode at least two pairs (the overhead gets a spread).
bool more_reps(const Args& args, std::size_t cycle, std::size_t reps,
               double timed_s, double last_cycle_s) {
  if (reps < (args.trace ? 4u : 2u)) return true;
  if (reps % cycle != 0) return true;
  return timed_s + 0.5 * last_cycle_s < args.seconds;
}

/// Repetitions per cycle: one per input draw, two (untraced, traced) in
/// traced mode.
std::size_t cycle_length(const Args& args, std::size_t draws) {
  return draws * (args.trace ? 2u : 1u);
}

// ------------------------------------------------------- venue workloads

/// Independent draws of the venue mix per benchmark run. Each draw gives
/// every run of the mix its own RNG stream, so the metrics average over
/// draws x 48 campaign runs instead of hinging on the client counts of the
/// few largest slots of one draw.
std::size_t venue_draws(bool lossy) { return lossy ? 4 : 6; }

/// The fig6 mix; `draw` 0 is the mix as bench/wallclock runs it, draw d
/// offsets every run_seed by 1000 * d.
std::vector<sim::RunConfig> venue_mix(const sim::World& world, bool lossy,
                                      bool short_mode, std::size_t draw) {
  const double slot_minutes = short_mode ? 1.0 : 10.0;
  const mobility::VenueConfig venues[] = {
      mobility::subway_passage_venue(), mobility::canteen_venue(),
      mobility::shopping_center_venue(), mobility::railway_station_venue()};
  std::vector<sim::RunConfig> runs;
  for (int v = 0; v < 4; ++v) {
    for (int slot = 0; slot < 12; ++slot) {
      const auto s = static_cast<std::size_t>(slot);
      sim::RunConfig run;
      run.kind = sim::AttackerKind::kCityHunter;
      run.venue = venues[v];
      run.slot.expected_clients =
          venues[v].hourly_clients[s] * (slot_minutes / 60.0);
      run.slot.group_fraction = venues[v].hourly_group_fraction[s];
      run.duration = support::SimTime::minutes(slot_minutes);
      run.run_seed = static_cast<std::uint64_t>(v * 100 + slot + 1) +
                     1000 * static_cast<std::uint64_t>(draw);
      if (lossy) {
        // The mid setting of bench/ablation_loss: ambient PER 0.2 with
        // interference bursts at 0.4x that rate.
        medium::Medium::Config m = world.config().medium;
        m.fault.enabled = true;
        m.fault.ambient_loss = 0.2;
        m.fault.corruption_rate = 0.08;
        run.medium = m;
      }
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

/// Fold one run's obs metrics snapshot into the repetition's totals:
/// counters add up, gauges keep their maximum, distributions keep a
/// count-weighted mean (stored as value * count under "<name>#sum").
void fold_metrics(const obs::MetricsSnapshot& snap,
                  std::map<std::string, double>& into) {
  for (const obs::MetricPoint& p : snap.points) {
    switch (p.kind) {
      case obs::MetricKind::kCounter:
        into[p.name] += static_cast<double>(p.count);
        break;
      case obs::MetricKind::kGauge:
        into[p.name] = std::max(into[p.name], p.value);
        break;
      case obs::MetricKind::kDistribution:
        into[p.name + "#sum"] += p.value * static_cast<double>(p.count);
        into[p.name + "#count"] += static_cast<double>(p.count);
        break;
      case obs::MetricKind::kTimer:
        break;
    }
  }
}

/// Digests of `runs` from the plain sim::run_campaign path (cold set-up, no
/// pool): the oracle the timed sim::run_campaigns calls must match. The runs
/// are split over two threads of the benchmark's own; a run's output depends
/// only on (world, config), so the split cannot change a digest.
std::vector<std::string> reference_digests(
    const sim::World& world, const std::vector<sim::RunConfig>& runs) {
  std::vector<std::string> digests(runs.size());
  const auto work = [&](std::size_t first) {
    for (std::size_t i = first; i < runs.size(); i += 2) {
      const sim::RunOutput out = sim::run_campaign(world, runs[i]);
      digests[i] =
          out.error.failed() ? std::string("error") : hex64(run_digest(out));
    }
  };
  std::exception_ptr helper_error;
  std::thread helper([&] {
    try {
      work(1);
    } catch (...) {
      helper_error = std::current_exception();
    }
  });
  try {
    work(0);
  } catch (...) {
    helper.join();
    throw;
  }
  helper.join();
  if (helper_error) std::rethrow_exception(helper_error);
  return digests;
}

void run_venue(const Args& args, Json& j) {
  const bool lossy = args.workload == "lossy_venue";
  const std::size_t threads = lossy ? 1 : 2;
  const int kWorldBuilds = 15;
  Spans spans(args.trace);
  const int root = spans.begin("workload." + args.workload, -1);

  // Set-up: the World build, repeated so setup_s is a median.
  sim::ScenarioConfig scfg;
  scfg.seed = args.seed;
  std::vector<double> builds;
  std::unique_ptr<sim::World> world;
  for (int b = 0; b < kWorldBuilds; ++b) {
    world.reset();
    const int span = spans.begin("world.build", root);
    const auto t0 = Clock::now();
    world = std::make_unique<sim::World>(scfg);
    builds.push_back(seconds_between(t0, Clock::now()));
    spans.end(span);
  }
  const std::size_t draws = venue_draws(lossy);
  std::vector<std::vector<sim::RunConfig>> mixes, traced_mixes;
  for (std::size_t d = 0; d < draws; ++d) {
    mixes.push_back(venue_mix(*world, lossy, args.short_mode, d));
    traced_mixes.push_back(mixes.back());
    for (auto& run : traced_mixes.back()) run.obs.enabled = true;
  }

  // Reference: one digest per run of every draw, in draw order, from the
  // plain sim::run_campaign path. It doubles as the warm-up pass.
  std::vector<std::string> reference;
  {
    const int span = spans.begin("bench.reference", root);
    std::vector<sim::RunConfig> all;
    for (const auto& mix : mixes) all.insert(all.end(), mix.begin(), mix.end());
    reference = reference_digests(*world, all);
    spans.end(span);
  }

  j.field("draws", static_cast<std::uint64_t>(draws));
  j.key("setup_s").begin_array();
  for (const double b : builds) j.value(b);
  j.end_array();
  j.key("reference").begin_array();
  for (const auto& d : reference) j.value(d);
  j.end_array();

  j.key("reps").begin_array();
  const std::size_t cycle = cycle_length(args, draws);
  double timed_s = 0.0, cycle_s = 0.0, last_cycle_s = 0.0;
  std::size_t reps = 0;
  while (more_reps(args, cycle, reps, timed_s, last_cycle_s)) {
    // In traced mode odd repetitions are the traced ones; each pair runs
    // the same draw.
    const bool traced = args.trace && reps % 2 == 1;
    const std::size_t draw = (args.trace ? reps / 2 : reps) % draws;
    const auto& mix = traced ? traced_mixes[draw] : mixes[draw];
    sim::ParallelStats pstats;
    const int call = spans.begin(
        traced ? "sim.run_campaigns" : "bench.untraced_rep", root);
    const std::uint64_t a0 = bench::alloc_count();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const std::vector<sim::RunOutput> outs = sim::run_campaigns(
        *world, mix, sim::ParallelConfig(threads), &pstats);
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = cpu_seconds() - c0;
    const std::uint64_t allocs = bench::alloc_count() - a0;
    spans.end(call, static_cast<int>(pstats.workers));
    timed_s += wall;
    cycle_s += wall;
    if (++reps % cycle == 0) {
      last_cycle_s = cycle_s;
      cycle_s = 0.0;
    }

    const int verify = spans.begin("bench.verify", root);
    std::uint64_t deliveries = 0, transmissions = 0;
    std::uint64_t q_processed = 0, q_scheduled = 0, q_reuses = 0;
    std::uint64_t q_peak = 0, lost = 0, corrupted = 0, retries = 0;
    std::uint64_t clients = 0, broadcast = 0, broadcast_hit = 0, hits = 0;
    std::uint64_t trace_dropped = 0;
    sim::PhaseProfile phases;
    std::map<std::string, double> metrics;
    j.begin_object();
    j.field("traced", traced).field("draw", static_cast<std::uint64_t>(draw));
    j.field("wall_s", wall).field("cpu_s", cpu).field("allocs", allocs);
    j.key("runs").begin_array();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const sim::RunOutput& o = outs[i];
      const bool failed = o.error.failed();
      j.begin_object()
          .field("digest", failed ? std::string("error")
                                  : hex64(run_digest(o)))
          .field("run_s",
                 o.phases.setup_s + o.phases.sim_s + o.phases.analysis_s)
          .end_object();
      if (failed) {
        std::fprintf(stderr, "perfbench: run %zu failed: %s\n", i,
                     o.error.str().c_str());
      }
      deliveries += o.frames_delivered;
      transmissions += o.frames_transmitted;
      q_processed += o.queue_stats.processed;
      q_scheduled += o.queue_stats.scheduled;
      q_reuses += o.queue_stats.slab_reuses;
      q_peak = std::max(q_peak, o.queue_stats.peak_pending);
      lost += o.medium_stats.frames_lost;
      corrupted += o.medium_stats.frames_corrupted;
      retries += o.medium_stats.retries;
      clients += o.result.total_clients;
      broadcast += o.result.broadcast_clients;
      broadcast_hit += o.result.broadcast_connected;
      hits += o.result.direct_connected + o.result.broadcast_connected;
      trace_dropped += o.trace_dropped;
      phases.setup_s += o.phases.setup_s;
      phases.sim_s += o.phases.sim_s;
      phases.analysis_s += o.phases.analysis_s;
      if (traced) {
        fold_metrics(o.metrics, metrics);
        const int r = spans.add(
            "campaign.run", call,
            o.phases.setup_s + o.phases.sim_s + o.phases.analysis_s);
        spans.add("run.setup", r, o.phases.setup_s);
        spans.add("run.sim", r, o.phases.sim_s);
        spans.add("run.analysis", r, o.phases.analysis_s);
      }
    }
    j.end_array();
    j.field("deliveries", deliveries).field("transmissions", transmissions);
    j.key("phases")
        .begin_object()
        .field("setup_s", phases.setup_s)
        .field("sim_s", phases.sim_s)
        .field("analysis_s", phases.analysis_s)
        .end_object();
    j.key("pool").begin_object();
    j.field("workers", static_cast<std::uint64_t>(pstats.workers))
        .field("wall_s", pstats.wall_s)
        .field("retries", pstats.retries);
    j.key("busy_s").begin_array();
    for (const auto& l : pstats.loads) j.value(l.busy_s);
    j.end_array().end_object();
    j.key("queue")
        .begin_object()
        .field("processed", q_processed)
        .field("scheduled", q_scheduled)
        .field("slab_reuses", q_reuses)
        .field("peak_pending", q_peak)
        .end_object();
    j.key("channel")
        .begin_object()
        .field("frames_lost", lost)
        .field("frames_corrupted", corrupted)
        .field("retries", retries)
        .end_object();
    j.key("outcome")
        .begin_object()
        .field("clients", clients)
        .field("broadcast_clients", broadcast)
        .field("broadcast_connected", broadcast_hit)
        .field("connected", hits)
        .end_object();
    j.field("trace_dropped", trace_dropped);
    j.key("metrics").begin_object();
    for (const auto& [name, v] : metrics) j.field(name, v);
    j.end_object();
    j.end_object();
    spans.end(verify);
  }
  j.end_array();
  spans.end(root);
  j.key("spans");
  spans.write(j);
}

// --------------------------------------------------------- city workload

sim::ShardedCityConfig city_config(const Args& args) {
  sim::ShardedCityConfig cfg;
  cfg.radios = args.short_mode ? 4000 : 100000;
  cfg.ap_fraction = 0.3;
  cfg.grid.rows = 2;  // 8x2 districts of 500 m
  cfg.duration = support::SimTime::seconds(args.short_mode ? 0.25 : 0.5);
  cfg.seed = args.seed;
  return cfg;
}

void write_city_result(Json& j, const sim::ShardedCityResult& r) {
  j.field("digest", hex64(r.delivery_digest))
      .field("transmissions", r.transmissions)
      .field("deliveries", r.deliveries);
}

void run_city(const Args& args, Json& j) {
  Spans spans(args.trace);
  const int root = spans.begin("workload." + args.workload, -1);
  sim::ShardedCityConfig cfg = city_config(args);

  // Reference: the 1-shard run — the program's own shard-invariance
  // contract says every shard count delivers the same multiset. It doubles
  // as the warm-up pass.
  {
    const int span = spans.begin("bench.reference", root);
    sim::ShardedCityConfig ref = cfg;
    ref.shards = 1;
    ref.workers = 1;
    const sim::ShardedCityResult r = sim::run_sharded_city(ref);
    spans.end(span);
    j.key("reference").begin_object();
    write_city_result(j, r);
    j.end_object();
  }

  cfg.shards = 4;
  cfg.workers = 2;
  j.field("draws", std::uint64_t{1});
  j.key("reps").begin_array();
  const std::size_t cycle = cycle_length(args, 1);
  double timed_s = 0.0, cycle_s = 0.0, last_cycle_s = 0.0;
  std::size_t reps = 0;
  while (more_reps(args, cycle, reps, timed_s, last_cycle_s)) {
    const bool traced = args.trace && reps % 2 == 1;
    const int call = spans.begin(
        traced ? "sim.run_sharded_city" : "bench.untraced_rep", root);
    const std::uint64_t a0 = bench::alloc_count();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    bool failed = false;
    sim::ShardedCityResult r;
    try {
      r = sim::run_sharded_city(cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: city run failed: %s\n", e.what());
      failed = true;
    }
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = cpu_seconds() - c0;
    const std::uint64_t allocs = bench::alloc_count() - a0;
    spans.end(call);
    timed_s += wall;
    cycle_s += wall;
    if (++reps % cycle == 0) {
      last_cycle_s = cycle_s;
      cycle_s = 0.0;
    }
    if (traced && !failed) {
      spans.add("city.setup", call, r.phases.setup_s);
      const int loop =
          spans.add("city.loop", call, r.wall_s, static_cast<int>(r.workers));
      for (const auto& s : r.per_shard) spans.add("shard.busy", loop, s.busy_s);
    }

    j.begin_object();
    j.field("traced", traced).field("failed", failed);
    j.field("wall_s", wall).field("cpu_s", cpu).field("allocs", allocs);
    write_city_result(j, r);
    j.field("setup_s", r.phases.setup_s).field("loop_s", r.wall_s);
    j.field("workers", static_cast<std::uint64_t>(r.workers));
    j.field("epochs", static_cast<std::uint64_t>(r.epochs));
    j.field("handoffs", r.handoffs).field("events", r.events_processed);
    j.key("shard_busy_s").begin_array();
    for (const auto& s : r.per_shard) j.value(s.busy_s);
    j.end_array();
    j.end_object();
  }
  j.end_array();
  spans.end(root);
  j.key("spans");
  spans.write(j);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Json j;
  j.begin_object();
  j.field("workload", args.workload).field("seed", args.seed);
  j.field("short", args.short_mode).field("trace", args.trace);
  j.key("build")
      .begin_object()
      .field("compiler", PERFBENCH_COMPILER)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("avx2", __builtin_cpu_supports("avx2") != 0)
      .field("avx512f", __builtin_cpu_supports("avx512f") != 0)
      .end_object();
  try {
    if (args.workload == "venue_campaign" || args.workload == "lossy_venue") {
      run_venue(args, j);
    } else if (args.workload == "city_100k") {
      run_city(args, j);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
  j.field("peak_rss_mb", peak_rss_mb());
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
