// Throughput of the sharded runtime vs the sequential StreamManager.
//
// Sweeps shard count x fleet size, driving identical workloads through
// both, and reports ticks/sec plus speedup as machine-readable JSON on
// stdout (one object; see docs/runtime.md for the schema) so the perf
// trajectory can be tracked across changes. The "sequential" baseline is
// StreamManager, i.e. a one-shard engine behind a facade (no worker
// threads; the tick runs on the calling thread), so the 1-shard row
// times the same code twice and its speedup should read about 1.0.
//
// Flags: --sources=1000,10000 --shards=1,2,4,8,16 --ticks=200
//        --delta=2.0 --faults --trace
// Each run also cross-checks a sample of per-source answers against the
// sequential baseline (the runtime's determinism contract), so a perf
// win can never silently come from diverging behavior.
//
// --faults injects the deterministic chaos cocktail (bursty loss, ACK
// loss, delay, corruption) through the hardened protocol; per-source
// fault schedules keep the equivalence check bit-exact even then. Every
// row reports the protocol fault/recovery counters so bench_compare.py
// can gate on resync storms as well as on throughput.
//
// --trace re-runs every workload with the observability sinks enabled
// (including wall-clock tick-latency timing) and reports the overhead
// plus a metrics digest per row; bench_compare.py gates the overhead at
// 5%. The primary throughput numbers always come from the untraced run.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dsms/stream_manager.h"
#include "models/model_factory.h"
#include "obs/metrics_registry.h"
#include "obs/trace_sink.h"
#include "runtime/sharded_engine.h"

namespace dkf::bench {
namespace {

struct Config {
  std::vector<int> fleet_sizes = {1000, 10000};
  std::vector<int> shard_counts = {1, 2, 4, 8, 16};
  int ticks = 200;
  double delta = 2.0;
  bool faults = false;
  bool trace = false;
};

std::vector<int> ParseIntList(const char* text) {
  std::vector<int> values;
  for (const char* p = text; *p != '\0';) {
    values.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return values;
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sources=", 0) == 0) {
      config.fleet_sizes = ParseIntList(arg.c_str() + 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      config.shard_counts = ParseIntList(arg.c_str() + 9);
    } else if (arg.rfind("--ticks=", 0) == 0) {
      // Clamp to >= 1: zero ticks would make every rate 0/0 -> NaN,
      // which is not valid JSON.
      config.ticks = std::max(1, std::atoi(arg.c_str() + 8));
    } else if (arg.rfind("--delta=", 0) == 0) {
      config.delta = std::atof(arg.c_str() + 8);
    } else if (arg == "--faults") {
      config.faults = true;
    } else if (arg == "--trace") {
      config.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return config;
}

/// The deterministic chaos cocktail for --faults runs: bursty loss, ACK
/// loss, one-tick delays, and corruption, drawn from per-source RNG
/// streams so the sequential/sharded equivalence check stays bit-exact.
ChannelOptions FaultChannel() {
  ChannelOptions channel;
  channel.seed = 77;
  channel.per_source_rng = true;
  channel.fault.gilbert_elliott = GilbertElliottLoss{
      /*p_good_to_bad=*/0.05, /*p_bad_to_good=*/0.3,
      /*good_loss=*/0.0, /*bad_loss=*/1.0};
  channel.fault.delay = DelayModel{/*min_ticks=*/0, /*max_ticks=*/1};
  channel.fault.ack_loss_probability = 0.05;
  channel.fault.corruption_probability = 0.02;
  return channel;
}

ProtocolOptions FaultProtocol() {
  ProtocolOptions protocol;
  protocol.heartbeat_interval = 8;
  protocol.staleness_budget = 16;
  return protocol;
}

StateModel FleetModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

/// Deterministic per-source signal: a drifting sinusoid whose phase and
/// rate vary by source, so each tick produces a realistic mix of
/// suppressed and transmitted readings.
double SourceValue(int source_id, int tick) {
  const double phase = 0.37 * source_id;
  const double rate = 0.02 + 0.00001 * (source_id % 97);
  return 25.0 * std::sin(rate * tick + phase) + 0.01 * tick;
}

/// Registers `fleet` sources with one point query each and returns the
/// reusable readings map (values rewritten in place every tick).
template <typename System>
std::map<int, Vector> SetUpFleet(System& system, int fleet, double delta) {
  std::map<int, Vector> readings;
  const StateModel model = FleetModel();
  for (int id = 0; id < fleet; ++id) {
    if (!system.RegisterSource(id, model).ok()) std::abort();
    ContinuousQuery query;
    query.id = id + 1;
    query.source_id = id;
    query.precision = delta;
    if (!system.SubmitQuery(query).ok()) std::abort();
    readings[id] = Vector{SourceValue(id, 0)};
  }
  return readings;
}

/// Peak resident set size of the whole process, in bytes. Linux
/// reports ru_maxrss in kilobytes. High-water, not current: within a
/// sweep only the largest workload's row reflects its own footprint.
int64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

/// CPU time consumed by the whole process, in seconds. Does not advance
/// while threads are descheduled, so traced-vs-untraced overhead ratios
/// stay meaningful on a contended shared machine where wall-clock
/// comparisons of two back-to-back runs are mostly scheduler noise.
double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename System>
double TimeTicks(System& system, std::map<int, Vector>& readings,
                 int ticks, double* cpu_seconds) {
  const double cpu_start = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < ticks; ++t) {
    for (auto& [id, value] : readings) value[0] = SourceValue(id, t);
    if (!system.ProcessTick(readings).ok()) std::abort();
  }
  const auto end = std::chrono::steady_clock::now();
  *cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return std::chrono::duration<double>(end - start).count();
}

struct RunResult {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Sampled per-source answers for the equivalence cross-check.
  std::vector<double> sample_answers;
  int64_t uplink_messages = 0;
  ProtocolFaultStats faults;
};

template <typename System>
RunResult RunWorkload(System& system, int fleet, int ticks, double delta) {
  std::map<int, Vector> readings = SetUpFleet(system, fleet, delta);
  RunResult result;
  result.seconds = TimeTicks(system, readings, ticks, &result.cpu_seconds);
  for (int id = 0; id < fleet; id += std::max(1, fleet / 64)) {
    result.sample_answers.push_back(system.Answer(id).value()[0]);
  }
  result.uplink_messages = system.uplink_traffic().messages;
  result.faults = system.fault_stats();
  return result;
}

/// The --trace digest: one extra run of the same workload with sinks
/// (and wall-clock timing) enabled, summarized via the merged metrics
/// snapshot. The ring is kept small — the per-kind counters behind the
/// digest stay exact no matter how often it wraps.
struct TraceDigest {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double suppression_ratio = 0.0;
  int64_t suppress = 0;
  int64_t transmit = 0;
};

/// Sink configuration for --trace runs: timing on, and a small ring —
/// the digest reads only the (always-exact) counters, and a ring that
/// fits in L1 keeps the event writes from fighting the filter state for
/// cache on small machines.
ObsOptions BenchObsOptions() {
  ObsOptions obs;
  obs.ring_capacity = 1 << 8;
  obs.record_timing = true;
  return obs;
}

template <typename System>
TraceDigest RunTracedWorkload(System& system, int fleet, int ticks,
                              double delta) {
  if (!system.EnableTracing(BenchObsOptions()).ok()) std::abort();
  TraceDigest digest;
  const RunResult run = RunWorkload(system, fleet, ticks, delta);
  digest.seconds = run.seconds;
  digest.cpu_seconds = run.cpu_seconds;
  const MetricsRegistry metrics = system.MetricsSnapshot();
  digest.suppression_ratio = metrics.gauge("suppression_ratio");
  digest.suppress = metrics.counter("trace.suppress");
  digest.transmit = metrics.counter("trace.transmit");
  return digest;
}

/// Measures tracing overhead by interleaving untraced and traced chunks
/// of one continuous run on one system and comparing each variant's
/// fastest chunk on the process-CPU clock. Same process, same warmed
/// fleet, same caches — the only difference between chunks is whether
/// the sinks are wired, which isolates the instrumentation cost from
/// the scheduler and cache luck that dominates comparisons of whole
/// back-to-back runs on a shared machine (contention only ever adds
/// time, so each variant's minimum is its robust estimate). Chunks run
/// in ABBA order, not strict alternation: periodic contention can
/// phase-lock with a period-2 schedule and starve one variant of every
/// quiet slot.
template <typename System>
double MeasureObsOverheadPct(System& system, int fleet, int ticks,
                             double delta) {
  std::map<int, Vector> readings = SetUpFleet(system, fleet, delta);
  constexpr int kChunksPerVariant = 16;
  const int chunk_ticks = std::max(1, ticks / (2 * kChunksPerVariant));
  double cpu = 0.0;
  // Warmup: converge the filters and arm fast paths before measuring.
  TimeTicks(system, readings, chunk_ticks, &cpu);
  double plain_cpu = std::numeric_limits<double>::infinity();
  double traced_cpu = std::numeric_limits<double>::infinity();
  for (int chunk = 0; chunk < 2 * kChunksPerVariant; ++chunk) {
    const bool traced = chunk % 4 == 1 || chunk % 4 == 2;
    if (traced) {
      if (!system.EnableTracing(BenchObsOptions()).ok()) std::abort();
    } else {
      system.DisableTracing();
    }
    TimeTicks(system, readings, chunk_ticks, &cpu);
    double& best = traced ? traced_cpu : plain_cpu;
    best = std::min(best, cpu);
  }
  system.DisableTracing();
  return (traced_cpu / plain_cpu - 1.0) * 100.0;
}

}  // namespace
}  // namespace dkf::bench

int main(int argc, char** argv) {
  using namespace dkf;
  using namespace dkf::bench;
  const Config config = ParseArgs(argc, argv);

  std::printf("{\n  \"benchmark\": \"runtime_throughput\",\n");
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"ticks\": %d,\n  \"delta\": %g,\n  \"faults\": %s,\n"
              "  \"trace\": %s,\n  \"obs_enabled\": %s,\n  \"results\": [",
              config.ticks, config.delta, config.faults ? "true" : "false",
              config.trace ? "true" : "false",
              DKF_OBS_ENABLED ? "true" : "false");

  bool first = true;
  for (int fleet : config.fleet_sizes) {
    // Sequential baseline for this fleet size.
    StreamManagerOptions seq_options;
    if (config.faults) {
      seq_options.channel = FaultChannel();
      seq_options.protocol = FaultProtocol();
    }
    StreamManager manager(seq_options);
    const RunResult baseline =
        RunWorkload(manager, fleet, config.ticks, config.delta);
    const double seq_tps = config.ticks / baseline.seconds;

    for (int shards : config.shard_counts) {
      ShardedStreamEngineOptions options;
      options.num_shards = shards;
      if (config.faults) {
        options.channel = FaultChannel();
        options.protocol = FaultProtocol();
      }
      ShardedStreamEngine engine(options);
      const RunResult run =
          RunWorkload(engine, fleet, config.ticks, config.delta);

      TraceDigest traced;
      double obs_overhead_pct = 0.0;
      if (config.trace) {
        // One full traced run for the metrics digest, then the chunked
        // within-run overhead measurement on a fresh engine.
        ShardedStreamEngine traced_engine(options);
        traced = RunTracedWorkload(traced_engine, fleet, config.ticks,
                                   config.delta);
        ShardedStreamEngine chunk_engine(options);
        obs_overhead_pct = MeasureObsOverheadPct(chunk_engine, fleet,
                                                 config.ticks, config.delta);
      }

      bool equivalent = run.uplink_messages == baseline.uplink_messages &&
                        run.faults.resyncs_sent ==
                            baseline.faults.resyncs_sent &&
                        run.faults.resyncs_applied ==
                            baseline.faults.resyncs_applied;
      for (size_t i = 0; i < run.sample_answers.size(); ++i) {
        if (run.sample_answers[i] != baseline.sample_answers[i]) {
          equivalent = false;
        }
      }
      const double tps = config.ticks / run.seconds;
      std::printf(
          "%s\n    {\"sources\": %d, \"shards\": %d, \"seconds\": %.6f, "
          "\"ticks_per_sec\": %.2f, \"source_ticks_per_sec\": %.0f, "
          "\"sources_per_sec\": %.0f, \"peak_rss_bytes\": %lld, "
          "\"sequential_ticks_per_sec\": %.2f, "
          "\"speedup_vs_sequential\": %.3f, \"equivalent\": %s, "
          "\"divergence_events\": %lld, \"resyncs_sent\": %lld, "
          "\"resyncs_applied\": %lld, \"degraded_ticks\": %lld, "
          "\"max_recovery_ticks\": %lld, \"rejected_corrupt\": %lld",
          first ? "" : ",", fleet, engine.num_shards(), run.seconds, tps,
          tps * fleet, tps * fleet,
          static_cast<long long>(PeakRssBytes()), seq_tps, tps / seq_tps,
          equivalent ? "true" : "false",
          static_cast<long long>(run.faults.divergence_events),
          static_cast<long long>(run.faults.resyncs_sent),
          static_cast<long long>(run.faults.resyncs_applied),
          static_cast<long long>(run.faults.degraded_ticks),
          static_cast<long long>(run.faults.max_recovery_ticks),
          static_cast<long long>(run.faults.rejected_corrupt));
      if (config.trace) {
        std::printf(
            ",\n     \"traced_seconds\": %.6f, \"obs_overhead_pct\": %.2f, "
            "\"suppression_ratio\": %.4f, \"trace_suppress\": %lld, "
            "\"trace_transmit\": %lld",
            traced.seconds, obs_overhead_pct, traced.suppression_ratio,
            static_cast<long long>(traced.suppress),
            static_cast<long long>(traced.transmit));
      }
      std::printf("}");
      first = false;
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
