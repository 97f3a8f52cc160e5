// End-to-end benchmark of the whole DKF tick, driven through the public
// ShardedStreamEngine API only.
//
// One closed loop, one driver thread, one tick in flight. Each cycle
// writes tick t's readings (untimed), then times ProcessTick +
// DrainNotifications + the workload's answer reads + its control calls.
// Run with --trace 0 for the end-to-end metrics, --trace 1 for the
// per-layer ones (a traced half measured against an untraced half of the
// same run). The last stdout line is one JSON object; see README.md.
//
//   e2ebench --workload fleet_steady --seed 1 --seconds 10 --trace 0
//            [--size full|tiny] [--corrupt-answers] [--workdir DIR]

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsms/message.h"
#include "runtime/sharded_engine.h"
#include "span_trace.h"
#include "workload.h"

namespace e2ebench {
namespace {

using dkf::ShardedStreamEngine;
using dkf::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_answers = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--corrupt-answers") {
      args->corrupt_answers = true;
    } else if (!has_value) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    } else if (flag == "--workload") {
      args->workload = argv[++i];
    } else if (flag == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args->trace = std::string(argv[++i]) == "1";
    } else if (flag == "--size") {
      args->tiny = std::string(argv[++i]) == "tiny";
    } else if (flag == "--workdir") {
      args->workdir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0.0)) {
    std::fprintf(stderr, "need --workload and --seconds > 0\n");
    return false;
  }
  return true;
}

/// CPU time all threads of this process have used, in nanoseconds. It
/// leaves out time a thread waits (for a lock, for the join, or for a
/// host that took its virtual CPU away), so on a shared machine it
/// varies far less between runs than wall time.
int64_t ProcessCpuNs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

/// CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

/// A fixed piece of CPU work that shares nothing with the engine. The
/// driver runs it right before every cycle, on the driver thread, and
/// its CPU time says how fast the host runs that core and its memory at
/// that moment. On a shared host both drifted by up to a third, over
/// seconds and from run to run, and the cycles' CPU time drifted with
/// them; in trial runs the cycles' cost in runs of this kernel spread a
/// quarter to three quarters as much.
/// It has two parts of similar length:
///  - a core part, a dependent chain of integer hashing over a 4 KiB
///    table with a bounded multiply-add beside it, which follows the
///    core's clock;
///  - a memory part, random read-modify-writes over an 8 MiB table, four
///    times the size of a core's L2, which follows the latency of the
///    shared cache and the host's page walks.
/// Both tables are read once, untimed, before the timed pass, so what the
/// cycle left in the caches does not move the result.
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(kTableSize), memory_(kMemoryWords, 1.0) {
    for (size_t i = 0; i < table_.size(); ++i) {
      table_[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
    }
  }

  /// CPU time of one timed pass, in nanoseconds.
  int64_t TimeNs() {
    CorePass(kTableSize);
    double warm = 0.0;
    for (size_t i = 0; i < memory_.size(); i += kWordsPerLine) {
      warm += memory_[i];
    }
    const int64_t start = ThreadCpuNs();
    CorePass(kCoreIterations);
    const double memory = MemoryPass();
    const int64_t elapsed = ThreadCpuNs() - start;
    sink_ = warm + memory;
    return elapsed;
  }

 private:
  static constexpr size_t kTableSize = 512;
  static constexpr size_t kCoreIterations = 12000;
  static constexpr size_t kMemoryWords = size_t{1} << 20;
  static constexpr size_t kMemoryReads = 10000;
  static constexpr size_t kWordsPerLine = 64 / sizeof(double);

  void CorePass(size_t iterations) {
    uint64_t h = state_;
    double x = 1.0;
    for (size_t i = 0; i < iterations; ++i) {
      h = (h ^ table_[h & (kTableSize - 1)]) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 29;
      // Stays in [0, 1]: never subnormal, never overflows.
      x = x * 0.9990234375 + 0.0009765625 * static_cast<double>(h & 1);
    }
    state_ = h + static_cast<uint64_t>(x);
  }

  double MemoryPass() {
    uint64_t x = state_;
    double acc = 4.0;
    for (size_t i = 0; i < kMemoryReads; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      double& word = memory_[(x >> 33) & (kMemoryWords - 1)];
      // A fixed point: acc stays 4 and every word stays exactly 1.
      acc = acc * 0.75 + word;
      word = acc * 0.25;
    }
    return acc;
  }

  std::vector<uint64_t> table_;
  std::vector<double> memory_;
  uint64_t state_ = 1;
  volatile double sink_ = 0.0;
};

/// Wall time and process CPU time of one timed operation.
struct Elapsed {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
};

class Stopwatch {
 public:
  Stopwatch() : wall_(NowNs()), cpu_(ProcessCpuNs()) {}
  Elapsed Read() const { return {NowNs() - wall_, ProcessCpuNs() - cpu_}; }

 private:
  int64_t wall_;
  int64_t cpu_;
};

std::vector<int64_t> Walls(const std::vector<Elapsed>& samples) {
  std::vector<int64_t> out;
  for (const Elapsed& e : samples) out.push_back(e.wall_ns);
  return out;
}

std::vector<int64_t> Cpus(const std::vector<Elapsed>& samples) {
  std::vector<int64_t> out;
  for (const Elapsed& e : samples) out.push_back(e.cpu_ns);
  return out;
}

/// Current resident set size of this process, in bytes.
int64_t CurrentRssBytes() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int read = std::fscanf(file, "%lld %lld", &size, &resident);
  std::fclose(file);
  return read == 2 ? resident * sysconf(_SC_PAGESIZE) : 0;
}

/// Bytes the allocator has handed out and not yet taken back, over all
/// arenas. Unlike the resident set it does not depend on which freed
/// pages the allocator kept or returned, so it repeats from run to run.
int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
double Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]);
}

double Median(std::vector<int64_t> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? static_cast<double>(samples[n / 2])
                    : 0.5 * static_cast<double>(samples[n / 2 - 1] +
                                                samples[n / 2]);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Median of numerators[i] / denominators[i].
double RatioMedian(const std::vector<int64_t>& numerators,
                   const std::vector<int64_t>& denominators) {
  std::vector<double> ratios;
  for (size_t i = 0; i < numerators.size(); ++i) {
    ratios.push_back(Ratio(static_cast<double>(numerators[i]),
                           static_cast<double>(denominators[i])));
  }
  if (ratios.empty()) return 0.0;
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  return n % 2 == 1 ? ratios[n / 2] : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
}

/// Counts operations attempted and failed; keeps the first few failure
/// messages for stderr.
class Ledger {
 public:
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(const std::string& what) { Record(0, 1, what); }
  void Record(int64_t attempted, int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && notes_.size() < 8) notes_.push_back(what);
  }
  bool Check(const Status& status, const char* what) {
    ++attempted_;
    if (status.ok()) return true;
    Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  bool Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// What one tick's planned calls returned.
struct TickResults {
  std::vector<dkf::NotificationBatch> notifications;
  std::vector<dkf::Result<dkf::ServerNode::ConfidentAnswer>> answers;
  std::vector<dkf::Result<dkf::Vector>> fused;
  std::vector<dkf::Result<double>> aggregates;
  int64_t process_tick_ns = 0;
  bool saved = false;
  Elapsed save;
};

/// Runs tick `workload.plan()` against `engine`: the tick itself, the
/// drain, the reads and the control calls, each in its own span.
void ExecutePlan(ShardedStreamEngine& engine, const Workload& workload,
                 const std::string& save_path, SpanTrace& trace,
                 Ledger& ledger, TickResults* out) {
  const TickPlan& plan = workload.plan();
  out->answers.clear();
  out->fused.clear();
  out->aggregates.clear();
  out->saved = false;
  {
    SpanTrace::Scope span(trace, "runtime.process_tick");
    const int64_t start = NowNs();
    ledger.Check(engine.ProcessTick(workload.batch()), "ProcessTick");
    out->process_tick_ns = NowNs() - start;
  }
  {
    SpanTrace::Scope span(trace, "serve.drain");
    out->notifications = engine.DrainNotifications();
  }
  for (int id : plan.answer_ids) {
    SpanTrace::Scope span(trace, "query.answer");
    out->answers.push_back(engine.AnswerWithConfidence(id));
  }
  for (int group : plan.fused_groups) {
    SpanTrace::Scope span(trace, "fusion.answer");
    out->fused.push_back(engine.AnswerFused(group));
  }
  for (int aggregate : plan.aggregate_ids) {
    SpanTrace::Scope span(trace, "query.aggregate_answer");
    // The declared-order sum: bit-identical at any shard count.
    out->aggregates.push_back(engine.AnswerAggregateCanonical(aggregate));
  }
  for (int query : plan.remove_queries) {
    SpanTrace::Scope span(trace, "query.remove");
    ledger.Check(engine.RemoveQuery(query), "RemoveQuery");
  }
  for (const dkf::ContinuousQuery& query : plan.submit_queries) {
    SpanTrace::Scope span(trace, "query.submit");
    ledger.Check(engine.SubmitQuery(query), "SubmitQuery");
  }
  for (int64_t id : plan.unsubscribe) {
    SpanTrace::Scope span(trace, "serve.unsubscribe");
    ledger.Check(engine.Unsubscribe(id), "Unsubscribe");
  }
  for (const dkf::Subscription& sub : plan.subscribe) {
    SpanTrace::Scope span(trace, "serve.subscribe");
    ledger.Check(engine.Subscribe(sub), "Subscribe");
  }
  if (plan.save) {
    SpanTrace::Scope span(trace, "checkpoint.save");
    const Stopwatch watch;
    ledger.Check(engine.Save(save_path), "Save");
    out->save = watch.Read();
    out->saved = true;
  }
  for (const auto& answer : out->answers) {
    ledger.Check(answer.status(), "AnswerWithConfidence");
  }
  for (const auto& answer : out->fused) {
    ledger.Check(answer.status(), "AnswerFused");
  }
  for (const auto& answer : out->aggregates) {
    ledger.Check(answer.status(), "AnswerAggregateCanonical");
  }
}

/// Counter values a measured window differences.
struct Counters {
  dkf::ChannelStats uplink;
  dkf::FusionStats fusion;
  dkf::ServeStats serve;
  int64_t control_messages = 0;
  int64_t spills = 0;

  static Counters Read(const ShardedStreamEngine& engine) {
    Counters c;
    c.uplink = engine.uplink_traffic();
    c.fusion = engine.fusion_stats();
    c.serve = engine.serve_stats();
    c.control_messages = engine.control_messages();
    c.spills = engine.fleet_spill_count();
    return c;
  }
};

/// Everything measured over one window of timed cycles.
struct Window {
  std::vector<int64_t> cycle_ns;
  std::vector<int64_t> cycle_cpu_ns;
  // CPU time of the reference kernel run right before each cycle.
  std::vector<int64_t> ref_cpu_ns;
  std::vector<int64_t> process_tick_ns;
  std::vector<char> epoch_end;
  int64_t gen_ns = 0;
  double err_sq_sum = 0.0;
  int64_t err_count = 0;
  int64_t answers = 0;
  int64_t degraded = 0;
  Counters begin;
  Counters end;
  // Traced windows only.
  std::vector<int64_t> busy_sum_ns;
  std::vector<int64_t> busy_max_ns;
  double resident_sum = 0.0;

  int64_t cycles() const { return static_cast<int64_t>(cycle_ns.size()); }
  static int64_t Sum(const std::vector<int64_t>& values) {
    int64_t sum = 0;
    for (int64_t v : values) sum += v;
    return sum;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool applies = true;
};

class Runner {
 public:
  Runner(const Args& args, WorkloadConfig config)
      : args_(args),
        workload_(std::move(config), args.seed),
        trace_(false),
        save_path_(args.workdir + "/e2ebench-" + workload_.config().name +
                   ".snap") {}

  int Run();

 private:
  const WorkloadConfig& config() const { return workload_.config(); }
  double streams() const { return static_cast<double>(workload_.streams()); }

  /// Builds and populates a fresh engine, recording how long it took.
  void Setup(std::unique_ptr<ShardedStreamEngine>* engine);
  void SpareSetups();
  void RunCycle(Window* window);
  void RunWindow(double seconds, Window* window);
  void SampleShardBusy(Window* window);
  void FinalChecks();
  void CheckpointAndRestore();
  void TraceMetrics(const Window& untraced, const Window& traced);
  std::vector<Metric> EndToEndMetrics(const Window& window) const;

  Args args_;
  Workload workload_;
  SpanTrace trace_;
  ReferenceKernel reference_;
  Ledger ledger_;
  std::string save_path_;
  std::unique_ptr<ShardedStreamEngine> engine_;
  TickResults results_;
  std::vector<double> deltas_;
  std::vector<int64_t> updates_before_;
  int64_t drained_ = 0;
  int64_t cycle_id_ = 0;

  std::vector<Elapsed> setup_;
  std::vector<Elapsed> save_;
  std::vector<Elapsed> restore_;
  int64_t snapshot_bytes_ = 0;
  int64_t rss_growth_ = 0;
  int64_t heap_growth_ = 0;
  std::vector<double> shard_busy_prev_;
  std::vector<Metric> per_layer_;
};

void Runner::Setup(std::unique_ptr<ShardedStreamEngine>* engine) {
  const Stopwatch watch;
  *engine = std::make_unique<ShardedStreamEngine>(workload_.EngineOptions());
  ledger_.Check(workload_.Populate(**engine), "Populate");
  setup_.push_back(watch.Read());
}

/// Sets the workload up again and again, throwing each engine away, so
/// that setup_s is a median: at least three times, and on small workloads
/// until half a second has gone. The run does this before the workload
/// and again after it, so the median spans the host's state at both ends.
void Runner::SpareSetups() {
  int64_t total_ns = 0;
  for (int n = 0; n < 3 || (total_ns < 500'000'000 && n < 25); ++n) {
    std::unique_ptr<ShardedStreamEngine> spare;
    Setup(&spare);
    total_ns += setup_.back().wall_ns;
  }
}

void Runner::RunCycle(Window* window) {
  const int64_t tick = engine_->ticks();
  const int64_t gen_start = NowNs();
  workload_.Prepare(tick, /*allow_save=*/true);
  const int64_t gen_ns = NowNs() - gen_start;
  const TickPlan& plan = workload_.plan();

  // The delta in force during this tick, and each read source's update
  // count before it, decide afterwards which answers carry the guarantee.
  deltas_.clear();
  updates_before_.clear();
  for (int id : plan.answer_ids) {
    const auto delta = engine_->source_delta(id);
    const auto updates = engine_->updates_sent(id);
    deltas_.push_back(delta.ok() ? delta.value() : 0.0);
    updates_before_.push_back(updates.ok() ? updates.value() : -1);
  }
  const int64_t epochs_before =
      engine_->governor() != nullptr ? engine_->governor()->epochs() : 0;

  const int64_t ref_ns = reference_.TimeNs();

  trace_.set_cycle(cycle_id_++);
  const Stopwatch watch;
  {
    SpanTrace::Scope cycle(trace_, "cycle");
    ExecutePlan(*engine_, workload_, save_path_, trace_, ledger_, &results_);
  }
  const Elapsed cycle = watch.Read();

  // Everything below is bookkeeping and checking, outside the cycle.
  if (results_.saved) save_.push_back(results_.save);
  int64_t notified = 0;
  for (const auto& batch : results_.notifications) {
    notified += static_cast<int64_t>(batch.notifications.size());
  }
  drained_ += notified;
  ledger_.Attempt(notified);

  int64_t degraded = 0;
  int64_t read = 0;
  double err_sq_sum = 0.0;
  int64_t err_count = 0;
  for (size_t i = 0; i < plan.answer_ids.size(); ++i) {
    const auto& answer = results_.answers[i];
    if (!answer.ok()) continue;
    ++read;
    if (answer.value().degraded) {
      ++degraded;
      continue;
    }
    const int id = plan.answer_ids[i];
    const double delta = deltas_[i];
    const dkf::Vector& reading =
        workload_.batch().values[static_cast<size_t>(id)];
    double deviation = 0.0;
    for (size_t d = 0; d < reading.size(); ++d) {
      double value = answer.value().value[d];
      if (args_.corrupt_answers) value += 3.0 * delta;
      deviation = std::max(deviation, std::fabs(value - reading[d]));
    }
    const double normalized = Ratio(deviation, delta);
    err_sq_sum += normalized * normalized;
    ++err_count;
    // Invariant 2 (docs/protocol.md): on a tick the source suppressed, a
    // non-degraded answer is within delta of the reading.
    const auto updates = engine_->updates_sent(id);
    const bool suppressed =
        updates.ok() && updates.value() == updates_before_[i];
    if (suppressed && !(deviation <= delta)) {
      ledger_.Fail("delta breach on source " + std::to_string(id) +
                   " at tick " + std::to_string(tick));
    }
  }

  if (window == nullptr) return;
  window->cycle_ns.push_back(cycle.wall_ns);
  window->cycle_cpu_ns.push_back(cycle.cpu_ns);
  window->ref_cpu_ns.push_back(ref_ns);
  window->process_tick_ns.push_back(results_.process_tick_ns);
  window->epoch_end.push_back(engine_->governor() != nullptr &&
                              engine_->governor()->epochs() != epochs_before);
  window->gen_ns += gen_ns;
  window->answers += read;
  window->degraded += degraded;
  window->err_sq_sum += err_sq_sum;
  window->err_count += err_count;
  if (trace_.enabled()) {
    SampleShardBusy(window);
    window->resident_sum +=
        Ratio(static_cast<double>(engine_->fleet_resident_count()),
              config().sources);
  }
}

/// Per-shard busy time of the tick just run, from the shard sinks'
/// tick-latency histograms (record_timing on).
void Runner::SampleShardBusy(Window* window) {
  int64_t sum = 0;
  int64_t max = 0;
  shard_busy_prev_.resize(static_cast<size_t>(engine_->num_shards()), 0.0);
  for (int s = 0; s < engine_->num_shards(); ++s) {
    const dkf::TraceSink* sink = engine_->shard_sink(s);
    if (sink == nullptr) continue;
    const dkf::MetricsRegistry snapshot = sink->Snapshot();
    const dkf::HistogramSnapshot* latency =
        snapshot.histogram("tick_latency_ns");
    const double total = latency != nullptr ? latency->sum : 0.0;
    const int64_t busy = static_cast<int64_t>(
        total - shard_busy_prev_[static_cast<size_t>(s)]);
    shard_busy_prev_[static_cast<size_t>(s)] = total;
    sum += busy;
    max = std::max(max, busy);
  }
  window->busy_sum_ns.push_back(sum);
  window->busy_max_ns.push_back(max);
}

void Runner::RunWindow(double seconds, Window* window) {
  window->begin = Counters::Read(*engine_);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) RunCycle(window);
  window->end = Counters::Read(*engine_);
}

void Runner::FinalChecks() {
  ledger_.Check(engine_->VerifyLinkConsistency(), "VerifyLinkConsistency");
  ledger_.Check(engine_->VerifyFusedConsistency(), "VerifyFusedConsistency");
  for (const auto& batch : engine_->DrainNotifications()) {
    drained_ += static_cast<int64_t>(batch.notifications.size());
  }
  const dkf::ServeStats serve = engine_->serve_stats();
  // Every emitted notification was either drained here or evicted by
  // backpressure; an eviction is itself a failed delivery.
  ledger_.Expect(drained_ == serve.notifications - serve.dropped,
                 "serve identity: drained " + std::to_string(drained_) +
                     " != emitted " + std::to_string(serve.notifications) +
                     " - dropped " + std::to_string(serve.dropped));
  ledger_.Record(serve.dropped, serve.dropped,
                 "notifications dropped by backpressure");
}

/// Everything a restored engine must reproduce bit-for-bit.
struct TailRecord {
  std::vector<double> values;
  std::vector<dkf::NotificationBatch> notifications;
  std::vector<int64_t> counters;
};

void RecordTail(ShardedStreamEngine& engine, Workload& workload,
                int64_t first_tick, int ticks, Ledger& ledger,
                TailRecord* record) {
  SpanTrace untraced(false);
  TickResults results;
  for (int64_t t = first_tick; t < first_tick + ticks; ++t) {
    workload.Prepare(t, /*allow_save=*/false);
    ExecutePlan(engine, workload, "", untraced, ledger, &results);
    for (auto& batch : results.notifications) {
      record->notifications.push_back(std::move(batch));
    }
    for (const auto& answer : results.answers) {
      if (!answer.ok()) continue;
      const dkf::Vector& v = answer.value().value;
      record->values.insert(record->values.end(), v.data(),
                            v.data() + v.size());
      record->values.push_back(answer.value().degraded ? 1.0 : 0.0);
    }
    for (const auto& answer : results.fused) {
      if (answer.ok()) record->values.push_back(answer.value()[0]);
    }
    for (const auto& answer : results.aggregates) {
      if (answer.ok()) record->values.push_back(answer.value());
    }
  }
  const dkf::ChannelStats uplink = engine.uplink_traffic();
  const dkf::ProtocolFaultStats faults = engine.fault_stats();
  const dkf::FusionStats fusion = engine.fusion_stats();
  const dkf::ServeStats serve = engine.serve_stats();
  record->counters = {engine.ticks(),        uplink.messages,
                      uplink.bytes,          uplink.dropped,
                      uplink.corrupted,      uplink.delayed,
                      uplink.ack_lost,       faults.divergence_events,
                      faults.resyncs_sent,   faults.resyncs_applied,
                      faults.heartbeats_sent, faults.rejected_stale,
                      faults.rejected_corrupt, faults.degraded_ticks,
                      fusion.updates_applied, fusion.suppressed,
                      fusion.broadcasts,     fusion.broadcast_bytes,
                      serve.notifications,   serve.dropped,
                      serve.subscriptions};
}

/// Empty when the two tails match bit-for-bit; otherwise what differs.
std::string TailDifference(const TailRecord& a, const TailRecord& b) {
  if (a.values.size() != b.values.size() ||
      (!a.values.empty() &&
       std::memcmp(a.values.data(), b.values.data(),
                   a.values.size() * sizeof(double)) != 0)) {
    return "answers";
  }
  if (a.notifications != b.notifications) return "notifications";
  for (size_t i = 0; i < a.counters.size(); ++i) {
    if (a.counters[i] != b.counters[i]) {
      return "counter " + std::to_string(i) + " (" +
             std::to_string(a.counters[i]) + " vs " +
             std::to_string(b.counters[i]) + ")";
    }
  }
  return "";
}

/// Saves the engine a few times (the median is the pause), runs a short
/// tail on it, then restores the snapshot at another shard count a few
/// times and checks that the restored engine runs the same tail
/// bit-identically. Ends with the original engine destroyed.
void Runner::CheckpointAndRestore() {
  constexpr int kRepeats = 5;
  constexpr int kTailTicks = 8;
  for (int r = 0; r < kRepeats; ++r) {
    const Stopwatch watch;
    ledger_.Check(engine_->Save(save_path_), "Save");
    save_.push_back(watch.Read());
  }
  std::error_code error;
  snapshot_bytes_ =
      static_cast<int64_t>(std::filesystem::file_size(save_path_, error));

  Workload tail_workload = workload_;
  const int64_t first_tick = engine_->ticks();
  TailRecord original;
  RecordTail(*engine_, workload_, first_tick, kTailTicks, ledger_,
             &original);
  engine_.reset();

  std::unique_ptr<ShardedStreamEngine> restored;
  for (int r = 0; r < kRepeats; ++r) {
    restored.reset();
    const Stopwatch watch;
    auto restored_or = ShardedStreamEngine::Restore(
        save_path_, config().restore_shards, config().batched_fleet);
    restore_.push_back(watch.Read());
    if (!ledger_.Check(restored_or.status(), "Restore")) return;
    restored = std::move(restored_or).value();
  }
  TailRecord replay;
  RecordTail(*restored, tail_workload, first_tick, kTailTicks,
             ledger_, &replay);
  const std::string difference = TailDifference(original, replay);
  ledger_.Expect(difference.empty(),
                 "restore at " + std::to_string(config().restore_shards) +
                     " shards diverged from the original engine: " +
                     difference);
  restored.reset();
  std::filesystem::remove(save_path_, error);
}

std::vector<Metric> Runner::EndToEndMetrics(const Window& w) const {
  const double source_ticks = streams() * static_cast<double>(w.cycles());
  const double failed_ratio =
      Ratio(static_cast<double>(ledger_.failed()),
            static_cast<double>(ledger_.attempted()));
  return {
      // Wall clock: what a caller of the engine waits for.
      {"source_ticks_per_s",
       Ratio(source_ticks, static_cast<double>(Window::Sum(w.cycle_ns)) * 1e-9),
       "1/s"},
      {"cycle_p50_us", Percentile(w.cycle_ns, 0.50) * 1e-3, "us"},
      {"cycle_p99_us", Percentile(w.cycle_ns, 0.99) * 1e-3, "us"},
      {"checkpoint_pause_ms", Median(Walls(save_)) * 1e-6, "ms"},
      {"restore_s", Median(Walls(restore_)) * 1e-9, "s"},
      {"setup_wall_s", Median(Walls(setup_)) * 1e-9, "s"},
      // Process CPU time: the work the same calls did, on every thread.
      {"cpu_us_per_source_tick",
       Ratio(static_cast<double>(Window::Sum(w.cycle_cpu_ns)) * 1e-3,
             source_ticks),
       "us"},
      {"cycle_cpu_p50_us", Percentile(w.cycle_cpu_ns, 0.50) * 1e-3, "us"},
      {"cycle_cpu_p99_us", Percentile(w.cycle_cpu_ns, 0.99) * 1e-3, "us"},
      {"save_cpu_ms", Median(Cpus(save_)) * 1e-6, "ms"},
      {"restore_cpu_s", Median(Cpus(restore_)) * 1e-9, "s"},
      {"setup_s", Median(Cpus(setup_)) * 1e-9, "s"},
      // Process CPU time in runs of the reference kernel: the same work,
      // freed of how fast the host ran the core at the time.
      {"ref_kernel_us", Median(w.ref_cpu_ns) * 1e-3, "us"},
      {"norm_cost_per_source_tick",
       1e3 * Ratio(static_cast<double>(Window::Sum(w.cycle_cpu_ns)),
                   static_cast<double>(Window::Sum(w.ref_cpu_ns))) /
           streams(),
       "mref"},
      {"norm_cycle_cost_p50", RatioMedian(w.cycle_cpu_ns, w.ref_cpu_ns),
       "ref"},
      // Counts.
      {"uplink_bytes_per_source_tick",
       Ratio(static_cast<double>(w.end.uplink.bytes - w.begin.uplink.bytes),
             source_ticks),
       "B"},
      {"downlink_bytes_per_source_tick",
       Ratio(static_cast<double>(w.end.fusion.broadcast_bytes -
                                 w.begin.fusion.broadcast_bytes),
             source_ticks),
       "B", config().fusion_groups > 0},
      {"answer_err_over_delta",
       std::sqrt(Ratio(w.err_sq_sum, static_cast<double>(w.err_count))),
       "ratio"},
      {"degraded_answer_ratio",
       Ratio(static_cast<double>(w.degraded), static_cast<double>(w.answers)),
       "ratio", config().chaos},
      {"failed_op_ratio", failed_ratio, "ratio"},
      {"rss_bytes_per_source", Ratio(static_cast<double>(rss_growth_),
                                     streams()),
       "B"},
      {"heap_bytes_per_source", Ratio(static_cast<double>(heap_growth_),
                                      streams()),
       "B"},
  };
}

/// Per-layer metrics from the traced half, compared against the
/// untraced half of the same run where a ratio needs a baseline.
void Runner::TraceMetrics(const Window& untraced, const Window& w) {
  const double cycles = static_cast<double>(w.cycles());
  const double source_ticks = streams() * cycles;
  const double shards = engine_->num_shards();
  const std::vector<int64_t> self = trace_.SelfTimes();
  const std::vector<Span>& spans = trace_.spans();
  auto mean_self_us = [&](std::initializer_list<const char*> names) {
    double sum = 0.0;
    int64_t count = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      for (const char* name : names) {
        if (std::strcmp(spans[i].name, name) == 0) {
          sum += static_cast<double>(self[i]);
          ++count;
        }
      }
    }
    return Ratio(sum, static_cast<double>(count)) * 1e-3;
  };

  double busy_mean_sum = 0.0;
  double join_sum = 0.0;
  double skew_sum = 0.0;
  double busy_total = 0.0;
  double tick_total = 0.0;
  for (size_t i = 0; i < w.busy_sum_ns.size(); ++i) {
    const double mean_busy = static_cast<double>(w.busy_sum_ns[i]) / shards;
    busy_mean_sum += mean_busy;
    join_sum += static_cast<double>(w.process_tick_ns[i] - w.busy_max_ns[i]);
    skew_sum += Ratio(static_cast<double>(w.busy_max_ns[i]), mean_busy);
    busy_total += static_cast<double>(w.busy_sum_ns[i]);
    tick_total += static_cast<double>(w.process_tick_ns[i]);
  }

  const dkf::MetricsRegistry obs = engine_->MetricsSnapshot();
  auto count = [&](const char* kind) {
    return static_cast<double>(obs.counter(std::string("trace.") + kind));
  };
  double events = 0.0;
  for (const auto& [name, value] : obs.counters()) {
    if (name.rfind("trace.", 0) == 0 && name != "trace.dropped_events") {
      events += static_cast<double>(value);
    }
  }
  const double messages =
      static_cast<double>(w.end.uplink.messages - w.begin.uplink.messages);
  const double applied = count("update_applied") + count("fused_update");

  const dkf::FusionStats& f0 = w.begin.fusion;
  const dkf::FusionStats& f1 = w.end.fusion;
  const double fused_suppressed = static_cast<double>(f1.suppressed -
                                                      f0.suppressed);
  const double fused_sent =
      static_cast<double>(f1.transmissions - f0.transmissions);
  const double broadcast_bytes =
      static_cast<double>(f1.broadcast_bytes - f0.broadcast_bytes);

  std::vector<int64_t> epoch_cycles;
  std::vector<int64_t> plain_cycles;
  for (size_t i = 0; i < w.cycle_cpu_ns.size(); ++i) {
    (w.epoch_end[i] ? epoch_cycles : plain_cycles)
        .push_back(w.cycle_cpu_ns[i]);
  }
  const bool governed = config().governor && !epoch_cycles.empty();
  double budget_error = 0.0;
  double mean_delta = 0.0;
  if (config().governor) {
    // Fusion members are not governed: take their measurement bytes off.
    dkf::Message fused;
    fused.group_id = 0;
    fused.payload = dkf::Vector(1);
    const double governed_bytes =
        static_cast<double>(w.end.uplink.bytes - w.begin.uplink.bytes) -
        fused_sent * static_cast<double>(fused.SizeBytes());
    budget_error = std::fabs(
        Ratio(governed_bytes / cycles, config().budget_bytes_per_tick) - 1.0);
    double delta_sum = 0.0;
    for (int id = 0; id < config().sources; ++id) {
      const auto delta = engine_->source_delta(id);
      if (delta.ok()) delta_sum += delta.value();
    }
    mean_delta = delta_sum / config().sources;
  }

  const double untraced_p50 = Percentile(untraced.cycle_ns, 0.50);
  const double overhead =
      Ratio(RatioMedian(w.cycle_cpu_ns, w.ref_cpu_ns),
            RatioMedian(untraced.cycle_cpu_ns, untraced.ref_cpu_ns)) - 1.0;
  const int64_t residual = trace_.MaxReconcileResidualNs("cycle");
  ledger_.Expect(residual == 0, "span self times do not add up to the cycle");

  const bool fleet = config().batched_fleet;
  const bool fusion = config().fusion_groups > 0;
  const bool churn = config().query_churn > 0;
  const bool serving = config().subscriptions > 0;
  per_layer_ = {
      {"runtime.shard_busy_us", Ratio(busy_mean_sum, cycles) * 1e-3, "us"},
      {"runtime.join_us", Ratio(join_sum, cycles) * 1e-3, "us"},
      {"runtime.shard_skew", Ratio(skew_sum, cycles), "ratio"},
      {"runtime.utilization", Ratio(busy_total, shards * tick_total),
       "ratio"},
      {"fleet.resident_ratio", Ratio(w.resident_sum, cycles), "ratio", fleet},
      {"fleet.spills_per_ktick",
       1e3 * Ratio(static_cast<double>(w.end.spills - w.begin.spills), cycles),
       "1/ktick", fleet},
      {"dsms.transmit_ratio",
       Ratio(count("transmit"), config().sources * cycles), "ratio"},
      {"dsms.useful_ratio",
       Ratio(applied + count("resync_applied"), messages), "ratio"},
      {"dsms.resyncs_per_ksource_tick",
       1e3 * Ratio(count("resync_sent"), source_ticks), "1/ksource_tick"},
      {"dsms.rejected_per_ksource_tick",
       1e3 * Ratio(count("corrupt_reject") + count("stale_reject"),
                   source_ticks),
       "1/ksource_tick"},
      {"dsms.degraded_answer_ratio",
       Ratio(static_cast<double>(w.degraded), static_cast<double>(w.answers)),
       "ratio"},
      {"filter.corrections_per_source_tick", Ratio(applied, source_ticks),
       "1/source_tick"},
      {"query.answer_us", mean_self_us({"query.answer"}), "us"},
      {"query.reconfigure_us",
       mean_self_us({"query.submit", "query.remove"}), "us", churn},
      {"query.control_msgs_per_ktick",
       1e3 * Ratio(static_cast<double>(w.end.control_messages -
                                       w.begin.control_messages),
                   cycles),
       "1/ktick", churn || config().governor},
      {"serve.drain_us", mean_self_us({"serve.drain"}), "us"},
      {"serve.subscribe_us",
       mean_self_us({"serve.subscribe", "serve.unsubscribe"}), "us",
       config().sub_churn > 0},
      {"serve.affected_ratio",
       Ratio(static_cast<double>(w.end.serve.affected - w.begin.serve.affected),
             static_cast<double>(w.end.serve.touched - w.begin.serve.touched)),
       "ratio", serving},
      {"serve.notifications_per_tick",
       Ratio(static_cast<double>(w.end.serve.notifications -
                                 w.begin.serve.notifications),
             cycles),
       "1/tick", serving},
      {"fusion.suppressed_ratio",
       Ratio(fused_suppressed, fused_suppressed + fused_sent), "ratio",
       fusion},
      {"fusion.broadcasts_per_ktick",
       1e3 * Ratio(static_cast<double>(f1.broadcasts - f0.broadcasts), cycles),
       "1/ktick", fusion},
      {"fusion.broadcast_bytes_per_tick", Ratio(broadcast_bytes, cycles),
       "B/tick", fusion},
      {"fusion.downlink_bytes_per_source_tick",
       Ratio(broadcast_bytes, source_ticks), "B", fusion},
      {"governor.epoch_extra_us",
       governed ? (Median(epoch_cycles) - Median(plain_cycles)) * 1e-3 : 0.0,
       "us", governed},
      {"governor.budget_error", budget_error, "ratio", config().governor},
      {"governor.mean_delta", mean_delta, "signal_units", config().governor},
      // The checkpoint figures are filled in after the restore runs.
      {"checkpoint.bytes_per_source", 0.0, "B"},
      {"checkpoint.save_ms", 0.0, "ms"},
      {"checkpoint.restore_ms", 0.0, "ms"},
      {"obs.overhead_pct", 100.0 * overhead, "%"},
      {"obs.events_per_source_tick", Ratio(events, source_ticks),
       "1/source_tick"},
      {"gen.us_per_tick",
       Ratio(static_cast<double>(untraced.gen_ns + w.gen_ns),
             static_cast<double>(untraced.cycles() + w.cycles())) *
           1e-3,
       "us"},
      {"trace.runtime_vs_cycle_p50",
       Ratio(Percentile(w.process_tick_ns, 0.50), untraced_p50), "ratio"},
      {"trace.reconcile_residual_ns", static_cast<double>(residual), "ns"},
  };
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.applies) {
      std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-38s %16s %s (does not apply here)\n", m.name.c_str(),
                  "-", m.unit.c_str());
    }
  }
}

/// The machine-readable last line. The JSON carries the metrics the
/// benchmark declares for this mode; failed_op_ratio is the
/// failed/attempted pair itself.
void PrintJson(const std::vector<Metric>& metrics, const Ledger& ledger,
               const std::vector<std::string>& keep) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<long long>(ledger.attempted()),
              static_cast<long long>(ledger.failed()));
  bool first = true;
  for (const Metric& m : metrics) {
    if (std::find(keep.begin(), keep.end(), m.name) == keep.end()) continue;
    const double value = m.applies && std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// The end-to-end metrics BENCHMARK.json declares: those that apply on
/// every workload, are never zero, and repeat well from run to run. That
/// means CPU time in runs of the reference kernel rather than wall time
/// or CPU time in seconds (both moved by up to 30% between runs on a
/// shared host), no p99, and no single Save or Restore (up to 30%, with
/// the allocator's and page cache's state). The table prints the others
/// as well.
const std::vector<std::string>& DeclaredEndToEnd() {
  static const std::vector<std::string> names = {
      "norm_cost_per_source_tick", "norm_cycle_cost_p50", "setup_s",
      "uplink_bytes_per_source_tick", "answer_err_over_delta",
      "heap_bytes_per_source"};
  return names;
}

int Runner::Run() {
  const WorkloadConfig& c = config();
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              c.name.c_str(), static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0,
              args_.tiny ? "tiny" : "full");
  std::printf("  sources=%d streams=%d shards=%d threads=%d nproc=%u "
              "batched_fleet=%d load=closed-loop driver_threads=1\n",
              c.sources, workload_.streams(), c.shards, c.shards,
              std::thread::hardware_concurrency(), c.batched_fleet ? 1 : 0);
  std::fflush(stdout);

  SpareSetups();
  const int64_t rss_before = CurrentRssBytes();
  const int64_t heap_before = HeapInUseBytes();
  Setup(&engine_);
  for (const auto& batch : engine_->DrainNotifications()) {
    drained_ += static_cast<int64_t>(batch.notifications.size());
  }
  ledger_.Attempt(drained_);
  for (int t = 0; t < c.warmup_ticks; ++t) RunCycle(nullptr);
  // Read after a fixed number of ticks: at the end of the timed window
  // the figure would depend on which tick the clock stopped at.
  heap_growth_ = HeapInUseBytes() - heap_before;

  Window untraced;
  Window traced;
  if (!args_.trace) {
    RunWindow(args_.seconds, &untraced);
  } else {
    RunWindow(0.5 * args_.seconds, &untraced);
    dkf::ObsOptions obs;
    obs.record_timing = true;
    ledger_.Check(engine_->EnableTracing(obs), "EnableTracing");
    trace_.set_enabled(true);
    RunWindow(0.5 * args_.seconds, &traced);
    trace_.set_enabled(false);
    TraceMetrics(untraced, traced);
    engine_->DisableTracing();
  }
  rss_growth_ = CurrentRssBytes() - rss_before;

  FinalChecks();
  CheckpointAndRestore();
  SpareSetups();

  const Window& measured = args_.trace ? traced : untraced;
  const int64_t cycles = measured.cycles();
  std::printf("  timed cycles=%lld (p99 leaves %lld samples above it)\n",
              static_cast<long long>(cycles),
              static_cast<long long>(cycles / 100));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("  process peak rss=%lld MiB\n",
              static_cast<long long>(usage.ru_maxrss) / 1024);
  std::printf("  ops attempted=%lld failed=%lld\n",
              static_cast<long long>(ledger_.attempted()),
              static_cast<long long>(ledger_.failed()));
  for (const std::string& note : ledger_.notes()) {
    std::fprintf(stderr, "e2ebench: FAILED %s\n", note.c_str());
  }

  std::vector<Metric> metrics;
  std::vector<std::string> keep;
  if (!args_.trace) {
    metrics = EndToEndMetrics(untraced);
    keep = DeclaredEndToEnd();
    std::printf("end-to-end metrics:\n");
  } else {
    metrics = per_layer_;
    for (Metric& m : metrics) {
      if (m.name == "checkpoint.bytes_per_source") {
        m.value = Ratio(static_cast<double>(snapshot_bytes_), streams());
      } else if (m.name == "checkpoint.save_ms") {
        m.value = Median(Walls(save_)) * 1e-6;
      } else if (m.name == "checkpoint.restore_ms") {
        m.value = Median(Walls(restore_)) * 1e-6;
      }
      keep.push_back(m.name);
    }
    const std::string spans_path = args_.workdir + "/spans-" + c.name +
                                   "-" + std::to_string(args_.seed) + ".tsv";
    if (!trace_.WriteTsv(spans_path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", spans_path.c_str());
    }
    std::printf("  spans=%zu written to %s\n", trace_.spans().size(),
                spans_path.c_str());
    std::printf("per-layer metrics (traced half of the run):\n");
  }
  PrintTable(metrics);
  PrintJson(metrics, ledger_, keep);
  return ledger_.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) return 2;
  auto config = e2ebench::WorkloadPreset(args.workload, args.tiny);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }
  e2ebench::Runner runner(args, std::move(config).value());
  return runner.Run();
}
