#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "runtime/sharded_engine.h"

namespace e2ebench {

/// Where a workload's readings come from.
enum class SignalKind {
  /// The benchmark's own drifting sinusoids: each source wanders inside
  /// its precision band, and a fixed number of sources per tick step
  /// their level past delta.
  kDrift,
  /// The paper's three datasets from src/streamgen (moving objects,
  /// power load, HTTP traffic), one seeded series per source.
  kDatasets,
};

/// Everything that distinguishes one workload from another. Presets
/// live in workload.cc; sizes shrink for the benchmark's own tests.
struct WorkloadConfig {
  std::string name;
  int sources = 0;
  int shards = 1;
  bool batched_fleet = false;
  SignalKind signal = SignalKind::kDrift;

  // Drift signals: precision every source's standing query asks for, the
  // largest ramp slope (per tick), the sinusoid's amplitude, how many
  // sources (as a share of the fleet) step past delta per tick, and the
  // model mix (the rest is 1-D linear).
  double delta = 4.0;
  double slope = 0.0;
  double amplitude = 1.5;
  double step_share = 0.0;
  double constant_share = 0.0;
  double linear2_share = 0.0;

  /// Full fault cocktail, heartbeats every tick, a one-tick staleness
  /// budget and the adaptive noise servo.
  bool chaos = false;
  /// Standing queries removed and submitted per tick.
  int query_churn = 0;
  /// A Save every this many ticks, inside the cycle (0 = never).
  int save_every = 0;

  // Serving front-end: standing subscriptions, how many sources are hot
  // and what share of subscriptions they carry, and subscriptions
  // replaced per tick.
  int subscriptions = 0;
  int hot_sources = 0;
  double hot_share = 0.0;
  int sub_churn = 0;
  int aggregates = 0;
  int aggregate_members = 0;

  // Fusion groups of redundant sensors, each with one fused query.
  int fusion_groups = 0;
  int group_members = 0;

  // Delta governor under a bytes/tick budget.
  bool governor = false;
  double budget_bytes_per_tick = 0.0;

  // Reads per tick: plain answers, fused answers, aggregate answers.
  int answer_reads = 0;
  int fused_reads = 0;
  int aggregate_reads = 0;

  /// Shard count the end-of-run Restore uses (differs from `shards`).
  int restore_shards = 1;
  /// Untimed ticks before measuring (filters converge, lanes absorb,
  /// the governor settles).
  int warmup_ticks = 64;
};

/// The preset for a workload name; `tiny` shrinks it for tests.
dkf::Result<WorkloadConfig> WorkloadPreset(const std::string& name, bool tiny);

/// One tick's reads and control calls, planned outside the timed region.
struct TickPlan {
  std::vector<int> answer_ids;
  std::vector<int> fused_groups;
  std::vector<int> aggregate_ids;
  std::vector<int> remove_queries;
  std::vector<dkf::ContinuousQuery> submit_queries;
  std::vector<int64_t> unsubscribe;
  std::vector<dkf::Subscription> subscribe;
  bool save = false;
};

/// Series pre-generated from src/streamgen for the dataset workload.
struct DatasetBank;

/// A workload's inputs: the engine it asks for, what it registers, and
/// for every tick the readings plus the planned reads and control calls.
/// Everything is a function of the seed and the tick sequence, so a
/// copy taken between ticks replays the same future exactly.
class Workload {
 public:
  Workload(WorkloadConfig config, uint64_t seed);

  const WorkloadConfig& config() const { return config_; }
  /// Readings per tick: plain sources plus fusion members.
  int streams() const { return static_cast<int>(batch_.ids.size()); }

  dkf::ShardedStreamEngineOptions EngineOptions() const;

  /// Registers sources, standing queries, aggregates, fusion groups and
  /// subscriptions. Call once per fresh engine.
  dkf::Status Populate(dkf::ShardedStreamEngine& engine) const;

  /// Writes tick `tick`'s readings and plans its reads and control calls
  /// (no Save unless `allow_save`). Ticks must be prepared in order.
  void Prepare(int64_t tick, bool allow_save);

  const dkf::ReadingBatch& batch() const { return batch_; }
  const TickPlan& plan() const { return plan_; }

 private:
  enum class ModelKind { kLinear1, kConstant, kLinear2, kTrajectory,
                         kPowerLoad, kHttp };

  double SourceDelta(int source) const;
  dkf::Subscription MakeSubscription(int64_t id, dkf::Rng& rng) const;
  int PickSource(bool skewed, dkf::Rng& rng) const;

  WorkloadConfig config_;
  uint64_t seed_;
  dkf::Rng rng_;
  std::vector<ModelKind> kinds_;
  /// Indexed by ModelKind.
  std::vector<dkf::StateModel> models_;
  dkf::StateModel group_model_;
  /// Drift signal per source: level (moved by steps), ramp slope, the
  /// sinusoid's current (sin, cos) and its per-tick rotation.
  std::vector<double> level_;
  std::vector<double> initial_level_;
  std::vector<double> sin_;
  std::vector<double> cos_;
  std::vector<double> step_sin_;
  std::vector<double> step_cos_;
  std::vector<double> slope_;
  std::vector<std::vector<int>> aggregate_members_;
  std::vector<double> group_level_;
  std::shared_ptr<const DatasetBank> datasets_;
  dkf::ReadingBatch batch_;
  TickPlan plan_;
  std::deque<int> live_churn_queries_;
  int next_query_id_ = 0;
  std::vector<int64_t> live_subscriptions_;
  int64_t next_subscription_id_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
