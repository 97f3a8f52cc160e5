#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/status.h"
#include "models/model_factory.h"
#include "streamgen/http_traffic_generator.h"
#include "streamgen/power_load_generator.h"
#include "streamgen/trajectory_generator.h"

namespace e2ebench {

using dkf::ContinuousQuery;
using dkf::Rng;
using dkf::Status;
using dkf::Subscription;
using dkf::SubscriptionKind;

namespace {

/// SplitMix64 finalizer over two words: derives independent seeds for
/// per-source generators from the benchmark seed.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int UniformIndex(Rng& rng, int n) {
  return static_cast<int>(rng.UniformInt(0, n - 1));
}

// Query id ranges: a source's standing query is source + 1; churned
// queries and fused queries take ids far above any source id and below
// the range aggregates reserve for their synthetic members.
constexpr int kChurnQueryIdBase = 1 << 22;
constexpr int kFusedQueryIdBase = 1 << 23;

/// Fused trigger width and the fused query precision that tightens it.
constexpr double kGroupDelta = 2.0;
constexpr double kFusedPrecision = 1.5;
/// Per-member measurement noise around a group's shared signal.
constexpr double kMemberNoise = 0.1;

/// Series length per dataset source. Longer runs replay it reflected
/// (forward, then backward), so the signal stays continuous.
constexpr int kDatasetPoints = 2048;

dkf::ModelNoise Noise(double process, double measurement) {
  dkf::ModelNoise noise;
  noise.process_variance = process;
  noise.measurement_variance = measurement;
  return noise;
}

}  // namespace

/// One row-major block of pre-generated readings per source.
struct DatasetBank {
  std::vector<int> width;
  std::vector<size_t> offset;
  std::vector<double> values;

  const double* At(int source, int64_t tick) const {
    const int64_t period = 2 * kDatasetPoints - 2;
    int64_t k = tick % period;
    if (k >= kDatasetPoints) k = period - k;
    const size_t w = static_cast<size_t>(width[static_cast<size_t>(source)]);
    return &values[offset[static_cast<size_t>(source)] +
                   static_cast<size_t>(k) * w];
  }
};

dkf::Result<WorkloadConfig> WorkloadPreset(const std::string& name,
                                           bool tiny) {
  WorkloadConfig c;
  c.name = name;
  if (name == "fleet_steady") {
    c.sources = 4096;
    c.shards = 4;
    c.batched_fleet = true;
    c.delta = 4.0;
    c.slope = 0.05;
    c.amplitude = 0.25;
    c.step_share = 0.001;
    c.constant_share = 0.1;
    c.linear2_share = 0.1;
    c.subscriptions = 272;
    c.answer_reads = 256;
    c.restore_shards = 2;
    c.warmup_ticks = 512;
  } else if (name == "chaos_churn") {
    c.sources = 768;
    c.shards = 1;
    c.signal = SignalKind::kDatasets;
    c.chaos = true;
    c.query_churn = 8;
    c.save_every = 200;
    c.warmup_ticks = 1000;
    c.answer_reads = 256;
    c.restore_shards = 2;
  } else if (name == "serve_mix") {
    c.sources = 3072;
    c.shards = 2;
    c.batched_fleet = true;
    c.delta = 2.0;
    c.amplitude = 8.0;
    c.step_share = 0.001;
    c.constant_share = 0.1;
    c.subscriptions = 32768;
    c.hot_sources = 64;
    c.hot_share = 0.5;
    c.sub_churn = 64;
    c.aggregates = 32;
    c.aggregate_members = 16;
    c.fusion_groups = 64;
    c.group_members = 8;
    c.governor = true;
    c.budget_bytes_per_tick = 900.0;
    c.answer_reads = 256;
    c.fused_reads = 16;
    c.aggregate_reads = 8;
    c.restore_shards = 1;
    c.warmup_ticks = 320;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  if (tiny) {
    c.sources = std::max(64, c.sources / 64);
    c.subscriptions /= 100;
    c.hot_sources = std::min(c.hot_sources, 8);
    c.sub_churn = std::min(c.sub_churn, 4);
    c.aggregates = std::min(c.aggregates, 4);
    c.fusion_groups = std::min(c.fusion_groups, 8);
    c.budget_bytes_per_tick /= 64.0;
    c.answer_reads = std::min(c.answer_reads, 32);
    c.save_every = c.save_every > 0 ? 20 : 0;
    c.warmup_ticks = std::min(c.warmup_ticks, 64);
  }
  return c;
}

Workload::Workload(WorkloadConfig config, uint64_t seed)
    : config_(std::move(config)), seed_(seed), rng_(Mix(seed, 0)) {
  const int n = config_.sources;
  kinds_.resize(static_cast<size_t>(n));
  level_.resize(static_cast<size_t>(n));
  sin_.resize(static_cast<size_t>(n));
  cos_.resize(static_cast<size_t>(n));
  step_sin_.resize(static_cast<size_t>(n));
  step_cos_.resize(static_cast<size_t>(n));
  slope_.resize(static_cast<size_t>(n));
  Rng setup(Mix(seed, 1));
  for (int i = 0; i < n; ++i) {
    const size_t s = static_cast<size_t>(i);
    if (config_.signal == SignalKind::kDatasets) {
      static constexpr ModelKind kByIndex[] = {
          ModelKind::kTrajectory, ModelKind::kPowerLoad, ModelKind::kHttp};
      kinds_[s] = kByIndex[i % 3];
    } else {
      const double roll = setup.Uniform();
      kinds_[s] = roll < config_.constant_share ? ModelKind::kConstant
                  : roll < config_.constant_share + config_.linear2_share
                      ? ModelKind::kLinear2
                      : ModelKind::kLinear1;
    }
    level_[s] = setup.Uniform(-10.0, 10.0);
    const double phase = setup.Uniform(0.0, 2.0 * M_PI);
    const double rate = setup.Uniform(0.02, 0.03);
    sin_[s] = std::sin(phase);
    cos_[s] = std::cos(phase);
    step_sin_[s] = std::sin(rate);
    step_cos_[s] = std::cos(rate);
    // Constant models cannot follow a ramp; they get a flat level.
    slope_[s] = kinds_[s] == ModelKind::kConstant
                    ? 0.0
                    : setup.Uniform(-config_.slope, config_.slope);
  }
  initial_level_ = level_;

  // Aggregates sum runs of consecutive scalar sources.
  std::vector<int> scalar;
  for (int i = 0; i < n; ++i) {
    const ModelKind kind = kinds_[static_cast<size_t>(i)];
    if (kind != ModelKind::kLinear2 && kind != ModelKind::kTrajectory) {
      scalar.push_back(i);
    }
  }
  for (int a = 0; a < config_.aggregates && !scalar.empty(); ++a) {
    std::vector<int> members;
    const int start = UniformIndex(setup, static_cast<int>(scalar.size()));
    for (int m = 0; m < config_.aggregate_members; ++m) {
      members.push_back(
          scalar[static_cast<size_t>(start + m) % scalar.size()]);
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    aggregate_members_.push_back(std::move(members));
  }
  for (int g = 0; g < config_.fusion_groups; ++g) {
    group_level_.push_back(setup.Uniform(-10.0, 10.0));
  }

  models_.resize(6);
  models_[static_cast<size_t>(ModelKind::kLinear1)] =
      dkf::MakeLinearModel(1, 1.0, Noise(0.05, 0.05)).value();
  models_[static_cast<size_t>(ModelKind::kConstant)] =
      dkf::MakeConstantModel(1, Noise(0.05, 0.05)).value();
  models_[static_cast<size_t>(ModelKind::kLinear2)] =
      dkf::MakeLinearModel(2, 1.0, Noise(0.05, 0.05)).value();
  // The paper's three example models (§5): constant-velocity moving
  // objects, a linear trend filter for the power load (its sinusoidal
  // model has a time-varying transition, which snapshots cannot carry),
  // and an adopt-the-value constant filter for bursty HTTP counts.
  models_[static_cast<size_t>(ModelKind::kTrajectory)] =
      dkf::MakeLinearModel(2, 0.1, Noise(0.05, 0.05)).value();
  models_[static_cast<size_t>(ModelKind::kPowerLoad)] =
      dkf::MakeLinearModel(1, 1.0, Noise(25.0, 25.0)).value();
  models_[static_cast<size_t>(ModelKind::kHttp)] =
      dkf::MakeConstantModel(1, Noise(1000.0, 1.0)).value();
  group_model_ = dkf::MakeLinearModel(1, 1.0, Noise(0.01, 0.01)).value();

  if (config_.signal == SignalKind::kDatasets) {
    auto bank = std::make_shared<DatasetBank>();
    for (int i = 0; i < n; ++i) {
      const uint64_t source_seed = Mix(seed, 100 + static_cast<uint64_t>(i));
      dkf::TimeSeries series;
      switch (kinds_[static_cast<size_t>(i)]) {
        case ModelKind::kTrajectory: {
          dkf::TrajectoryOptions options;
          options.num_points = kDatasetPoints;
          options.seed = source_seed;
          series = dkf::GenerateTrajectory(options).value().observed;
          break;
        }
        case ModelKind::kPowerLoad: {
          dkf::PowerLoadOptions options;
          options.num_points = kDatasetPoints;
          options.base_load = 1500.0 * Rng(source_seed).Uniform(0.5, 1.5);
          options.seed = source_seed;
          series = dkf::GeneratePowerLoad(options).value();
          break;
        }
        default: {
          dkf::HttpTrafficOptions options;
          options.num_points = kDatasetPoints;
          options.seed = source_seed;
          series = dkf::GenerateHttpTraffic(options).value();
          break;
        }
      }
      bank->width.push_back(static_cast<int>(series.width()));
      bank->offset.push_back(bank->values.size());
      for (size_t k = 0; k < series.size(); ++k) {
        for (size_t d = 0; d < series.width(); ++d) {
          bank->values.push_back(series.value(k, d));
        }
      }
    }
    datasets_ = std::move(bank);
  }

  const int members = config_.fusion_groups * config_.group_members;
  for (int id = 0; id < n + members; ++id) {
    const bool two_d = id < n && (kinds_[static_cast<size_t>(id)] ==
                                      ModelKind::kLinear2 ||
                                  kinds_[static_cast<size_t>(id)] ==
                                      ModelKind::kTrajectory);
    batch_.ids.push_back(id);
    batch_.values.push_back(two_d ? dkf::Vector(2) : dkf::Vector(1));
  }
  for (int64_t id = 0; id < config_.subscriptions; ++id) {
    live_subscriptions_.push_back(id);
  }
  next_subscription_id_ = config_.subscriptions;
  next_query_id_ = kChurnQueryIdBase;
}

dkf::ShardedStreamEngineOptions Workload::EngineOptions() const {
  dkf::ShardedStreamEngineOptions options;
  options.num_shards = config_.shards;
  options.batched_fleet = config_.batched_fleet;
  options.channel.per_source_rng = true;
  options.channel.seed = Mix(seed_, 2);
  if (config_.chaos) {
    // The full fault cocktail: bursty loss, one-tick delays that reorder,
    // periodic outages, lost ACKs and corrupted payloads. Heartbeats every
    // tick and a one-tick staleness budget are the settings under which a
    // non-degraded answer keeps the delta guarantee (docs/protocol.md).
    dkf::FaultModel& fault = options.channel.fault;
    fault.gilbert_elliott = dkf::GilbertElliottLoss{0.02, 0.3, 0.0, 1.0};
    fault.delay = dkf::DelayModel{0, 1};
    for (int64_t k = 0; k < 50; ++k) {
      fault.outages.push_back(dkf::OutageWindow{150 + 400 * k, 160 + 400 * k});
    }
    fault.ack_loss_probability = 0.03;
    fault.corruption_probability = 0.02;
    options.protocol.heartbeat_interval = 1;
    options.protocol.staleness_budget = 1;
    options.protocol.adaptive.enabled = true;
  }
  if (config_.governor) {
    options.governor.enabled = true;
    options.governor.epoch_ticks = 16;
    options.governor.budget_bytes_per_tick = config_.budget_bytes_per_tick;
    options.governor.delta_floor = 0.25;
    options.governor.delta_ceiling = 64.0;
  }
  return options;
}

double Workload::SourceDelta(int source) const {
  switch (kinds_[static_cast<size_t>(source)]) {
    case ModelKind::kTrajectory:
      return 3.0;
    case ModelKind::kPowerLoad:
    case ModelKind::kHttp:
      return 60.0;
    default:
      return config_.delta;
  }
}

int Workload::PickSource(bool skewed, Rng& rng) const {
  if (skewed && config_.hot_sources > 0 && rng.Uniform() < config_.hot_share) {
    const int stride = std::max(1, config_.sources / config_.hot_sources);
    return UniformIndex(rng, config_.hot_sources) * stride;
  }
  return UniformIndex(rng, config_.sources);
}

Subscription Workload::MakeSubscription(int64_t id, Rng& rng) const {
  Subscription sub;
  sub.id = id;
  const double roll = rng.Uniform();
  if (roll < 0.01) {
    sub.kind = SubscriptionKind::kPoint;
    sub.source_id = PickSource(true, rng);
    return sub;
  }
  if (roll >= 0.91 && roll < 0.95 && !aggregate_members_.empty()) {
    sub.kind = SubscriptionKind::kAggregate;
    sub.aggregate_id =
        1 + UniformIndex(rng, static_cast<int>(aggregate_members_.size()));
    return sub;
  }
  if (roll >= 0.95 && config_.fusion_groups > 0) {
    sub.kind = SubscriptionKind::kFused;
    sub.group_id = UniformIndex(rng, config_.fusion_groups);
    return sub;
  }
  sub.kind = roll < 0.61 ? SubscriptionKind::kBandAlert
                         : SubscriptionKind::kRangePredicate;
  sub.source_id = PickSource(true, rng);
  const double spread = std::max(config_.amplitude, 1.0);
  const double center = initial_level_[static_cast<size_t>(sub.source_id)] +
                        spread * rng.Uniform(-1.0, 1.0);
  const double half = spread * rng.Uniform(0.2, 1.0);
  sub.lo = center - half;
  sub.hi = center + half;
  return sub;
}

Status Workload::Populate(dkf::ShardedStreamEngine& engine) const {
  for (int i = 0; i < config_.sources; ++i) {
    DKF_RETURN_IF_ERROR(engine.RegisterSource(
        i, models_[static_cast<size_t>(kinds_[static_cast<size_t>(i)])]));
    ContinuousQuery query;
    query.id = i + 1;
    query.source_id = i;
    query.precision = SourceDelta(i);
    DKF_RETURN_IF_ERROR(engine.SubmitQuery(query));
  }
  for (size_t a = 0; a < aggregate_members_.size(); ++a) {
    dkf::AggregateQuery aggregate;
    aggregate.id = static_cast<int>(a) + 1;
    aggregate.source_ids = aggregate_members_[a];
    aggregate.precision =
        config_.delta * static_cast<double>(aggregate.source_ids.size());
    DKF_RETURN_IF_ERROR(engine.SubmitAggregateQuery(aggregate));
  }
  for (int g = 0; g < config_.fusion_groups; ++g) {
    dkf::FusionGroupConfig group;
    group.group_id = g;
    group.model = group_model_;
    for (int m = 0; m < config_.group_members; ++m) {
      group.member_ids.push_back(config_.sources + g * config_.group_members +
                                 m);
    }
    group.delta = kGroupDelta;
    DKF_RETURN_IF_ERROR(engine.RegisterFusionGroup(group));
    dkf::FusedQuery fused;
    fused.id = kFusedQueryIdBase + g;
    fused.group_id = g;
    fused.precision = kFusedPrecision;
    DKF_RETURN_IF_ERROR(engine.SubmitFusedQuery(fused));
  }
  Rng rng(Mix(seed_, 3));
  for (int64_t id = 0; id < config_.subscriptions; ++id) {
    DKF_RETURN_IF_ERROR(engine.Subscribe(MakeSubscription(id, rng)));
  }
  return Status::OK();
}

void Workload::Prepare(int64_t tick, bool allow_save) {
  const int n = config_.sources;
  if (config_.signal == SignalKind::kDatasets) {
    for (int i = 0; i < n; ++i) {
      const double* row = datasets_->At(i, tick);
      dkf::Vector& value = batch_.values[static_cast<size_t>(i)];
      for (size_t d = 0; d < value.size(); ++d) value[d] = row[d];
    }
  } else {
    // A fixed number of sources step their level by 1.5-3 delta each
    // tick; everyone else follows a ramp its model tracks, plus a
    // sinusoid.
    const int steps =
        config_.step_share > 0.0
            ? std::max(1, static_cast<int>(std::lround(config_.step_share * n)))
            : 0;
    for (int s = 0; s < steps; ++s) {
      const int i = UniformIndex(rng_, n);
      const double jump = config_.delta * rng_.Uniform(1.5, 3.0);
      level_[static_cast<size_t>(i)] += rng_.Uniform() < 0.5 ? -jump : jump;
    }
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      // Rotate (sin, cos) by the source's rate: one sinusoid step per tick
      // without a libm call per source.
      const double next_sin = sin_[s] * step_cos_[s] + cos_[s] * step_sin_[s];
      cos_[s] = cos_[s] * step_cos_[s] - sin_[s] * step_sin_[s];
      sin_[s] = next_sin;
      dkf::Vector& value = batch_.values[s];
      const double ramp = slope_[s] * static_cast<double>(tick);
      value[0] = level_[s] + ramp + config_.amplitude * sin_[s];
      if (value.size() > 1) {
        value[1] = 0.5 * level_[s] - ramp + config_.amplitude * cos_[s];
      }
    }
  }
  // Fusion members observe their group's shared drift plus private noise.
  for (int g = 0; g < config_.fusion_groups; ++g) {
    const double shared =
        group_level_[static_cast<size_t>(g)] +
        config_.amplitude * std::sin(0.01 * static_cast<double>(tick) + g);
    for (int m = 0; m < config_.group_members; ++m) {
      const size_t index =
          static_cast<size_t>(n + g * config_.group_members + m);
      batch_.values[index][0] = shared + rng_.Gaussian(0.0, kMemberNoise);
    }
  }

  plan_.answer_ids.clear();
  plan_.fused_groups.clear();
  plan_.aggregate_ids.clear();
  plan_.remove_queries.clear();
  plan_.submit_queries.clear();
  plan_.unsubscribe.clear();
  plan_.subscribe.clear();
  for (int r = 0; r < config_.answer_reads; ++r) {
    plan_.answer_ids.push_back(UniformIndex(rng_, n));
  }
  for (int r = 0; r < config_.fused_reads && config_.fusion_groups > 0; ++r) {
    plan_.fused_groups.push_back(UniformIndex(rng_, config_.fusion_groups));
  }
  for (int r = 0; r < config_.aggregate_reads && !aggregate_members_.empty();
       ++r) {
    plan_.aggregate_ids.push_back(
        1 + UniformIndex(rng_, static_cast<int>(aggregate_members_.size())));
  }
  // Query churn keeps a pool of 8 ticks' worth of extra queries alive:
  // the oldest are removed, fresh ones tighten random sources.
  if (config_.query_churn > 0 &&
      live_churn_queries_.size() >=
          static_cast<size_t>(8 * config_.query_churn)) {
    for (int c = 0; c < config_.query_churn; ++c) {
      plan_.remove_queries.push_back(live_churn_queries_.front());
      live_churn_queries_.pop_front();
    }
  }
  for (int c = 0; c < config_.query_churn; ++c) {
    ContinuousQuery query;
    query.id = next_query_id_++;
    query.source_id = UniformIndex(rng_, n);
    query.precision = SourceDelta(query.source_id) * rng_.Uniform(0.5, 1.0);
    plan_.submit_queries.push_back(query);
    live_churn_queries_.push_back(query.id);
  }
  // Victims are picked before the replacements join the live set, so a
  // subscription is never removed in the tick that adds it.
  for (int c = 0; c < config_.sub_churn && !live_subscriptions_.empty(); ++c) {
    const size_t victim = static_cast<size_t>(
        UniformIndex(rng_, static_cast<int>(live_subscriptions_.size())));
    plan_.unsubscribe.push_back(live_subscriptions_[victim]);
    live_subscriptions_[victim] = live_subscriptions_.back();
    live_subscriptions_.pop_back();
  }
  for (int c = 0; c < config_.sub_churn; ++c) {
    plan_.subscribe.push_back(MakeSubscription(next_subscription_id_++, rng_));
    live_subscriptions_.push_back(plan_.subscribe.back().id);
  }
  plan_.save = allow_save && config_.save_every > 0 && tick > 0 &&
               tick % config_.save_every == 0;
}

}  // namespace e2ebench
