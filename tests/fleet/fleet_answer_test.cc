// Answer-surface harness for batch-resident sources (src/fleet/,
// docs/fleet.md): a resident lane answers straight off its SoA state, so
// Answer, AnswerWithConfidence and answer_degraded must reproduce what a
// per-source engine's ServerNode serves bit for bit — every component of
// the value and of the projected covariance, plus the degraded flag.
// Each scenario drives a batched engine and a plain (batched_fleet =
// false) twin in lockstep and compares every read with memcmp:
//
//   1. Model mix (1-D constant, 1-D linear, 2-axis linear with m = 2)
//      through lanes that are armed with a deferred covariance, tracking,
//      and overdue under a staleness budget.
//   2. Lanes folded into groups keyed by servo-adapted noise.
//   3. Churn: a permuted ReadingBatch every tick, a spill and an absorb
//      every tick, and a source joining mid-run, so the tick order is
//      patched in place constantly (VerifyLinkConsistency checks it).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/model_factory.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

bool BitEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  const size_t n = a.rows() * a.cols();
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (n == 0 ||
          std::memcmp(a.RowData(0), b.RowData(0), n * sizeof(double)) == 0);
}

/// Reads every id through both engines and demands bit-identical answers.
void ExpectSameReads(ShardedStreamEngine& batched, ShardedStreamEngine& plain,
                     const std::vector<int>& ids, int64_t tick) {
  for (int id : ids) {
    const Vector b = batched.Answer(id).value();
    const Vector p = plain.Answer(id).value();
    ASSERT_TRUE(BitEqual(b, p)) << "Answer, tick " << tick << " source " << id;

    const ServerNode::ConfidentAnswer bc =
        batched.AnswerWithConfidence(id).value();
    const ServerNode::ConfidentAnswer pc =
        plain.AnswerWithConfidence(id).value();
    ASSERT_TRUE(BitEqual(bc.value, pc.value))
        << "confident value, tick " << tick << " source " << id;
    ASSERT_EQ(bc.degraded, pc.degraded)
        << "degraded, tick " << tick << " source " << id;
    ASSERT_TRUE(bc.covariance.has_value() && pc.covariance.has_value())
        << "tick " << tick << " source " << id;
    ASSERT_TRUE(BitEqual(*bc.covariance, *pc.covariance))
        << "covariance, tick " << tick << " source " << id;
    ASSERT_EQ(batched.answer_degraded(id).value(),
              plain.answer_degraded(id).value())
        << "answer_degraded, tick " << tick << " source " << id;
  }
}

ShardedStreamEngineOptions TwinOptions(int num_shards) {
  ShardedStreamEngineOptions options;
  options.num_shards = num_shards;
  options.channel.seed = 77;
  options.channel.per_source_rng = true;
  return options;
}

void EnableTrace(ShardedStreamEngine& engine) {
  ObsOptions obs;
  obs.ring_capacity = 1 << 18;  // must hold the full run for bit compares
  ASSERT_TRUE(engine.EnableTracing(obs).ok());
}

int64_t CountEvents(const std::vector<TraceEvent>& trace,
                    TraceEventKind kind) {
  int64_t count = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind == kind) ++count;
  }
  return count;
}

std::vector<int> Ids(int first, int last) {
  std::vector<int> ids;
  for (int id = first; id <= last; ++id) ids.push_back(id);
  return ids;
}

void SubmitPrecision(ShardedStreamEngine& engine, int query_id,
                     int source_id, double precision) {
  ContinuousQuery query;
  query.id = query_id;
  query.source_id = source_id;
  query.precision = precision;
  ASSERT_TRUE(engine.SubmitQuery(query).ok());
}

// ---------------------------------------------------------------------
// Model mix through armed, tracking and overdue lanes.
//
// Every source violates delta on every tick until it settles, so its
// filter corrects under an unbroken cadence and arms the steady-state
// fast path before absorption. The first lane tick after absorbing then
// runs the armed predict, which defers the covariance copy (answers read
// the frozen prior); the next one coasts off the frozen cycle into
// tracking. With a staleness budget and no heartbeats, long-suppressed
// lanes go overdue and serve degraded, inflated answers. A late level
// jump sends a quarter of the lanes through spill and re-absorb.
// ---------------------------------------------------------------------

constexpr int kMixSources = 24;
constexpr int64_t kMixTicks = 320;

StateModel MixModel(int id) {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  switch (id % 3) {
    case 0:
      return MakeConstantModel(1, noise).value();
    case 1:
      return MakeLinearModel(1, 1.0, noise).value();
    default:
      return MakeLinearModel(2, 1.0, noise).value();
  }
}

Vector MixReading(int id, int64_t t) {
  const int64_t settle = 100 + 4 * (id % 8);
  double value =
      t < settle ? (t % 2 == 0 ? 6.0 : -6.0)
                 : 0.25 * std::sin(0.01 * static_cast<double>(t + id));
  if (id % 4 == 0 && t >= 250) value += 25.0;
  if (id % 3 == 2) return Vector{value, -0.5 * value};
  return Vector{value};
}

TEST(FleetAnswer, ModelMixArmedTrackingAndOverdueLanes) {
  ShardedStreamEngineOptions options = TwinOptions(2);
  options.protocol.staleness_budget = 12;  // no heartbeat to reset it
  options.batched_fleet = false;
  ShardedStreamEngine plain(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  for (ShardedStreamEngine* engine : {&plain, &batched}) {
    EnableTrace(*engine);
    for (int id = 1; id <= kMixSources; ++id) {
      ASSERT_TRUE(engine->RegisterSource(id, MixModel(id)).ok());
      SubmitPrecision(*engine, id, id, 2.0);
    }
  }

  const std::vector<int> ids = Ids(1, kMixSources);
  size_t max_residents = 0;
  bool degraded_while_resident = false;
  for (int64_t t = 0; t < kMixTicks; ++t) {
    std::map<int, Vector> readings;
    for (int id : ids) readings[id] = MixReading(id, t);
    ASSERT_TRUE(plain.ProcessTick(readings).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(readings).ok()) << "tick " << t;
    ExpectSameReads(batched, plain, ids, t);
    const size_t residents = batched.fleet_resident_count();
    max_residents = std::max(max_residents, residents);
    if (residents == static_cast<size_t>(kMixSources)) {
      for (int id : ids) {
        if (batched.answer_degraded(id).value()) degraded_while_resident = true;
      }
    }
    ASSERT_TRUE(batched.VerifyLinkConsistency().ok()) << "tick " << t;
  }
  EXPECT_EQ(max_residents, static_cast<size_t>(kMixSources))
      << "the settled fleet never went fully resident";
  EXPECT_TRUE(degraded_while_resident)
      << "the staleness budget never tripped on a resident lane";
  const std::vector<TraceEvent> trace = batched.MergedTrace();
  EXPECT_GT(CountEvents(trace, TraceEventKind::kFastPathFreeze), 0)
      << "steady-state fast path never armed";
  EXPECT_GT(CountEvents(trace, TraceEventKind::kFastPathDisarm), 0)
      << "no lane ever coasted off the frozen cycle";
  EXPECT_TRUE(trace == plain.MergedTrace()) << "merged trace differs";
}

// ---------------------------------------------------------------------
// Adapted-noise lanes.
//
// The sources' nominal R is ten times too small for their readings. A
// tight query makes every tick correct, so the noise servo widens R
// until it locks; then the query is relaxed, the sources suppress, and
// they fold into groups keyed by their adapted (Q, R). Their confidence
// answers must project with the lane's adapted R, not the nominal one.
// ---------------------------------------------------------------------

constexpr int kAdaptSources = 8;
constexpr int64_t kAdaptTicks = 400;
constexpr int64_t kAdaptRelaxTick = 200;
constexpr int kTightQueryBase = 100;

AdaptiveNoiseConfig ServoConfig() {
  AdaptiveNoiseConfig config;
  config.enabled = true;
  config.warmup_corrections = 4;
  config.widen_rate = 0.15;
  config.shrink_rate = 0.05;
  config.holdover_gap = 256;
  return config;
}

TEST(FleetAnswer, AdaptedNoiseLanesAnswerWithTheirOwnNoise) {
  ShardedStreamEngineOptions options = TwinOptions(1);
  options.protocol.adaptive = ServoConfig();
  options.batched_fleet = false;
  ShardedStreamEngine plain(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  ModelNoise noise;
  noise.process_variance = 0.01;
  noise.measurement_variance = 0.05;
  const StateModel model = MakeLinearModel(1, 1.0, noise).value();
  for (ShardedStreamEngine* engine : {&plain, &batched}) {
    EnableTrace(*engine);
    for (int id = 1; id <= kAdaptSources; ++id) {
      ASSERT_TRUE(engine->RegisterSource(id, model).ok());
      SubmitPrecision(*engine, id, id, 6.0);
      SubmitPrecision(*engine, kTightQueryBase + id, id, 0.01);
    }
  }

  const std::vector<int> ids = Ids(1, kAdaptSources);
  Rng rng(2024);
  size_t residents_after_relax = 0;
  for (int64_t t = 0; t < kAdaptTicks; ++t) {
    if (t == kAdaptRelaxTick) {
      for (ShardedStreamEngine* engine : {&plain, &batched}) {
        for (int id : ids) {
          ASSERT_TRUE(engine->RemoveQuery(kTightQueryBase + id).ok());
        }
      }
    }
    std::map<int, Vector> readings;
    for (int id : ids) {
      readings[id] = Vector{0.02 * static_cast<double>(t) + id +
                            rng.Gaussian(0.0, 0.7)};
    }
    ASSERT_TRUE(plain.ProcessTick(readings).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(readings).ok()) << "tick " << t;
    ExpectSameReads(batched, plain, ids, t);
    if (t >= kAdaptRelaxTick) {
      residents_after_relax =
          std::max(residents_after_relax, batched.fleet_resident_count());
    }
    ASSERT_TRUE(batched.VerifyLinkConsistency().ok()) << "tick " << t;
  }
  const std::vector<TraceEvent> trace = batched.MergedTrace();
  EXPECT_GT(CountEvents(trace, TraceEventKind::kNoiseAdapt), 0)
      << "the servo never moved the noise";
  EXPECT_GT(residents_after_relax, 0u)
      << "no adapted source ever folded into a lane";
  EXPECT_TRUE(trace == plain.MergedTrace()) << "merged trace differs";
}

// ---------------------------------------------------------------------
// Churn: permuted batches, a spill and an absorb every tick.
//
// Each tick one source (round robin) steps its level by far more than
// delta, so its lane spills mid-tick and sends; on the clean channel the
// correction lands at once and the source re-absorbs at the end of the
// same tick. The ReadingBatch is reshuffled every tick, so no cached
// rank survives, and a source joins mid-run (a membership change, the
// one case that rebuilds the tick order).
// ---------------------------------------------------------------------

constexpr int kChurnSources = 16;
constexpr int64_t kChurnTicks = 240;
constexpr int64_t kJoinTick = 100;
constexpr int kJoiner = kChurnSources + 1;

TEST(FleetAnswer, ChurnPermutedBatchesSpillAndAbsorbEveryTick) {
  ShardedStreamEngineOptions options = TwinOptions(2);
  options.batched_fleet = false;
  ShardedStreamEngine plain(options);
  options.batched_fleet = true;
  ShardedStreamEngine batched(options);
  ModelNoise noise;
  for (ShardedStreamEngine* engine : {&plain, &batched}) {
    EnableTrace(*engine);
    for (int id = 1; id <= kChurnSources; ++id) {
      const StateModel model = id % 2 == 0
                                   ? MakeConstantModel(1, noise).value()
                                   : MakeLinearModel(1, 1.0, noise).value();
      ASSERT_TRUE(engine->RegisterSource(id, model).ok());
      SubmitPrecision(*engine, id, id, 3.0);
    }
  }

  Rng rng(7);
  std::vector<double> level(kJoiner + 1, 0.0);
  std::vector<int> ids = Ids(1, kChurnSources);
  int64_t ticks_with_spill = 0;
  int64_t ticks_fully_resident = 0;
  for (int64_t t = 0; t < kChurnTicks; ++t) {
    if (t == kJoinTick) {
      for (ShardedStreamEngine* engine : {&plain, &batched}) {
        ASSERT_TRUE(
            engine->RegisterSource(kJoiner, MakeConstantModel(1, noise).value())
                .ok());
        SubmitPrecision(*engine, kJoiner, kJoiner, 3.0);
      }
      ids.push_back(kJoiner);
    }
    level[static_cast<size_t>(1 + t % kChurnSources)] += 10.0;
    ReadingBatch batch;
    batch.ids = ids;
    for (size_t i = batch.ids.size(); i > 1; --i) {
      const auto j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(batch.ids[i - 1], batch.ids[j]);
    }
    for (int id : batch.ids) {
      batch.values.push_back(Vector{level[static_cast<size_t>(id)] +
                                    0.1 * std::sin(0.05 * t + id)});
    }
    const int64_t spills_before = batched.fleet_spill_count();
    ASSERT_TRUE(plain.ProcessTick(batch).ok()) << "tick " << t;
    ASSERT_TRUE(batched.ProcessTick(batch).ok()) << "tick " << t;
    ExpectSameReads(batched, plain, ids, t);
    ASSERT_TRUE(batched.VerifyLinkConsistency().ok()) << "tick " << t;
    if (batched.fleet_spill_count() > spills_before) ++ticks_with_spill;
    if (batched.fleet_resident_count() == ids.size()) ++ticks_fully_resident;
  }
  // Past the first few ticks every tick spills a lane, and the spilled
  // lane is back by the end of it.
  EXPECT_GE(ticks_with_spill, kChurnTicks - 4);
  EXPECT_GE(ticks_fully_resident, kChurnTicks - 4);
  EXPECT_TRUE(batched.MergedTrace() == plain.MergedTrace())
      << "merged trace differs";
  EXPECT_TRUE(batched.VerifyMirrorConsistency().ok());
}

}  // namespace
}  // namespace dkf
