// A malformed tick is rejected as a whole at every shard count: every
// shard resolves its slice of the readings before any shard runs, so no
// shard commits a tick its siblings rejected (docs/runtime.md).

#include <cstring>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "models/model_factory.h"
#include "runtime/sharded_engine.h"

namespace dkf {
namespace {

StateModel ScalarModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

/// Two shards: source 2 lands on shard 0, source 1 on shard 1.
std::unique_ptr<ShardedStreamEngine> MakeEngine(bool batched_fleet) {
  ShardedStreamEngineOptions options;
  options.num_shards = 2;
  options.batched_fleet = batched_fleet;
  auto engine = std::make_unique<ShardedStreamEngine>(options);
  for (int id : {1, 2}) {
    EXPECT_TRUE(engine->RegisterSource(id, ScalarModel()).ok());
    ContinuousQuery query;
    query.id = id;
    query.source_id = id;
    query.precision = 0.5;
    EXPECT_TRUE(engine->SubmitQuery(query).ok());
  }
  return engine;
}

Status Tick(ShardedStreamEngine& engine, const std::map<int, Vector>& readings,
            bool as_batch) {
  if (!as_batch) return engine.ProcessTick(readings);
  ReadingBatch batch;
  for (const auto& [id, value] : readings) {
    batch.ids.push_back(id);
    batch.values.push_back(value);
  }
  return engine.ProcessTick(batch);
}

bool BitEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(HalfTickTest, RejectedTickMovesNoShard) {
  // The right reading count with one owned source replaced by an unknown
  // id: 99 stands in for source 2 (shard 0, resolved first) or for
  // source 1 (shard 1, resolved last).
  const std::map<int, Vector> bad_ticks[] = {
      {{1, Vector{5.0}}, {99, Vector{5.0}}},
      {{2, Vector{5.0}}, {99, Vector{5.0}}},
  };
  for (const bool batched_fleet : {false, true}) {
    for (const bool as_batch : {false, true}) {
      for (const auto& bad : bad_ticks) {
        SCOPED_TRACE(std::string("batched_fleet=") +
                     (batched_fleet ? "1" : "0") +
                     " as_batch=" + (as_batch ? "1" : "0") +
                     " first_id=" + std::to_string(bad.begin()->first));
        auto probed = MakeEngine(batched_fleet);
        auto twin = MakeEngine(batched_fleet);
        const Status rejected = Tick(*probed, bad, as_batch);
        EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(probed->ticks(), 0);
        for (int t = 0; t < 4; ++t) {
          const std::map<int, Vector> good = {
              {1, Vector{7.0 + 0.5 * t}}, {2, Vector{-3.0 + 0.25 * t}}};
          ASSERT_TRUE(Tick(*probed, good, as_batch).ok()) << "tick " << t;
          ASSERT_TRUE(Tick(*twin, good, as_batch).ok()) << "tick " << t;
          for (int id : {1, 2}) {
            auto probed_answer = probed->Answer(id);
            auto twin_answer = twin->Answer(id);
            ASSERT_TRUE(probed_answer.ok());
            ASSERT_TRUE(twin_answer.ok());
            EXPECT_TRUE(BitEqual(probed_answer.value(), twin_answer.value()))
                << "source " << id << " tick " << t << ": "
                << probed_answer.value()[0] << " vs "
                << twin_answer.value()[0];
          }
        }
        EXPECT_EQ(probed->ticks(), twin->ticks());
        EXPECT_EQ(probed->uplink_traffic().messages,
                  twin->uplink_traffic().messages);
        EXPECT_EQ(probed->uplink_traffic().bytes,
                  twin->uplink_traffic().bytes);
      }
    }
  }
}

}  // namespace
}  // namespace dkf
