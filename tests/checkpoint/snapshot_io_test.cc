// Wire-format tests for the snapshot codec (docs/checkpoint.md): field
// round-trips including raw-bit NaN payloads, the golden v5 byte layout,
// header validation (magic, version, checksum, length), truncation and
// trailing-garbage rejection, and the binary primitives underneath.

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot.h"
#include "checkpoint/snapshot_io.h"
#include "common/binary_io.h"
#include "snapshot_fixture.h"

namespace dkf {
namespace {

using testing_fixture::BuildSnapshot;
using testing_fixture::GoldenSnapshot;
using testing_fixture::kGoldenSnapshotBytes;
using testing_fixture::kGoldenSnapshotFnv;

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectFullStateEq(const KalmanFilter::FullState& a,
                       const KalmanFilter::FullState& b) {
  ASSERT_EQ(a.x.size(), b.x.size());
  EXPECT_EQ(a.x[0], b.x[0]);
  EXPECT_EQ(a.p(0, 0), b.p(0, 0));
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.last_innovation[0], b.last_innovation[0]);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.ss_mode, b.ss_mode);
  EXPECT_EQ(a.ss_streak1, b.ss_streak1);
  EXPECT_EQ(a.ss_streak2, b.ss_streak2);
  EXPECT_EQ(a.predicts_since_correct, b.predicts_since_correct);
  EXPECT_EQ(a.ss_have_prev, b.ss_have_prev);
  EXPECT_EQ(a.ss_prev_post[0](0, 0), b.ss_prev_post[0](0, 0));
  EXPECT_EQ(a.ss_prev_gain(0, 0), b.ss_prev_gain(0, 0));
  EXPECT_EQ(a.ss_period, b.ss_period);
  EXPECT_EQ(a.ss_idx, b.ss_idx);
  EXPECT_EQ(a.ss_gain[0](0, 0), b.ss_gain[0](0, 0));
  EXPECT_EQ(a.ss_prior_p[1](0, 0), b.ss_prior_p[1](0, 0));
}

TEST(SnapshotIoTest, RoundTripPreservesEveryField) {
  const EngineSnapshot original = BuildSnapshot();
  auto bytes_or = EncodeSnapshot(original);
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status().message();
  auto decoded_or = DecodeSnapshot(bytes_or.value());
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().message();
  const EngineSnapshot& decoded = decoded_or.value();

  EXPECT_EQ(decoded.energy.instructions_per_bit, 900.0);
  EXPECT_EQ(decoded.channel.drop_probability, 0.1);
  EXPECT_EQ(decoded.channel.seed, 77u);
  EXPECT_TRUE(decoded.channel.per_source_rng);
  ASSERT_TRUE(decoded.channel.fault.gilbert_elliott.has_value());
  EXPECT_EQ(decoded.channel.fault.gilbert_elliott->p_good_to_bad, 0.05);
  ASSERT_TRUE(decoded.channel.fault.delay.has_value());
  EXPECT_EQ(decoded.channel.fault.delay->max_ticks, 2);
  ASSERT_EQ(decoded.channel.fault.outages.size(), 1u);
  EXPECT_EQ(decoded.channel.fault.outages[0].end, 115);
  EXPECT_EQ(decoded.channel.fault.active_until, 280);
  EXPECT_EQ(decoded.default_delta, 5.0);
  EXPECT_EQ(decoded.protocol.heartbeat_interval, 3);
  EXPECT_EQ(decoded.protocol.staleness_budget, 5);
  EXPECT_EQ(decoded.num_shards, 3);
  EXPECT_EQ(decoded.ticks, 110);
  EXPECT_EQ(decoded.control_messages, 12);

  ASSERT_EQ(decoded.sources.size(), 2u);
  const SourceSnapshot& plain = decoded.sources[0];
  EXPECT_EQ(plain.source_id, 1);
  EXPECT_EQ(plain.model.measurement_dim, 1u);
  EXPECT_EQ(plain.node.delta, 1.5);
  EXPECT_FALSE(plain.node.smoothing_factor.has_value());
  ExpectFullStateEq(plain.node.mirror, original.sources[0].node.mirror);
  EXPECT_EQ(plain.node.readings, 110);
  EXPECT_EQ(plain.node.updates_sent, 31);
  EXPECT_EQ(plain.node.next_sequence, 40u);
  EXPECT_TRUE(plain.node.pending);
  EXPECT_EQ(plain.node.pending_since, 104);
  EXPECT_EQ(plain.node.first_resync_sequence, 38u);
  EXPECT_EQ(plain.node.resync_attempts, 2);
  EXPECT_EQ(plain.node.faults.divergence_events, 3);
  EXPECT_EQ(plain.link.last_sequence, 37u);
  EXPECT_EQ(plain.link.last_valid_tick, 99);
  EXPECT_EQ(plain.link.last_resync_tick, 80);
  ExpectFullStateEq(plain.link.predictor,
                    original.sources[0].link.predictor);
  EXPECT_EQ(plain.channel.stats.messages, 45);
  EXPECT_EQ(plain.channel.stats.dropped, 6);
  ASSERT_TRUE(plain.channel.has_rng);
  EXPECT_TRUE(plain.channel.rng.has_cached_gaussian);
  EXPECT_EQ(plain.channel.rng.cached_gaussian,
            original.sources[0].channel.rng.cached_gaussian);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(plain.channel.rng.words[w],
              original.sources[0].channel.rng.words[w]);
  }
  ASSERT_TRUE(plain.channel.has_ge_state);
  EXPECT_TRUE(plain.channel.ge_bad);
  ASSERT_EQ(plain.channel.in_flight.size(), 2u);
  EXPECT_EQ(plain.channel.in_flight[0].due, 111);
  EXPECT_TRUE(plain.channel.in_flight[0].corrupted);
  // The corrupted payload's NaN survives bit-exactly (raw IEEE bits).
  EXPECT_EQ(BitsOf(plain.channel.in_flight[0].message.payload[0]),
            BitsOf(original.sources[0]
                       .channel.in_flight[0]
                       .message.payload[0]));
  EXPECT_EQ(plain.channel.in_flight[0].message.checksum, 0xDEADBEEFu);
  EXPECT_EQ(plain.channel.in_flight[1].message.type, MessageType::kResync);
  EXPECT_TRUE(plain.channel.in_flight[1].ack_lost);
  EXPECT_EQ(plain.channel.in_flight[1].message.resync_state[0], 2.25);
  EXPECT_EQ(plain.channel.in_flight[1].message.resync_step, 108);
  EXPECT_EQ(plain.channel.deferred_acks,
            (std::vector<uint32_t>{36, 37}));

  const SourceSnapshot& smoothed = decoded.sources[1];
  EXPECT_EQ(smoothed.source_id, 4);
  ASSERT_TRUE(smoothed.node.smoothing_factor.has_value());
  EXPECT_EQ(*smoothed.node.smoothing_factor, 0.5);
  EXPECT_EQ(smoothed.node.smoothing_measurement_variance, 0.8);
  ExpectFullStateEq(smoothed.node.smoother_filter,
                    original.sources[1].node.smoother_filter);
  EXPECT_EQ(smoothed.node.smoother_count, 110);

  EXPECT_EQ(decoded.server_faults.resyncs_applied, 9);
  EXPECT_EQ(decoded.server_faults.rejected_corrupt, 4);
  ASSERT_TRUE(decoded.has_shared_rng);
  EXPECT_EQ(decoded.shared_rng.words[0], original.shared_rng.words[0]);

  ASSERT_EQ(decoded.queries.size(), 2u);
  EXPECT_EQ(decoded.queries[0].description, "point query");
  ASSERT_TRUE(decoded.queries[1].smoothing_factor.has_value());
  EXPECT_EQ(*decoded.queries[1].smoothing_factor, 0.5);
  ASSERT_EQ(decoded.aggregates.size(), 1u);
  EXPECT_EQ(decoded.aggregates[0].id, 7);
  EXPECT_EQ(decoded.aggregates[0].source_ids, (std::vector<int>{1, 4}));
  EXPECT_EQ(decoded.aggregates[0].synthetic_query_ids,
            original.aggregates[0].synthetic_query_ids);

  ASSERT_TRUE(decoded.obs.enabled);
  EXPECT_EQ(decoded.obs.options.ring_capacity, 1u << 10);
  ASSERT_EQ(decoded.obs.events.size(), 1u);
  EXPECT_TRUE(decoded.obs.events[0] == original.obs.events[0]);
  EXPECT_EQ(decoded.obs.kind_counts, original.obs.kind_counts);
  EXPECT_EQ(decoded.obs.gauges.at("channel.in_flight"), 2.0);

  EXPECT_EQ(decoded.serve.options.max_buffered_notifications, 4096u);
  ASSERT_EQ(decoded.serve.subscriptions.size(), 2u);
  EXPECT_TRUE(decoded.serve.subscriptions[0].spec ==
              original.serve.subscriptions[0].spec);
  EXPECT_TRUE(decoded.serve.subscriptions[0].inside);
  EXPECT_TRUE(decoded.serve.subscriptions[0].fired);
  EXPECT_TRUE(decoded.serve.subscriptions[1].spec ==
              original.serve.subscriptions[1].spec);
  EXPECT_FALSE(decoded.serve.subscriptions[1].inside);
  ASSERT_EQ(decoded.serve.pending.size(), 1u);
  EXPECT_TRUE(decoded.serve.pending[0] == original.serve.pending[0]);
  EXPECT_EQ(decoded.serve.drained_through_step, 108);
  EXPECT_EQ(decoded.serve.notifications, 61);
  EXPECT_EQ(decoded.serve.dropped, 2);
  EXPECT_EQ(decoded.serve.touched, 400);
  EXPECT_EQ(decoded.serve.affected, 59);

  ASSERT_TRUE(decoded.governor.enabled);
  EXPECT_TRUE(decoded.governor.options.enabled);
  EXPECT_EQ(decoded.governor.options.epoch_ticks, 16);
  EXPECT_EQ(decoded.governor.options.budget_bytes_per_tick, 150.0);
  EXPECT_EQ(decoded.governor.options.delta_floor, 0.05);
  EXPECT_EQ(decoded.governor.options.delta_ceiling, 64.0);
  EXPECT_EQ(decoded.governor.options.max_step_ratio, 2.0);
  EXPECT_EQ(decoded.governor.options.dead_band, 0.10);
  EXPECT_EQ(decoded.governor.options.ewma_alpha, 0.35);
  EXPECT_EQ(decoded.governor.options.process_noise, 0.04);
  EXPECT_EQ(decoded.governor.options.measurement_noise, 0.20);
  EXPECT_EQ(decoded.governor.epochs, 6);
  ASSERT_EQ(decoded.governor.states.size(), 2u);
  EXPECT_EQ(decoded.governor.states[0].source_id, 1);
  EXPECT_TRUE(decoded.governor.states[0].state ==
              original.governor.states[0].state);
  EXPECT_EQ(decoded.governor.states[1].source_id, 4);
  EXPECT_TRUE(decoded.governor.states[1].state ==
              original.governor.states[1].state);
}

TEST(SnapshotIoTest, RejectsCorruptGovernorSections) {
  // Out-of-order source ids: the encoder writes whatever it is given,
  // the decoder refuses.
  EngineSnapshot unordered = BuildSnapshot();
  std::swap(unordered.governor.states[0], unordered.governor.states[1]);
  auto unordered_result =
      DecodeSnapshot(EncodeSnapshot(unordered).value());
  ASSERT_FALSE(unordered_result.ok());
  EXPECT_EQ(unordered_result.status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(unordered_result.status().message().find("ascending"),
            std::string::npos);

  // A non-finite controller state would poison every later allocation.
  EngineSnapshot poisoned = BuildSnapshot();
  poisoned.governor.states[0].state.intensity =
      std::numeric_limits<double>::quiet_NaN();
  auto poisoned_result = DecodeSnapshot(EncodeSnapshot(poisoned).value());
  ASSERT_FALSE(poisoned_result.ok());
  EXPECT_EQ(poisoned_result.status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_NE(poisoned_result.status().message().find("non-finite"),
            std::string::npos);

  // Invalid governor options (a dead band of 1 would hold every delta
  // forever) fail the decoder's Validate pass.
  EngineSnapshot misconfigured = BuildSnapshot();
  misconfigured.governor.options.dead_band = 1.0;
  auto misconfigured_result =
      DecodeSnapshot(EncodeSnapshot(misconfigured).value());
  ASSERT_FALSE(misconfigured_result.ok());
  EXPECT_EQ(misconfigured_result.status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotIoTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/roundtrip.dkfsnap";
  ASSERT_TRUE(SaveSnapshotFile(BuildSnapshot(), path).ok());
  auto loaded_or = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().message();
  EXPECT_EQ(loaded_or.value().ticks, 110);

  auto missing = LoadSnapshotFile(::testing::TempDir() + "/nope.dkfsnap");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotIoTest, RejectsWrongMagic) {
  auto result = DecodeSnapshot("definitely not a snapshot");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("not a dkf snapshot"),
            std::string::npos);
}

TEST(SnapshotIoTest, RejectsVersionMismatch) {
  // Only kSnapshotVersion loads: retired versions (0, 1, 4) are refused
  // exactly like future ones (6, 9).
  for (uint8_t version : {0, 1, 4, 6, 9}) {
    std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
    bytes[8] = static_cast<char>(version);  // version u32 lives at offset 8
    auto result = DecodeSnapshot(bytes);
    ASSERT_FALSE(result.ok()) << "v" << int{version};
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "v" << int{version};
    EXPECT_NE(result.status().message().find("unsupported snapshot version"),
              std::string::npos)
        << "v" << int{version};
  }
}

TEST(SnapshotIoTest, GoldenBytesPinTheLayout) {
  auto bytes_or = EncodeSnapshot(GoldenSnapshot());
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status().message();
  const std::string& bytes = bytes_or.value();
  EXPECT_EQ(bytes.size(), kGoldenSnapshotBytes);
  EXPECT_EQ(Fnv1a64(reinterpret_cast<const uint8_t*>(bytes.data()),
                    bytes.size()),
            kGoldenSnapshotFnv);
  // Decoding the golden image and encoding it again is the identity.
  auto decoded_or = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().message();
  auto again_or = EncodeSnapshot(decoded_or.value());
  ASSERT_TRUE(again_or.ok()) << again_or.status().message();
  EXPECT_TRUE(again_or.value() == bytes);
}

TEST(SnapshotIoTest, RejectsChecksumMismatch) {
  std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
  bytes[bytes.size() - 1] =
      static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
  auto result = DecodeSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(SnapshotIoTest, RejectsTruncation) {
  const std::string bytes = EncodeSnapshot(BuildSnapshot()).value();
  // Truncated payload: the declared length no longer matches.
  auto payload_cut = DecodeSnapshot(bytes.substr(0, bytes.size() - 7));
  ASSERT_FALSE(payload_cut.ok());
  EXPECT_EQ(payload_cut.status().code(), StatusCode::kOutOfRange);
  // Truncated header (magic survives, version does not).
  auto header_cut = DecodeSnapshot(bytes.substr(0, 10));
  ASSERT_FALSE(header_cut.ok());
  EXPECT_EQ(header_cut.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotIoTest, RejectsTrailingGarbageInsidePayload) {
  // Craft a file whose header checksums and counts the padded payload,
  // so the only defense left is the decoder's exhaustion check.
  const std::string valid = EncodeSnapshot(BuildSnapshot()).value();
  std::string payload = valid.substr(28);  // 8 magic + 4 + 8 + 8
  payload.append("XX");
  BinaryWriter file;
  for (char c : std::string("DKFSNAP1")) {
    file.WriteU8(static_cast<uint8_t>(c));
  }
  file.WriteU32(kSnapshotVersion);
  file.WriteU64(Fnv1a64(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size()));
  file.WriteU64(payload.size());
  std::string bytes = file.TakeBytes();
  bytes.append(payload);
  auto result = DecodeSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(SnapshotIoTest, RejectsUnserializableModels) {
  EngineSnapshot snapshot = BuildSnapshot();
  snapshot.sources[0].model.options.transition_fn =
      [](int64_t) { return Matrix(1, 1); };
  auto fn_result = EncodeSnapshot(snapshot);
  ASSERT_FALSE(fn_result.ok());
  EXPECT_EQ(fn_result.status().code(), StatusCode::kUnimplemented);

  EngineSnapshot bad = BuildSnapshot();
  bad.sources[0].model.options.transition(0, 0) =
      std::numeric_limits<double>::infinity();
  auto finite_result = EncodeSnapshot(bad);
  ASSERT_FALSE(finite_result.ok());
  EXPECT_EQ(finite_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotIoTest, BinaryPrimitivesRoundTripAndBoundsCheck) {
  BinaryWriter writer;
  writer.WriteU8(200);
  writer.WriteU32(0xA1B2C3D4u);
  writer.WriteU64(0x1122334455667788ull);
  writer.WriteI64(-5);
  writer.WriteF64(std::numeric_limits<double>::quiet_NaN());
  writer.WriteBool(true);
  writer.WriteString("snapshot");

  const std::string bytes = writer.bytes();
  BinaryReader reader(bytes);
  EXPECT_EQ(reader.ReadU8().value(), 200);
  EXPECT_EQ(reader.ReadU32().value(), 0xA1B2C3D4u);
  EXPECT_EQ(reader.ReadU64().value(), 0x1122334455667788ull);
  EXPECT_EQ(reader.ReadI64().value(), -5);
  EXPECT_EQ(BitsOf(reader.ReadF64().value()),
            BitsOf(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(reader.ReadBool().value(), true);
  EXPECT_EQ(reader.ReadString().value(), "snapshot");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.remaining(), 0u);
  auto past_end = reader.ReadU8();
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kOutOfRange);

  // A bool byte other than 0/1 is rejected, not coerced.
  BinaryWriter bad_bool;
  bad_bool.WriteU8(2);
  const std::string bad_bytes = bad_bool.bytes();
  BinaryReader bad_reader(bad_bytes);
  ASSERT_FALSE(bad_reader.ReadBool().ok());

  // A payload that runs out mid-decode fails cleanly with OutOfRange
  // even when its header checksums correctly.
  BinaryWriter huge;
  huge.WriteU64(1ull << 60);
  const std::string huge_bytes = huge.bytes();
  BinaryWriter file;
  for (char c : std::string("DKFSNAP1")) {
    file.WriteU8(static_cast<uint8_t>(c));
  }
  file.WriteU32(kSnapshotVersion);
  file.WriteU64(Fnv1a64(
      reinterpret_cast<const uint8_t*>(huge_bytes.data()),
      huge_bytes.size()));
  file.WriteU64(huge_bytes.size());
  std::string crafted = file.TakeBytes();
  crafted.append(huge_bytes);
  auto result = DecodeSnapshot(crafted);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dkf
