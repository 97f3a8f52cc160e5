// Shared snapshot fixtures for the codec tests (docs/checkpoint.md):
// BuildSnapshot() is the round-trip fixture, GoldenSnapshot() extends it
// until every record type of the format is on the wire, and its encoded
// bytes are pinned by a digest.

#ifndef DKF_TESTS_CHECKPOINT_SNAPSHOT_FIXTURE_H_
#define DKF_TESTS_CHECKPOINT_SNAPSHOT_FIXTURE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "checkpoint/snapshot.h"
#include "common/rng.h"
#include "models/model_factory.h"

namespace dkf {
namespace testing_fixture {

inline StateModel ScalarModel() {
  ModelNoise noise;
  noise.process_variance = 0.05;
  noise.measurement_variance = 0.05;
  return MakeLinearModel(1, 1.0, noise).value();
}

inline KalmanFilter::FullState SmallFullState(double x0) {
  KalmanFilter::FullState state;
  state.x = Vector{x0};
  state.p = Matrix(1, 1);
  state.p(0, 0) = 0.25;
  state.step = 42;
  state.last_innovation = Vector{-0.125};
  state.process_noise = Matrix(1, 1);
  state.process_noise(0, 0) = 0.05;
  state.measurement_noise = Matrix(1, 1);
  state.measurement_noise(0, 0) = 0.05;
  state.phase = 1;
  state.ss_mode = 2;  // armed fast path
  state.ss_streak1 = 7;
  state.ss_streak2 = 3;
  state.predicts_since_correct = 5;
  state.ss_have_prev = 1;
  state.ss_prev_post[0] = Matrix(1, 1);
  state.ss_prev_post[0](0, 0) = 0.2;
  state.ss_prev_gain = Matrix(1, 1);
  state.ss_prev_gain(0, 0) = 0.6;
  state.ss_period = 2;
  state.ss_idx = 1;
  state.ss_gain[0] = Matrix(1, 1);
  state.ss_gain[0](0, 0) = 0.61;
  state.ss_prior_p[1] = Matrix(1, 1);
  state.ss_prior_p[1](0, 0) = 0.3;
  return state;
}

/// A snapshot exercising every optional branch of the format: faults,
/// per-source RNG + Gilbert–Elliott state, in-flight messages with a
/// NaN (corrupted) payload, deferred ACKs, smoothing, queries,
/// aggregates, and a retained trace.
inline EngineSnapshot BuildSnapshot() {
  EngineSnapshot snapshot;
  snapshot.energy.instructions_per_bit = 900.0;
  snapshot.channel.drop_probability = 0.1;
  snapshot.channel.seed = 77;
  snapshot.channel.per_source_rng = true;
  snapshot.channel.fault.gilbert_elliott =
      GilbertElliottLoss{0.05, 0.3, 0.0, 1.0};
  snapshot.channel.fault.delay = DelayModel{0, 2};
  snapshot.channel.fault.outages.push_back(OutageWindow{100, 115});
  snapshot.channel.fault.ack_loss_probability = 0.05;
  snapshot.channel.fault.corruption_probability = 0.03;
  snapshot.channel.fault.active_until = 280;
  snapshot.default_delta = 5.0;
  snapshot.protocol.heartbeat_interval = 3;
  snapshot.protocol.staleness_budget = 5;
  snapshot.num_shards = 3;
  snapshot.ticks = 110;
  snapshot.control_messages = 12;

  SourceSnapshot plain;
  plain.source_id = 1;
  plain.model = ScalarModel();
  plain.node.delta = 1.5;
  plain.node.mirror = SmallFullState(2.0);
  plain.node.readings = 110;
  plain.node.updates_sent = 31;
  plain.node.next_sequence = 40;
  plain.node.pending = true;
  plain.node.pending_since = 104;
  plain.node.first_resync_sequence = 38;
  plain.node.resync_attempts = 2;
  plain.node.last_resync_tick = 108;
  plain.node.last_send_tick = 108;
  plain.node.faults.divergence_events = 3;
  plain.link.last_sequence = 37;
  plain.link.last_valid_tick = 99;
  plain.link.last_resync_tick = 80;
  plain.link.last_update_tick = 99;
  plain.link.predictor = SmallFullState(1.9);
  plain.channel.stats.messages = 45;
  plain.channel.stats.bytes = 2000;
  plain.channel.stats.dropped = 6;
  plain.channel.has_rng = true;
  Rng rng(7);
  (void)rng.Gaussian(0.0, 1.0);  // cached-gaussian branch
  plain.channel.rng = rng.SaveState();
  plain.channel.has_ge_state = true;
  plain.channel.ge_bad = true;
  Channel::InFlightEntry corrupted;
  corrupted.due = 111;
  corrupted.corrupted = true;
  corrupted.message.type = MessageType::kMeasurement;
  corrupted.message.source_id = 1;
  corrupted.message.tick = 109;
  corrupted.message.payload =
      Vector{std::numeric_limits<double>::quiet_NaN()};
  corrupted.message.sequence = 39;
  corrupted.message.checksum = 0xDEADBEEF;
  plain.channel.in_flight.push_back(corrupted);
  Channel::InFlightEntry resync;
  resync.due = 112;
  resync.ack_lost = true;
  resync.message.type = MessageType::kResync;
  resync.message.source_id = 1;
  resync.message.tick = 110;
  resync.message.sequence = 40;
  resync.message.resync_state = Vector{2.25};
  resync.message.resync_covariance = Matrix(1, 1);
  resync.message.resync_covariance(0, 0) = 0.5;
  resync.message.resync_step = 108;
  plain.channel.in_flight.push_back(resync);
  plain.channel.deferred_acks = {36, 37};
  snapshot.sources.push_back(plain);

  SourceSnapshot smoothed;
  smoothed.source_id = 4;
  smoothed.model = ScalarModel();
  smoothed.node.delta = 2.0;
  smoothed.node.smoothing_factor = 0.5;
  smoothed.node.smoothing_measurement_variance = 0.8;
  smoothed.node.mirror = SmallFullState(-1.0);
  smoothed.node.smoother_filter = SmallFullState(-0.9);
  smoothed.node.smoother_count = 110;
  smoothed.link.predictor = SmallFullState(-1.0);
  snapshot.sources.push_back(smoothed);

  snapshot.server_faults.resyncs_applied = 9;
  snapshot.server_faults.rejected_corrupt = 4;
  snapshot.has_shared_rng = true;
  snapshot.shared_rng = Rng(13).SaveState();

  ContinuousQuery query;
  query.id = 1;
  query.source_id = 1;
  query.precision = 1.5;
  query.description = "point query";
  snapshot.queries.push_back(query);
  ContinuousQuery smoothed_query;
  smoothed_query.id = 100;
  smoothed_query.source_id = 4;
  smoothed_query.precision = 2.0;
  smoothed_query.smoothing_factor = 0.5;
  snapshot.queries.push_back(smoothed_query);

  AggregateSnapshot aggregate;
  aggregate.id = 7;
  aggregate.source_ids = {1, 4};
  aggregate.synthetic_query_ids = {(1 << 24) + 7 * 1024,
                                   (1 << 24) + 7 * 1024 + 1};
  snapshot.aggregates.push_back(aggregate);

  snapshot.obs.enabled = true;
  snapshot.obs.options.ring_capacity = 1 << 10;
  TraceEvent event;
  event.step = 109;
  event.source_id = 1;
  event.kind = TraceEventKind::kDivergence;
  event.actor = TraceActor::kSource;
  event.value = 3.5;
  event.detail = 39;
  snapshot.obs.events.push_back(event);
  snapshot.obs.kind_counts[static_cast<size_t>(TraceEventKind::kSuppress)] =
      800;
  snapshot.obs.kind_counts[static_cast<size_t>(
      TraceEventKind::kDivergence)] = 1;
  snapshot.obs.dropped = 0;
  snapshot.obs.gauges["channel.in_flight"] = 2.0;

  snapshot.serve.options.max_buffered_notifications = 4096;
  ServeSubscriptionSnapshot band;
  band.spec.id = 3;
  band.spec.kind = SubscriptionKind::kBandAlert;
  band.spec.source_id = 1;
  band.spec.lo = -1.0;
  band.spec.hi = 2.5;
  band.spec.uncertainty_ceiling = 0.75;
  band.spec.description = "band over source 1";
  band.inside = true;
  band.fired = true;
  snapshot.serve.subscriptions.push_back(band);
  ServeSubscriptionSnapshot agg_sub;
  agg_sub.spec.id = 9;
  agg_sub.spec.kind = SubscriptionKind::kAggregate;
  agg_sub.spec.aggregate_id = 7;
  snapshot.serve.subscriptions.push_back(agg_sub);
  NotificationBatch batch;
  batch.step = 109;
  Notification agg_update;
  agg_update.step = 109;
  agg_update.source_id = -8;  // AggregateSourceKey(7)
  agg_update.subscription_id = 9;
  agg_update.kind = NotificationKind::kAggregateUpdate;
  agg_update.value = 3.25;
  batch.notifications.push_back(agg_update);
  Notification band_exit;
  band_exit.step = 109;
  band_exit.source_id = 1;
  band_exit.subscription_id = 3;
  band_exit.kind = NotificationKind::kBandExit;
  band_exit.value = 2.75;
  band_exit.aux = 2.5;
  batch.notifications.push_back(band_exit);
  snapshot.serve.pending.push_back(batch);
  snapshot.serve.drained_through_step = 108;
  snapshot.serve.notifications = 61;
  snapshot.serve.dropped = 2;
  snapshot.serve.touched = 400;
  snapshot.serve.affected = 59;

  snapshot.governor.enabled = true;
  snapshot.governor.options.enabled = true;
  snapshot.governor.options.epoch_ticks = 16;
  snapshot.governor.options.budget_bytes_per_tick = 150.0;
  snapshot.governor.options.delta_floor = 0.05;
  snapshot.governor.options.delta_ceiling = 64.0;
  snapshot.governor.options.max_step_ratio = 2.0;
  snapshot.governor.options.dead_band = 0.10;
  snapshot.governor.options.ewma_alpha = 0.35;
  snapshot.governor.options.process_noise = 0.04;
  snapshot.governor.options.measurement_noise = 0.20;
  snapshot.governor.epochs = 6;
  GovernorSourceSnapshot measured;
  measured.source_id = 1;
  measured.state.ewma_bytes = 87.5;
  measured.state.ewma_updates = 2.75;
  measured.state.last_bytes = 9800;
  measured.state.last_updates = 310;
  measured.state.intensity = 196.875;
  measured.state.variance = 12.5;
  measured.state.measured = true;
  snapshot.governor.states.push_back(measured);
  GovernorSourceSnapshot frozen;
  frozen.source_id = 4;
  frozen.state.last_bytes = 450;
  frozen.state.last_updates = 12;
  frozen.state.frozen = true;
  frozen.state.held_delta = 2.5;
  snapshot.governor.states.push_back(frozen);
  return snapshot;
}

/// BuildSnapshot() plus every record it leaves off the wire: the
/// adaptive-noise config block and the node/link/resync `adapt` vectors,
/// a two-member fusion group with its channel lanes, a fused query, and
/// a kFused subscription with a buffered kFusedUpdate notification. Kept
/// apart from BuildSnapshot() because the round-trip test pins that
/// fixture's subscription count. The cached Gaussian is a literal so the
/// golden bytes do not depend on the platform's libm.
inline EngineSnapshot GoldenSnapshot() {
  EngineSnapshot snapshot = BuildSnapshot();
  snapshot.sources[0].channel.rng.cached_gaussian = -0.6875;

  // Two gauges, so a flipped name byte can re-sort or merge them.
  snapshot.obs.gauges["adapt.r_scale.1"] = 1.0;

  AdaptiveNoiseConfig& adaptive = snapshot.protocol.adaptive;
  adaptive.enabled = true;
  adaptive.holdover_gap = 512;
  adaptive.r_scale_ceiling = 20.0;
  adaptive.lock_streak = 12;
  SourceSnapshot& plain = snapshot.sources[0];
  plain.node.adapt = Vector{1.0, 0.5, 0.25, 3.0};
  plain.link.adapt = Vector{1.0, 0.5, 0.25, 3.0};
  plain.channel.in_flight[1].message.resync_adapt =
      Vector{1.0, 0.5, 0.25, 2.0};

  ServeSubscriptionSnapshot fused_sub;
  fused_sub.spec.id = 11;
  fused_sub.spec.kind = SubscriptionKind::kFused;
  fused_sub.spec.group_id = 2;
  fused_sub.spec.description = "fused feed";
  fused_sub.inside = true;
  snapshot.serve.subscriptions.push_back(fused_sub);
  Notification fused_update;
  fused_update.step = 109;
  fused_update.source_id = FusedSourceKey(2);
  fused_update.subscription_id = 11;
  fused_update.kind = NotificationKind::kFusedUpdate;
  fused_update.value = 3.125;
  fused_update.aux = 0.0625;
  // Canonical (step, source_id, subscription_id) order: the fused key
  // sorts before every plain and aggregate key.
  std::vector<Notification>& pending =
      snapshot.serve.pending[0].notifications;
  pending.insert(pending.begin(), fused_update);

  FusedQuery fused_query;
  fused_query.id = 5;
  fused_query.group_id = 2;
  fused_query.precision = 0.75;
  fused_query.description = "fused group 2";
  snapshot.fused_queries.push_back(fused_query);

  FusionGroupSnapshot fusion;
  FusionEngine::GroupState& group = fusion.group;
  group.group_id = 2;
  group.model = ScalarModel();
  group.delta = 0.75;
  group.base_delta = 1.0;
  group.norm = DeviationNorm::kL2;
  group.posterior = SmallFullState(3.0);
  group.version = 17;
  group.last_valid_tick = 109;
  group.faults.resyncs_applied = 1;
  group.updates_applied = 40;
  group.suppressed = 180;
  group.transmissions = 41;
  group.broadcasts = 6;
  group.broadcast_bytes = 720;
  for (int k = 0; k < 2; ++k) {
    FusionEngine::MemberState member;
    member.source_id = 20 + k;
    member.mirror = SmallFullState(3.0 + 0.125 * k);
    member.mirror_version = 17 - k;
    member.pending = k == 1;
    member.pending_since = k == 1 ? 107 : 0;
    member.resync_attempts = k;
    member.last_resync_tick = 90 + k;
    member.last_send_tick = 105 + k;
    member.next_sequence = 30 + static_cast<uint32_t>(k);
    member.last_sequence = 28 + static_cast<uint32_t>(k);
    member.synced_version = 16;
    group.members.push_back(member);

    Channel::SourceCheckpoint lane;
    lane.stats.messages = 20 + k;
    lane.stats.bytes = 800 + 8 * k;
    lane.has_rng = true;
    lane.rng = Rng(static_cast<uint64_t>(20 + k)).SaveState();
    lane.has_ge_state = k == 0;
    lane.deferred_acks = {static_cast<uint32_t>(27 + k)};
    if (k == 1) {
      Channel::InFlightEntry entry;
      entry.due = 111;
      entry.message.type = MessageType::kMeasurement;
      entry.message.source_id = 21;
      entry.message.tick = 110;
      entry.message.payload = Vector{3.25};
      entry.message.sequence = 30;
      lane.in_flight.push_back(entry);
    }
    fusion.member_channels.push_back(lane);
  }
  snapshot.fusion_groups.push_back(fusion);
  return snapshot;
}

/// Size and FNV-1a-64 digest of EncodeSnapshot(GoldenSnapshot()): the
/// v5 byte layout. A change here is a format change — bump
/// kSnapshotVersion with it (docs/checkpoint.md, "Versioning rules").
inline constexpr size_t kGoldenSnapshotBytes = 7048;
inline constexpr uint64_t kGoldenSnapshotFnv = 0x6172ed5ed79dfbc1ull;

}  // namespace testing_fixture
}  // namespace dkf

#endif  // DKF_TESTS_CHECKPOINT_SNAPSHOT_FIXTURE_H_
