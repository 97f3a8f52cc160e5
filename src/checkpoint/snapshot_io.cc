#include "checkpoint/snapshot_io.h"

#include <cmath>
#include <type_traits>
#include <utility>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "core/synopsis_io.h"

namespace dkf {

namespace {

constexpr size_t kMagicBytes = 8;

// Every record has exactly one field list, `Fields(io, record)`, and both
// directions run it: an Encoder appends each field to the payload, a
// Decoder parses it back into a fresh record. The two share one method
// set, so the byte layout cannot drift between them.
//
// Errors are sticky: the first one is kept and every later read is a
// no-op, so a field list is a plain sequence of fields with no early
// returns. Element counts read after an error are zero, which bounds the
// work a failed decode still walks through.
//
// Range, enum and count checks happen on read only (the encoder's fields
// are in range by type). Validity checks go through `Check`/`Ascending`,
// which the Encoder ignores: the encoder writes whatever it is given and
// only the decoder refuses. `Require` records a Status in both directions.

class Encoder {
 public:
  static constexpr bool kReading = false;

  explicit Encoder(BinaryWriter& writer) : writer_(writer) {}

  void U8(uint8_t value) { writer_.WriteU8(value); }
  void U32(uint32_t value) { writer_.WriteU32(value); }
  void U64(uint64_t value) { writer_.WriteU64(value); }
  void I64(int64_t value) { writer_.WriteI64(value); }
  void F64(double value) { writer_.WriteF64(value); }
  void Bool(bool value) { writer_.WriteBool(value); }
  void Str(const std::string& value) { writer_.WriteString(value); }
  /// A 32-bit field, widened to i64 on the wire.
  void I32(int32_t value, const char*) { writer_.WriteI64(value); }
  /// An enum as one byte.
  template <class E>
  void Enum(E value, E, const char*) {
    writer_.WriteU8(static_cast<uint8_t>(value));
  }
  /// An element count (u64).
  void Count(uint64_t count, size_t, const char*) { writer_.WriteU64(count); }

  void Check(bool, const char*) {}
  template <class Id>
  void Ascending(Id, Id&, const char*) {}
  void Require(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  const Status& status() const { return status_; }

 private:
  BinaryWriter& writer_;
  Status status_;
};

class Decoder {
 public:
  static constexpr bool kReading = true;

  explicit Decoder(BinaryReader& reader) : reader_(reader) {}

  void U8(uint8_t& value) { Read(&BinaryReader::ReadU8, value); }
  void U32(uint32_t& value) { Read(&BinaryReader::ReadU32, value); }
  void U64(uint64_t& value) { Read(&BinaryReader::ReadU64, value); }
  void I64(int64_t& value) { Read(&BinaryReader::ReadI64, value); }
  void F64(double& value) { Read(&BinaryReader::ReadF64, value); }
  void Bool(bool& value) { Read(&BinaryReader::ReadBool, value); }
  void Str(std::string& value) { Read(&BinaryReader::ReadString, value); }

  void I32(int32_t& value, const char* what) {
    int64_t wide = 0;
    I64(wide);
    if (wide < INT32_MIN || wide > INT32_MAX) {
      Require(Status::InvalidArgument(
          StrFormat("snapshot field %s out of 32-bit range", what)));
      return;
    }
    value = static_cast<int32_t>(wide);
  }

  /// Accepts bytes below `end`, the enum's one-past-last value.
  template <class E>
  void Enum(E& value, E end, const char* what) {
    uint8_t raw = 0;
    U8(raw);
    if (raw >= static_cast<uint8_t>(end)) {
      Require(Status::InvalidArgument(
          StrFormat("invalid %s %u in snapshot", what, raw)));
      return;
    }
    value = static_cast<E>(raw);
  }

  /// Guards a decoded element count against the bytes actually left, so a
  /// corrupted count fails cleanly instead of attempting a huge
  /// allocation. `min_bytes` is the smallest encoding of one element; 0
  /// means elements take no bytes and any count is allowed.
  void Count(uint64_t& count, size_t min_bytes, const char* what) {
    uint64_t raw = 0;
    U64(raw);
    if (min_bytes > 0 && raw > reader_.remaining() / min_bytes) {
      Require(Status::OutOfRange(StrFormat(
          "truncated snapshot: %s count %llu exceeds the remaining payload",
          what, static_cast<unsigned long long>(raw))));
    }
    count = ok() ? raw : 0;
  }

  void Check(bool valid, const char* message) {
    if (!valid) Require(Status::InvalidArgument(message));
  }
  /// Ids of a sequence must arrive strictly ascending.
  template <class Id>
  void Ascending(Id id, Id& previous, const char* message) {
    Check(id > previous, message);
    previous = id;
  }
  void Require(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  template <class T, class U>
  void Read(Result<U> (BinaryReader::*read)(), T& value) {
    if (!ok()) return;
    Result<U> result = (reader_.*read)();
    if (result.ok()) {
      value = std::move(result).value();
    } else {
      Require(result.status());
    }
  }

  BinaryReader& reader_;
  Status status_;
};

/// The record as a field list sees it: mutable when decoding, const when
/// encoding.
template <class Io, class T>
using In = std::conditional_t<Io::kReading, T, const T>;

/// A counted sequence: u64 count, then every element through `field`.
/// The decoder builds elements only while the parse succeeds, so a
/// corrupted count touches no more memory than the bytes behind it.
template <class Io, class Seq, class Field>
void Each(Io& io, Seq& items, size_t min_bytes, const char* what,
          Field field) {
  uint64_t count = items.size();
  io.Count(count, min_bytes, what);
  if constexpr (Io::kReading) {
    items.reserve(static_cast<size_t>(count));
    while (items.size() < count && io.ok()) field(items.emplace_back());
  } else {
    for (auto& item : items) field(item);
  }
}

/// A presence flag, then the value when present.
template <class Io, class Opt, class Field>
void Optional(Io& io, Opt& value, Field field) {
  bool present = value.has_value();
  io.Bool(present);
  if (!present) return;
  if constexpr (Io::kReading) value.emplace();
  field(*value);
}

// One past the last enumerator, for enums without a kCount sentinel.
constexpr MessageType kMessageTypeEnd = static_cast<MessageType>(
    static_cast<int>(MessageType::kHeartbeat) + 1);
constexpr DeviationNorm kDeviationNormEnd =
    static_cast<DeviationNorm>(static_cast<int>(DeviationNorm::kL1) + 1);

// ---- field lists, leaves first --------------------------------------

template <class Io>
void Fields(Io& io, In<Io, Vector>& v) {
  uint64_t size = v.size();
  io.Count(size, 8, "vector");
  if constexpr (Io::kReading) v = Vector(static_cast<size_t>(size));
  for (size_t i = 0; i < v.size(); ++i) io.F64(v[i]);
}

template <class Io>
void Fields(Io& io, In<Io, Matrix>& m) {
  uint64_t rows = m.rows();
  uint64_t cols = m.cols();
  io.Count(rows, 8, "matrix rows");
  // Bounds rows * cols by the payload without forming the product, which
  // a corrupted column count could overflow.
  io.Count(cols, rows == 0 ? 0 : 8 * rows, "matrix cells");
  if constexpr (Io::kReading) {
    m = Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
  }
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) io.F64(m(r, c));
  }
}

template <class Io>
void Fields(Io& io, In<Io, Rng::State>& state) {
  for (auto& word : state.words) io.U64(word);
  io.Bool(state.has_cached_gaussian);
  io.F64(state.cached_gaussian);
}

template <class Io>
void Fields(Io& io, In<Io, ProtocolFaultStats>& s) {
  io.I64(s.divergence_events);
  io.I64(s.resyncs_sent);
  io.I64(s.heartbeats_sent);
  io.I64(s.ambiguous_acks);
  io.I64(s.ticks_diverged);
  io.I64(s.max_recovery_ticks);
  io.I64(s.resyncs_applied);
  io.I64(s.heartbeats_received);
  io.I64(s.rejected_stale);
  io.I64(s.rejected_corrupt);
  io.I64(s.sequence_gaps);
  io.I64(s.degraded_ticks);
}

template <class Io>
void Fields(Io& io, In<Io, ChannelStats>& s) {
  io.I64(s.messages);
  io.I64(s.bytes);
  io.I64(s.dropped);
  io.I64(s.corrupted);
  io.I64(s.delayed);
  io.I64(s.ack_lost);
  io.I64(s.outage_dropped);
}

template <class Io>
void Fields(Io& io, In<Io, KalmanFilter::FullState>& f) {
  Fields(io, f.x);
  Fields(io, f.p);
  io.I64(f.step);
  Fields(io, f.last_innovation);
  Fields(io, f.process_noise);
  Fields(io, f.measurement_noise);
  io.U8(f.phase);
  io.U8(f.ss_mode);
  io.I32(f.ss_streak1, "ss_streak1");
  io.I32(f.ss_streak2, "ss_streak2");
  io.I64(f.predicts_since_correct);
  io.I32(f.ss_have_prev, "ss_have_prev");
  Fields(io, f.ss_prev_post[0]);
  Fields(io, f.ss_prev_post[1]);
  Fields(io, f.ss_prev_gain);
  io.I32(f.ss_period, "ss_period");
  io.I32(f.ss_pending_priors, "ss_pending_priors");
  io.I32(f.ss_capture_idx, "ss_capture_idx");
  io.I32(f.ss_idx, "ss_idx");
  Fields(io, f.ss_gain[0]);
  Fields(io, f.ss_gain[1]);
  Fields(io, f.ss_prior_p[0]);
  Fields(io, f.ss_prior_p[1]);
  Fields(io, f.ss_post_p[0]);
  Fields(io, f.ss_post_p[1]);
}

template <class Io>
void Fields(Io& io, In<Io, Message>& message) {
  io.Enum(message.type, kMessageTypeEnd, "message type");
  io.I32(message.source_id, "source_id");
  io.I64(message.tick);
  Fields(io, message.payload);
  io.U64(message.model_index);
  io.U32(message.sequence);
  io.U32(message.checksum);
  Fields(io, message.resync_state);
  Fields(io, message.resync_covariance);
  io.I64(message.resync_step);
  Fields(io, message.resync_adapt);
}

/// The finiteness contract for a serialized model recipe, applied on
/// both paths (same rule as the synopsis codec).
Status RequireFiniteModel(const StateModel& model) {
  DKF_RETURN_IF_ERROR(RequireFinite(model.options.transition, "transition"));
  DKF_RETURN_IF_ERROR(RequireFinite(model.options.measurement, "measurement"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.process_noise, "process_noise"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.measurement_noise, "measurement_noise"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.initial_state, "initial_state"));
  DKF_RETURN_IF_ERROR(
      RequireFinite(model.options.initial_covariance, "initial_covariance"));
  return Status::OK();
}

template <class Io>
void Fields(Io& io, In<Io, StateModel>& model) {
  if (model.options.transition_fn) {
    io.Require(Status::Unimplemented(
        "time-varying transitions are not serializable"));
  }
  io.Str(model.name);
  io.U64(model.measurement_dim);
  Fields(io, model.options.transition);
  Fields(io, model.options.measurement);
  Fields(io, model.options.process_noise);
  Fields(io, model.options.measurement_noise);
  Fields(io, model.options.initial_state);
  Fields(io, model.options.initial_covariance);
  io.Bool(model.options.steady_state_fast_path);
  io.F64(model.options.steady_state_tolerance);
  io.Check(std::isfinite(model.options.steady_state_tolerance),
           "steady_state_tolerance contains a non-finite value");
  io.Require(RequireFiniteModel(model));
}

template <class Io>
void Fields(Io& io, In<Io, SourceNode::CheckpointState>& node) {
  io.F64(node.delta);
  Optional(io, node.smoothing_factor, [&](auto& factor) { io.F64(factor); });
  io.F64(node.smoothing_measurement_variance);
  Fields(io, node.mirror);
  if (node.smoothing_factor.has_value()) {
    Fields(io, node.smoother_filter);
    io.I64(node.smoother_count);
  }
  io.F64(node.energy_transmission);
  io.F64(node.energy_compute);
  io.F64(node.energy_sensing);
  io.I64(node.readings);
  io.I64(node.updates_sent);
  io.U32(node.next_sequence);
  io.Bool(node.pending);
  io.I64(node.pending_since);
  io.U32(node.first_resync_sequence);
  io.I32(node.resync_attempts, "resync_attempts");
  io.I64(node.last_resync_tick);
  io.I64(node.last_send_tick);
  Fields(io, node.faults);
  Fields(io, node.adapt);
}

template <class Io>
void Fields(Io& io, In<Io, ServerNode::LinkSnapshot>& link) {
  io.U32(link.last_sequence);
  io.I64(link.last_valid_tick);
  io.I64(link.last_resync_tick);
  io.I64(link.last_update_tick);
  Fields(io, link.predictor);
  Fields(io, link.adapt);
}

template <class Io>
void Fields(Io& io, In<Io, Channel::SourceCheckpoint>& lane) {
  Fields(io, lane.stats);
  io.Bool(lane.has_rng);
  if (lane.has_rng) Fields(io, lane.rng);
  io.Bool(lane.has_ge_state);
  if (lane.has_ge_state) io.Bool(lane.ge_bad);
  Each(io, lane.in_flight, 8, "in-flight", [&](auto& entry) {
    io.I64(entry.due);
    io.Bool(entry.ack_lost);
    io.Bool(entry.corrupted);
    Fields(io, entry.message);
  });
  Each(io, lane.deferred_acks, 4, "deferred-ack",
       [&](auto& ack) { io.U32(ack); });
}

template <class Io>
void Fields(Io& io, In<Io, FaultModel>& fault) {
  Optional(io, fault.gilbert_elliott, [&](auto& ge) {
    io.F64(ge.p_good_to_bad);
    io.F64(ge.p_bad_to_good);
    io.F64(ge.good_loss);
    io.F64(ge.bad_loss);
  });
  Optional(io, fault.delay, [&](auto& delay) {
    io.I64(delay.min_ticks);
    io.I64(delay.max_ticks);
  });
  Each(io, fault.outages, 16, "outage", [&](auto& window) {
    io.I64(window.start);
    io.I64(window.end);
  });
  io.F64(fault.ack_loss_probability);
  io.F64(fault.corruption_probability);
  io.I64(fault.active_until);
}

template <class Io>
void Fields(Io& io, In<Io, AdaptiveNoiseConfig>& a) {
  io.Bool(a.enabled);
  io.F64(a.ratio_alpha);
  io.F64(a.corr_alpha);
  io.I64(a.warmup_corrections);
  io.F64(a.widen_threshold);
  io.F64(a.shrink_threshold);
  io.F64(a.widen_rate);
  io.F64(a.shrink_rate);
  io.F64(a.r_scale_floor);
  io.F64(a.r_scale_ceiling);
  io.F64(a.corr_q_threshold);
  io.F64(a.q_rate);
  io.F64(a.q_scale_floor);
  io.F64(a.q_scale_ceiling);
  io.F64(a.variance_floor);
  io.Bool(a.quantization_floor);
  io.I64(a.holdover_gap);
  io.I64(a.lock_streak);
}

template <class Io>
void Fields(Io& io, In<Io, TraceEvent>& event) {
  io.I64(event.step);
  io.I32(event.source_id, "event source");
  io.Enum(event.kind, TraceEventKind::kCount, "trace event kind");
  io.Enum(event.actor, TraceActor::kCount, "trace actor");
  io.F64(event.value);
  io.F64(event.aux);
  io.I64(event.detail);
}

template <class Io>
void Fields(Io& io, In<Io, ObsSnapshot>& obs) {
  io.Bool(obs.enabled);
  if (!obs.enabled) return;
  io.U64(obs.options.ring_capacity);
  io.Bool(obs.options.record_timing);
  Each(io, obs.events, 34, "trace event",
       [&](auto& event) { Fields(io, event); });
  uint64_t kinds = obs.kind_counts.size();
  io.Count(kinds, 8, "trace event kind");
  if (kinds != obs.kind_counts.size()) {
    io.Require(Status::InvalidArgument(StrFormat(
        "snapshot has %llu trace event kinds, this build knows %d",
        static_cast<unsigned long long>(kinds), kNumTraceEventKinds)));
  }
  for (auto& count : obs.kind_counts) io.I64(count);
  io.I64(obs.dropped);
  // The gauges are a map, so the two directions walk it differently; the
  // decoder insists on the order the encoder writes (strictly ascending
  // names), so no two encodings decode to the same map.
  uint64_t gauges = obs.gauges.size();
  io.Count(gauges, 16, "gauge");
  if constexpr (Io::kReading) {
    for (uint64_t i = 0; i < gauges && io.ok(); ++i) {
      std::string name;
      double value = 0.0;
      io.Str(name);
      io.F64(value);
      io.Check(obs.gauges.empty() || obs.gauges.rbegin()->first < name,
               "snapshot gauges must have strictly ascending names");
      obs.gauges.emplace_hint(obs.gauges.end(), std::move(name), value);
    }
  } else {
    for (const auto& [name, value] : obs.gauges) {
      io.Str(name);
      io.F64(value);
    }
  }
}

template <class Io>
void Fields(Io& io, In<Io, Subscription>& spec) {
  io.I64(spec.id);
  io.Enum(spec.kind, SubscriptionKind::kCount, "subscription kind");
  io.I32(spec.source_id, "subscription source");
  io.I32(spec.aggregate_id, "subscription aggregate");
  io.F64(spec.lo);
  io.F64(spec.hi);
  io.F64(spec.uncertainty_ceiling);
  io.Str(spec.description);
  io.I32(spec.group_id, "subscription group");
}

template <class Io>
void Fields(Io& io, In<Io, Notification>& notification) {
  io.I64(notification.step);
  io.I32(notification.source_id, "notification source");
  io.I64(notification.subscription_id);
  io.Enum(notification.kind, NotificationKind::kCount, "notification kind");
  io.F64(notification.value);
  io.F64(notification.aux);
}

template <class Io>
void Fields(Io& io, In<Io, ServeSnapshot>& serve) {
  io.U64(serve.options.max_buffered_notifications);
  int64_t previous_sub = -1;
  Each(io, serve.subscriptions, 59, "subscription", [&](auto& sub) {
    Fields(io, sub.spec);
    io.Ascending(sub.spec.id, previous_sub,
                 "snapshot subscriptions must have strictly ascending ids");
    io.Bool(sub.inside);
    io.Bool(sub.fired);
  });
  int64_t previous_step = INT64_MIN;
  Each(io, serve.pending, 16, "notification batch", [&](auto& batch) {
    io.I64(batch.step);
    io.Ascending(batch.step, previous_step,
                 "snapshot notification batches must have strictly "
                 "ascending steps");
    Each(io, batch.notifications, 41, "notification",
         [&](auto& notification) { Fields(io, notification); });
  });
  io.I64(serve.drained_through_step);
  io.I64(serve.notifications);
  io.I64(serve.dropped);
  io.I64(serve.touched);
  io.I64(serve.affected);
}

template <class Io>
void Fields(Io& io, In<Io, GovernorSnapshot>& governor) {
  io.Bool(governor.enabled);
  if (!governor.enabled) return;
  auto& g = governor.options;
  if constexpr (Io::kReading) g.enabled = true;  // implied by the flag
  io.I64(g.epoch_ticks);
  io.F64(g.budget_bytes_per_tick);
  io.F64(g.delta_floor);
  io.F64(g.delta_ceiling);
  io.F64(g.max_step_ratio);
  io.F64(g.dead_band);
  io.F64(g.ewma_alpha);
  io.F64(g.process_noise);
  io.F64(g.measurement_noise);
  if constexpr (Io::kReading) io.Require(DeltaGovernor::Validate(g));
  io.I64(governor.epochs);
  int previous_id = INT32_MIN;
  Each(io, governor.states, 66, "governor state", [&](auto& entry) {
    io.I32(entry.source_id, "governor source id");
    io.Ascending(entry.source_id, previous_id,
                 "governor states must have strictly ascending source ids");
    auto& s = entry.state;
    io.F64(s.ewma_bytes);
    io.F64(s.ewma_updates);
    io.I64(s.last_bytes);
    io.I64(s.last_updates);
    io.F64(s.intensity);
    io.F64(s.variance);
    io.Bool(s.measured);
    io.Bool(s.frozen);
    io.F64(s.held_delta);
    io.Check(std::isfinite(s.ewma_bytes) && std::isfinite(s.ewma_updates) &&
                 std::isfinite(s.intensity) && std::isfinite(s.variance) &&
                 std::isfinite(s.held_delta),
             "governor state contains a non-finite value");
  });
}

/// Everything but the member id, which the group's loop reads and
/// order-checks first (as for sources and groups).
template <class Io>
void Fields(Io& io, In<Io, FusionEngine::MemberState>& member) {
  Fields(io, member.mirror);
  io.I64(member.mirror_version);
  io.Bool(member.pending);
  io.I64(member.pending_since);
  io.I32(member.resync_attempts, "fusion resync_attempts");
  io.I64(member.last_resync_tick);
  io.I64(member.last_send_tick);
  io.U32(member.next_sequence);
  io.U32(member.last_sequence);
  io.I64(member.synced_version);
}

/// Everything but the group id (read and order-checked by the caller).
template <class Io>
void Fields(Io& io, In<Io, FusionGroupSnapshot>& entry) {
  auto& group = entry.group;
  Fields(io, group.model);
  io.F64(group.delta);
  io.F64(group.base_delta);
  io.Enum(group.norm, kDeviationNormEnd, "deviation norm");
  Fields(io, group.posterior);
  io.I64(group.version);
  io.I64(group.last_valid_tick);
  Fields(io, group.faults);
  io.I64(group.updates_applied);
  io.I64(group.suppressed);
  io.I64(group.transmissions);
  io.I64(group.broadcasts);
  io.I64(group.broadcast_bytes);
  // Members and their channel lanes are parallel vectors on one count:
  // the member count, then each member followed by its lane.
  if (entry.member_channels.size() != group.members.size()) {
    io.Require(Status::InvalidArgument(StrFormat(
        "fusion group %d has %zu channel lanes for %zu members",
        group.group_id, entry.member_channels.size(), group.members.size())));
    return;
  }
  int previous_id = INT32_MIN;
  size_t m = 0;
  Each(io, group.members, 8, "fusion member", [&](auto& member) {
    io.I32(member.source_id, "fusion member id");
    io.Ascending(member.source_id, previous_id,
                 "fusion members must have strictly ascending ids");
    Fields(io, member);
    if constexpr (Io::kReading) entry.member_channels.emplace_back();
    Fields(io, entry.member_channels[m++]);
  });
}

template <class Io>
void Fields(Io& io, In<Io, EngineSnapshot>& snapshot) {
  // Configuration.
  io.F64(snapshot.energy.instructions_per_bit);
  io.F64(snapshot.energy.instructions_per_filter_step);
  io.F64(snapshot.energy.instructions_per_reading);
  io.F64(snapshot.channel.drop_probability);
  io.U64(snapshot.channel.seed);
  io.Bool(snapshot.channel.per_source_rng);
  Fields(io, snapshot.channel.fault);
  io.F64(snapshot.default_delta);
  io.I64(snapshot.protocol.heartbeat_interval);
  io.I32(snapshot.protocol.resync_burst_retries, "resync_burst_retries");
  io.I64(snapshot.protocol.resync_retry_backoff);
  io.I64(snapshot.protocol.staleness_budget);
  io.F64(snapshot.protocol.degraded_inflation);
  Fields(io, snapshot.protocol.adaptive);
  io.I32(snapshot.num_shards, "num_shards");
  io.Check(snapshot.num_shards >= 1, "snapshot shard count must be >= 1");

  // Progress.
  io.I64(snapshot.ticks);
  io.I64(snapshot.control_messages);

  // Per-source state: both halves of every link plus its channel lane.
  int previous_source = INT32_MIN;
  Each(io, snapshot.sources, 8, "source", [&](auto& source) {
    io.I32(source.source_id, "source id");
    io.Ascending(source.source_id, previous_source,
                 "snapshot sources must have strictly ascending ids");
    Fields(io, source.model);
    Fields(io, source.node);
    Fields(io, source.link);
    Fields(io, source.channel);
  });

  Fields(io, snapshot.server_faults);
  io.Bool(snapshot.has_shared_rng);
  if (snapshot.has_shared_rng) Fields(io, snapshot.shared_rng);

  // Queries and aggregates.
  Each(io, snapshot.queries, 8, "query", [&](auto& query) {
    io.I32(query.id, "query id");
    io.I32(query.source_id, "query source");
    io.F64(query.precision);
    Optional(io, query.smoothing_factor,
             [&](auto& factor) { io.F64(factor); });
    io.Str(query.description);
  });
  Each(io, snapshot.aggregates, 8, "aggregate", [&](auto& aggregate) {
    io.I32(aggregate.id, "aggregate id");
    Each(io, aggregate.source_ids, 8, "aggregate member",
         [&](auto& id) { io.I32(id, "member id"); });
    Each(io, aggregate.synthetic_query_ids, 8, "synthetic query",
         [&](auto& id) { io.I32(id, "synthetic id"); });
  });

  Fields(io, snapshot.obs);
  Fields(io, snapshot.serve);
  Fields(io, snapshot.governor);

  // Multi-sensor fusion.
  int previous_fused = INT32_MIN;
  Each(io, snapshot.fused_queries, 8, "fused query", [&](auto& query) {
    io.I32(query.id, "fused query id");
    io.Ascending(query.id, previous_fused,
                 "fused queries must have strictly ascending ids");
    io.I32(query.group_id, "fused query group");
    io.F64(query.precision);
    io.Str(query.description);
  });
  int previous_group = INT32_MIN;
  Each(io, snapshot.fusion_groups, 8, "fusion group", [&](auto& entry) {
    io.I32(entry.group.group_id, "fusion group id");
    io.Ascending(entry.group.group_id, previous_group,
                 "fusion groups must have strictly ascending ids");
    Fields(io, entry);
  });
}

}  // namespace

Result<std::string> EncodeSnapshot(const EngineSnapshot& snapshot) {
  BinaryWriter payload;
  Encoder encoder(payload);
  Fields(encoder, snapshot);
  DKF_RETURN_IF_ERROR(encoder.status());
  const std::string& body = payload.bytes();

  BinaryWriter file;
  for (size_t i = 0; i < kMagicBytes; ++i) {
    file.WriteU8(static_cast<uint8_t>(kSnapshotMagic[i]));
  }
  file.WriteU32(kSnapshotVersion);
  file.WriteU64(
      Fnv1a64(reinterpret_cast<const uint8_t*>(body.data()), body.size()));
  file.WriteU64(body.size());
  std::string bytes = file.TakeBytes();
  bytes.append(body);
  return bytes;
}

Result<EngineSnapshot> DecodeSnapshot(const std::string& bytes) {
  BinaryReader header(bytes);
  for (size_t i = 0; i < kMagicBytes; ++i) {
    auto byte_or = header.ReadU8();
    if (!byte_or.ok() ||
        byte_or.value() != static_cast<uint8_t>(kSnapshotMagic[i])) {
      return Status::InvalidArgument("not a dkf snapshot file");
    }
  }
  DKF_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported snapshot version %u (this build reads %u)",
                  version, kSnapshotVersion));
  }
  DKF_ASSIGN_OR_RETURN(uint64_t checksum, header.ReadU64());
  DKF_ASSIGN_OR_RETURN(uint64_t payload_len, header.ReadU64());
  if (payload_len != header.remaining()) {
    return Status::OutOfRange(StrFormat(
        "snapshot payload length %llu does not match the %llu bytes present",
        static_cast<unsigned long long>(payload_len),
        static_cast<unsigned long long>(header.remaining())));
  }
  const std::string payload = bytes.substr(header.offset());
  const uint64_t actual = Fnv1a64(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  if (actual != checksum) {
    return Status::InvalidArgument(
        "snapshot payload checksum mismatch (file corrupted)");
  }
  BinaryReader reader(payload);
  Decoder decoder(reader);
  EngineSnapshot snapshot;
  Fields(decoder, snapshot);
  DKF_RETURN_IF_ERROR(decoder.status());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot has %llu bytes of trailing garbage",
        static_cast<unsigned long long>(reader.remaining())));
  }
  return snapshot;
}

Status SaveSnapshotFile(const EngineSnapshot& snapshot,
                        const std::string& path) {
  DKF_ASSIGN_OR_RETURN(std::string bytes, EncodeSnapshot(snapshot));
  return WriteFileBytes(path, bytes);
}

Result<EngineSnapshot> LoadSnapshotFile(const std::string& path) {
  DKF_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DecodeSnapshot(bytes);
}

}  // namespace dkf
