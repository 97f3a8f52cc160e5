#include "runtime/shard.h"

#include <chrono>

#include "common/string_util.h"

namespace dkf {

namespace {

/// The serving layer's view of one shard: component 0 of the shard's
/// server-side answers plus the projected variance. Aggregates span
/// shards and are served at the engine, never here.
class ShardAnswers final : public ServeAnswerSource {
 public:
  explicit ShardAnswers(const StreamShard& shard) : shard_(shard) {}

  Result<double> SourceValue(int source_id) const override {
    auto answer_or = shard_.Answer(source_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value()[0];
  }

  Result<double> SourceUncertainty(int source_id) const override {
    auto answer_or = shard_.AnswerWithConfidence(source_id);
    if (!answer_or.ok()) return answer_or.status();
    if (!answer_or.value().covariance.has_value()) return 0.0;
    return (*answer_or.value().covariance)(0, 0);
  }

  Result<double> AggregateValue(int aggregate_id) const override {
    return Status::InvalidArgument(
        StrFormat("aggregate %d is not served at shard level",
                  aggregate_id));
  }

  Result<double> FusedValue(int group_id) const override {
    auto answer_or = shard_.AnswerFused(group_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value()[0];
  }

  Result<double> FusedUncertainty(int group_id) const override {
    auto answer_or = shard_.AnswerFusedWithConfidence(group_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value().covariance(0, 0);
  }

 private:
  const StreamShard& shard_;
};

}  // namespace

StreamShard::StreamShard(const ChannelOptions& channel,
                         EnergyModelOptions energy, double default_delta,
                         const ProtocolOptions& protocol,
                         const ServeOptions& serve)
    : server_(protocol),
      channel_([this](const Message& message) {
        // Fused traffic is addressed by group; everything else is a
        // per-source dual link.
        return message.group_id >= 0 ? fusion_.OnMessage(message)
                                     : server_.OnMessage(message);
      }, channel),
      energy_(energy),
      default_delta_(default_delta),
      protocol_(protocol),
      per_source_rng_(channel.per_source_rng),
      serve_(serve),
      fusion_(protocol, channel.fault) {}

Status StreamShard::EnableFleet() {
  if (fleet_ != nullptr) return Status::OK();
  if (!sources_.empty()) {
    return Status::FailedPrecondition(
        "EnableFleet must be called before any AddSource");
  }
  if (!per_source_rng_) {
    return Status::InvalidArgument(
        "the batched fleet engine requires per_source_rng channels");
  }
  fleet_ = std::make_unique<FleetEngine>(&server_, &channel_, protocol_,
                                         energy_);
  if (obs_sink_ != nullptr) fleet_->set_trace_sink(obs_sink_);
  return Status::OK();
}

Status StreamShard::AddSource(int source_id, const StateModel& model) {
  if (sources_.contains(source_id)) {
    return Status::AlreadyExists(
        StrFormat("source %d already registered", source_id));
  }
  if (fusion_.owns_member(source_id)) {
    return Status::AlreadyExists(
        StrFormat("id %d already belongs to fusion group %d", source_id,
                  fusion_.member_group(source_id)));
  }
  DKF_RETURN_IF_ERROR(server_.RegisterSource(source_id, model));

  SourceNodeOptions node_options;
  node_options.source_id = source_id;
  node_options.model = model;
  node_options.delta = default_delta_;
  node_options.energy = energy_;
  node_options.protocol = protocol_;
  auto node_or = SourceNode::Create(node_options);
  if (!node_or.ok()) {
    // Keep server and source sets consistent on failure.
    (void)server_.UnregisterSource(source_id);
    return node_or.status();
  }
  sources_[source_id] =
      std::make_unique<SourceNode>(std::move(node_or).value());
  if (obs_sink_ != nullptr) sources_[source_id]->set_trace_sink(obs_sink_);
  if (fleet_ != nullptr) {
    Status tracked =
        fleet_->Track(source_id, model, sources_[source_id].get());
    if (!tracked.ok()) {
      sources_.erase(source_id);
      (void)server_.UnregisterSource(source_id);
      return tracked;
    }
  }
  return Status::OK();
}

void StreamShard::set_trace_sink(TraceSink* sink) {
  obs_sink_ = sink;
  channel_.set_trace_sink(sink);
  server_.set_trace_sink(sink);
  fusion_.set_trace_sink(sink);
  serve_.set_trace_sink(sink);
  if (fleet_ != nullptr) fleet_->set_trace_sink(sink);
  for (auto& [id, node] : sources_) node->set_trace_sink(sink);
}

Status StreamShard::Subscribe(const Subscription& subscription,
                              int64_t attach_step) {
  return serve_.Subscribe(subscription, attach_step, ShardAnswers(*this));
}

Status StreamShard::Unsubscribe(int64_t subscription_id) {
  return serve_.Unsubscribe(subscription_id);
}

Status StreamShard::RefreshServeCaches() {
  return serve_.RefreshCaches(ShardAnswers(*this));
}

Status StreamShard::Reconfigure(int source_id,
                                const QueryRegistry& registry) {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not on shard", source_id));
  }
  // A batch-resident source must be spilled back to its real SourceNode
  // before the reconfiguration lands — set_delta/set_smoothing run
  // through the verbatim per-source code, and the source re-enters the
  // batch at the end of the next tick if still eligible.
  if (fleet_ != nullptr) {
    DKF_RETURN_IF_ERROR(fleet_->SpillForReconfigure(source_id));
  }
  SourceNode& node = *it->second;
  auto delta_or = registry.EffectiveDelta(source_id);
  const double new_delta = delta_or.ok() ? delta_or.value() : default_delta_;
  std::optional<double> new_smoothing;
  auto smoothing_or = registry.EffectiveSmoothing(source_id);
  if (smoothing_or.ok()) new_smoothing = smoothing_or.value();

  // One control message when anything actually changed.
  bool changed = false;
  if (node.delta() != new_delta) {
    DKF_RETURN_IF_ERROR(node.set_delta(new_delta));
    changed = true;
  }
  // Only touch (and thereby restart) the KF_c smoother when the factor
  // actually changed.
  std::optional<double>& installed = installed_smoothing_[source_id];
  if (installed != new_smoothing) {
    DKF_RETURN_IF_ERROR(node.set_smoothing(new_smoothing));
    installed = new_smoothing;
    changed = true;
  }
  if (changed) ++control_messages_;
  return Status::OK();
}

Status StreamShard::RegisterFusionGroup(const FusionGroupConfig& config) {
  for (int member_id : config.member_ids) {
    if (sources_.contains(member_id)) {
      return Status::AlreadyExists(
          StrFormat("fusion member id %d is a registered source", member_id));
    }
  }
  DKF_RETURN_IF_ERROR(fusion_.RegisterGroup(config));
  if (obs_sink_ != nullptr) fusion_.set_trace_sink(obs_sink_);
  return Status::OK();
}

Status StreamShard::AddFusionMember(int group_id, int member_id) {
  if (sources_.contains(member_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion member id %d is a registered source", member_id));
  }
  DKF_RETURN_IF_ERROR(fusion_.AddMember(group_id, member_id));
  if (obs_sink_ != nullptr) fusion_.set_trace_sink(obs_sink_);
  // The admission handoff: the newcomer's mirror is handed the current
  // posterior over the out-of-band downlink.
  ++control_messages_;
  return Status::OK();
}

Status StreamShard::RemoveFusionMember(int group_id, int member_id) {
  DKF_RETURN_IF_ERROR(fusion_.RemoveMember(group_id, member_id));
  ++control_messages_;  // the dismissal
  return Status::OK();
}

Status StreamShard::ReconfigureFusionGroup(int group_id,
                                           const QueryRegistry& registry) {
  double effective;
  if (!registry.HasFusedQueries(group_id)) {
    auto base_or = fusion_.group_base_delta(group_id);
    if (!base_or.ok()) return base_or.status();
    effective = base_or.value();
  } else {
    auto delta_or = registry.EffectiveFusedDelta(group_id);
    if (!delta_or.ok()) return delta_or.status();
    effective = delta_or.value();
  }
  auto changed_or = fusion_.set_group_delta(group_id, effective);
  if (!changed_or.ok()) return changed_or.status();
  if (changed_or.value()) {
    // Every member must learn the new trigger: one control message each.
    auto members_or = fusion_.group_members(group_id);
    if (!members_or.ok()) return members_or.status();
    control_messages_ += static_cast<int64_t>(members_or.value().size());
  }
  return Status::OK();
}

Result<Vector> StreamShard::AnswerFused(int group_id) const {
  return fusion_.Answer(group_id);
}

Result<FusionEngine::ConfidentAnswer> StreamShard::AnswerFusedWithConfidence(
    int group_id) const {
  return fusion_.AnswerWithConfidence(group_id);
}

Result<bool> StreamShard::fused_degraded(int group_id) const {
  return fusion_.answer_degraded(group_id);
}

Status StreamShard::ReconfigureSources(
    const std::vector<std::pair<int, double>>& deltas) {
  for (const auto& [source_id, delta] : deltas) {
    auto it = sources_.find(source_id);
    if (it == sources_.end()) {
      return Status::NotFound(StrFormat("source %d not on shard", source_id));
    }
    if (it->second->delta() == delta) continue;
    // A batch-resident source must spill back to its real SourceNode
    // before the new width lands (same rule as Reconfigure); with the
    // whole epoch applied in this one sweep it spills at most once.
    if (fleet_ != nullptr) {
      DKF_RETURN_IF_ERROR(fleet_->SpillForReconfigure(source_id));
    }
    DKF_RETURN_IF_ERROR(it->second->set_delta(delta));
    ++control_messages_;
  }
  return Status::OK();
}

Status StreamShard::ResolveTick(const std::map<int, Vector>& readings) {
  if (fleet_ != nullptr) {
    DKF_RETURN_IF_ERROR(fleet_->ResolveReadings(readings));
  } else {
    DKF_RETURN_IF_ERROR(ResolveSourceReadings(readings));
  }
  return fusion_.ResolveReadings(readings);
}

Status StreamShard::ResolveTick(const ReadingBatch& batch) {
  if (batch.ids.size() != batch.values.size()) {
    return Status::InvalidArgument(
        StrFormat("reading batch has %zu ids but %zu values",
                  batch.ids.size(), batch.values.size()));
  }
  // Project the slice of the batch that map readers resolve: every owned
  // id on the per-source path, only fusion members (which never batch
  // into fleet lanes) when the fleet resolves the batch itself.
  batch_slice_.clear();
  const bool fused = fusion_.active();
  if (fleet_ == nullptr || fused) {
    for (size_t i = 0; i < batch.ids.size(); ++i) {
      const int id = batch.ids[i];
      if ((fused && fusion_.owns_member(id)) ||
          (fleet_ == nullptr && sources_.contains(id))) {
        batch_slice_.emplace(id, batch.values[i]);
      }
    }
  }
  if (fleet_ == nullptr) return ResolveTick(batch_slice_);
  DKF_RETURN_IF_ERROR(fleet_->ResolveReadings(batch));
  return fusion_.ResolveReadings(batch_slice_);
}

Status StreamShard::ResolveSourceReadings(
    const std::map<int, Vector>& readings) {
  staged_sources_.clear();
  staged_sources_.reserve(sources_.size());
  for (auto& [id, node] : sources_) {
    auto it = readings.find(id);
    if (it == readings.end()) {
      return Status::InvalidArgument(
          StrFormat("missing reading for source %d", id));
    }
    if (it->second.size() != node->mirror().dim()) {
      return Status::InvalidArgument(
          StrFormat("reading width %zu for source %d, model expects %zu",
                    it->second.size(), id, node->mirror().dim()));
    }
    staged_sources_.emplace_back(node.get(), &it->second);
  }
  return Status::OK();
}

Status StreamShard::RunTick(int64_t tick) {
  const bool timed = obs_sink_ != nullptr && obs_sink_->options().record_timing;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  // Fused posteriors and mirrors predict before the channel drains its
  // in-flight queue, so delayed fused deliveries land on post-predict
  // state — the same ordering ServerNode::TickAll gives the per-source
  // links. Unconditional: the fusion clock must advance even while the
  // shard has no groups.
  DKF_RETURN_IF_ERROR(fusion_.BeginTick(tick));
  if (fleet_ != nullptr) {
    DKF_RETURN_IF_ERROR(fleet_->ProcessTick(tick));
  } else {
    // Server-side prediction step for every stream, then the channel's
    // in-flight (delayed) messages due this tick, then the sources in
    // ascending id order — so a message delayed d ticks reaches the
    // server after it has ticked past the send tick, and its deferred
    // ACK is visible to the sender when it processes this tick's
    // reading.
    DKF_RETURN_IF_ERROR(server_.TickAll());
    DKF_RETURN_IF_ERROR(channel_.BeginTick(tick));
    for (auto& [node, reading] : staged_sources_) {
      auto step_or = node->ProcessReading(tick, *reading, &channel_);
      if (!step_or.ok()) return step_or.status();
    }
  }
  // Fusion members run after the plain sources, in ascending (group,
  // member) order — one deterministic source order per shard tick.
  DKF_RETURN_IF_ERROR(fusion_.ProcessReadings(tick, &channel_));
  // Every staged reading has been consumed; the slice is per tick.
  batch_slice_.clear();
  // Serve this shard's subscriptions while still on the worker thread:
  // the per-shard index makes notification fan-out scale with shards
  // exactly like the protocol work does.
  DKF_RETURN_IF_ERROR(serve_.EndTick(tick, ShardAnswers(*this)));
  if (obs_sink_ != nullptr) {
    if (timed) {
      obs_sink_->RecordTickLatencyNs(std::chrono::duration<double, std::nano>(
                                         std::chrono::steady_clock::now() -
                                         start)
                                         .count());
    }
    obs_sink_->SetGauge("channel.in_flight",
                        static_cast<double>(channel_.in_flight()));
  }
  return Status::OK();
}

Result<Vector> StreamShard::Answer(int source_id) const {
  if (const FleetEngine::LaneRef* lane = ResidentLane(source_id)) {
    return fleet_->Answer(*lane);
  }
  return server_.Answer(source_id);
}

Result<ServerNode::ConfidentAnswer> StreamShard::AnswerWithConfidence(
    int source_id) const {
  if (const FleetEngine::LaneRef* lane = ResidentLane(source_id)) {
    return fleet_->AnswerWithConfidence(*lane);
  }
  return server_.AnswerWithConfidence(source_id);
}

Result<double> StreamShard::PartialSum(
    const std::vector<int>& source_ids) const {
  double sum = 0.0;
  for (int source_id : source_ids) {
    auto answer_or = Answer(source_id);
    if (!answer_or.ok()) return answer_or.status();
    sum += answer_or.value()[0];
  }
  return sum;
}

Result<std::pair<double, int>> StreamShard::PartialSumWithStatus(
    const std::vector<int>& source_ids) const {
  double sum = 0.0;
  int degraded_members = 0;
  for (int source_id : source_ids) {
    auto answer_or = Answer(source_id);
    if (!answer_or.ok()) return answer_or.status();
    sum += answer_or.value()[0];
    auto degraded_or = answer_degraded(source_id);
    if (!degraded_or.ok()) return degraded_or.status();
    if (degraded_or.value()) ++degraded_members;
  }
  return std::make_pair(sum, degraded_members);
}

Status StreamShard::VerifyLinkConsistency() const {
  // The fleet's incrementally patched tick order must still agree with
  // its residency maps.
  if (fleet_ != nullptr) DKF_RETURN_IF_ERROR(fleet_->VerifyOrder());
  for (const auto& [id, node] : sources_) {
    // Batch-resident sources hold mirror == predictor bitwise by
    // construction (one lane stores both); there is no separate server
    // predictor to compare against.
    if (ResidentLane(id) != nullptr) continue;
    if (node->resync_pending()) continue;
    auto predictor_or = server_.predictor(id);
    if (!predictor_or.ok()) return predictor_or.status();
    if (!node->mirror().StateEquals(*predictor_or.value())) {
      return Status::Internal(
          StrFormat("link-consistency violated for healthy source %d", id));
    }
  }
  return Status::OK();
}

Result<bool> StreamShard::answer_degraded(int source_id) const {
  if (const FleetEngine::LaneRef* lane = ResidentLane(source_id)) {
    return fleet_->answer_degraded(*lane);
  }
  return server_.degraded(source_id);
}

Result<bool> StreamShard::resync_pending(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->resync_pending();
}

ProtocolFaultStats StreamShard::fault_stats() const {
  ProtocolFaultStats merged = server_.fault_stats();
  // Degraded ticks on batch-resident lanes are accounted by the fleet
  // engine (the server only sees the spilled sources).
  if (fleet_ != nullptr) merged.degraded_ticks += fleet_->degraded_ticks();
  for (const auto& [id, node] : sources_) {
    merged.MergeFrom(node->fault_stats());
  }
  return merged;
}

Status StreamShard::VerifyMirrorConsistency() const {
  for (const auto& [id, node] : sources_) {
    if (ResidentLane(id) != nullptr) continue;
    auto predictor_or = server_.predictor(id);
    if (!predictor_or.ok()) return predictor_or.status();
    if (!node->mirror().StateEquals(*predictor_or.value())) {
      return Status::Internal(
          StrFormat("mirror-consistency violated for source %d", id));
    }
  }
  return Status::OK();
}

Result<double> StreamShard::source_delta(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->delta();
}

Result<int64_t> StreamShard::updates_sent(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->updates_sent();
}

Result<size_t> StreamShard::source_dim(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->mirror().dim();
}

Result<SourceNode::CheckpointState> StreamShard::ExportSourceState(
    int source_id) const {
  if (const FleetEngine::LaneRef* lane = ResidentLane(source_id)) {
    return fleet_->SynthesizeSourceState(*lane);
  }
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->ExportCheckpoint();
}

Result<ServerNode::LinkSnapshot> StreamShard::ExportLinkState(
    int source_id) const {
  if (const FleetEngine::LaneRef* lane = ResidentLane(source_id)) {
    return fleet_->SynthesizeLinkState(*lane);
  }
  return server_.ExportLink(source_id);
}

}  // namespace dkf
