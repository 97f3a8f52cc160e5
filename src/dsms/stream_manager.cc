#include "dsms/stream_manager.h"

#include <chrono>
#include <cmath>

#include "common/string_util.h"
#include "dsms/tick_step.h"

namespace dkf {

namespace {

/// The serving layer's view of a StreamManager: component 0 of the
/// server-side answers, the projected state variance, and aggregate
/// sums.
class ManagerAnswers final : public ServeAnswerSource {
 public:
  explicit ManagerAnswers(const StreamManager& manager) : manager_(manager) {}

  Result<double> SourceValue(int source_id) const override {
    auto answer_or = manager_.Answer(source_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value()[0];
  }

  Result<double> SourceUncertainty(int source_id) const override {
    auto answer_or = manager_.AnswerWithConfidence(source_id);
    if (!answer_or.ok()) return answer_or.status();
    if (!answer_or.value().covariance.has_value()) return 0.0;
    return (*answer_or.value().covariance)(0, 0);
  }

  Result<double> AggregateValue(int aggregate_id) const override {
    return manager_.AnswerAggregate(aggregate_id);
  }

  Result<double> FusedValue(int group_id) const override {
    auto answer_or = manager_.AnswerFused(group_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value()[0];
  }

  Result<double> FusedUncertainty(int group_id) const override {
    auto answer_or = manager_.AnswerFusedWithConfidence(group_id);
    if (!answer_or.ok()) return answer_or.status();
    return answer_or.value().covariance(0, 0);
  }

 private:
  const StreamManager& manager_;
};

}  // namespace

StreamManager::StreamManager(const StreamManagerOptions& options)
    : options_(options),
      server_(options.protocol),
      channel_(
          [this](const Message& message) {
            // Fused traffic is addressed by group; everything else is a
            // per-source dual link.
            return message.group_id >= 0 ? fusion_.OnMessage(message)
                                         : server_.OnMessage(message);
          },
          options.channel),
      fusion_(options.protocol, options.channel.fault),
      serve_(options.serve) {}

Status StreamManager::RegisterSource(int source_id, const StateModel& model) {
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
  node_options.delta = options_.default_delta;
  node_options.energy = options_.energy;
  node_options.protocol = options_.protocol;
  auto node_or = SourceNode::Create(node_options);
  if (!node_or.ok()) {
    // Keep server and source sets consistent on failure.
    (void)server_.UnregisterSource(source_id);
    return node_or.status();
  }
  sources_[source_id] =
      std::make_unique<SourceNode>(std::move(node_or).value());
  models_[source_id] = model;
  if (sink_ != nullptr) sources_[source_id]->set_trace_sink(sink_.get());
  return Status::OK();
}

Status StreamManager::EnableTracing(const ObsOptions& obs) {
  sink_ = std::make_unique<TraceSink>(obs);
  channel_.set_trace_sink(sink_.get());
  server_.set_trace_sink(sink_.get());
  fusion_.set_trace_sink(sink_.get());
  serve_.set_trace_sink(sink_.get());
  for (auto& [id, node] : sources_) node->set_trace_sink(sink_.get());
  return Status::OK();
}

void StreamManager::DisableTracing() {
  channel_.set_trace_sink(nullptr);
  server_.set_trace_sink(nullptr);
  fusion_.set_trace_sink(nullptr);
  serve_.set_trace_sink(nullptr);
  for (auto& [id, node] : sources_) node->set_trace_sink(nullptr);
  sink_.reset();
}

Status StreamManager::Subscribe(const Subscription& subscription) {
  if (subscription.kind == SubscriptionKind::kFused) {
    if (!fusion_.has_group(subscription.group_id)) {
      return Status::NotFound(
          StrFormat("subscription %lld targets unregistered fusion group %d",
                    static_cast<long long>(subscription.id),
                    subscription.group_id));
    }
    return serve_.Subscribe(subscription, ticks_, ManagerAnswers(*this));
  }
  if (subscription.kind == SubscriptionKind::kAggregate) {
    auto it = aggregates_.find(subscription.aggregate_id);
    if (it == aggregates_.end()) {
      return Status::NotFound(
          StrFormat("subscription %lld targets unregistered aggregate %d",
                    static_cast<long long>(subscription.id),
                    subscription.aggregate_id));
    }
    return serve_.Subscribe(subscription, ticks_, ManagerAnswers(*this),
                            it->second.source_ids);
  }
  if (!sources_.contains(subscription.source_id)) {
    return Status::NotFound(
        StrFormat("subscription %lld targets unregistered source %d",
                  static_cast<long long>(subscription.id),
                  subscription.source_id));
  }
  return serve_.Subscribe(subscription, ticks_, ManagerAnswers(*this));
}

Status StreamManager::Unsubscribe(int64_t subscription_id) {
  return serve_.Unsubscribe(subscription_id);
}

std::vector<NotificationBatch> StreamManager::DrainNotifications() {
  return MergeNotificationBatches({serve_.Drain()});
}

std::vector<TraceEvent> StreamManager::Trace() const {
  if (sink_ == nullptr) return {};
  return sink_->Events();
}

MetricsRegistry StreamManager::MetricsSnapshot() const {
  MetricsRegistry registry;
  if (sink_ != nullptr) {
    sink_->SnapshotInto(&registry);
    // Per-source uplink accounting, mirroring
    // ShardedStreamEngine::MetricsSnapshot so the two systems stay
    // gauge-for-gauge comparable.
    for (const auto& [source_id, node] : sources_) {
      registry.SetGauge(StrFormat("uplink.bytes.%d", source_id),
                        static_cast<double>(
                            channel_.for_source(source_id).bytes));
      if (node->noise_adapter().enabled()) {
        registry.SetGauge(StrFormat("adapt.r_scale.%d", source_id),
                          node->noise_adapter().r_scale());
        registry.SetGauge(StrFormat("adapt.q_scale.%d", source_id),
                          node->noise_adapter().q_scale());
      }
    }
  }
  return registry;
}

Status StreamManager::SubmitQuery(const ContinuousQuery& query) {
  if (query.id >= kReservedQueryIdBase) {
    return Status::InvalidArgument(
        StrFormat("query ids >= %d are reserved for aggregate members",
                  kReservedQueryIdBase));
  }
  if (!sources_.contains(query.source_id)) {
    return Status::NotFound(
        StrFormat("query %d targets unregistered source %d", query.id,
                  query.source_id));
  }
  DKF_RETURN_IF_ERROR(registry_.AddQuery(query));
  return ReconfigureSource(query.source_id);
}

Status StreamManager::RemoveQuery(int query_id) {
  if (query_id >= kReservedQueryIdBase) {
    return Status::InvalidArgument(
        "aggregate members are removed via RemoveAggregateQuery");
  }
  // Find the query's source before removal so we can relax it after.
  DKF_ASSIGN_OR_RETURN(const int source_id, registry_.QuerySource(query_id));
  DKF_RETURN_IF_ERROR(registry_.RemoveQuery(query_id));
  return ReconfigureSource(source_id);
}

Status StreamManager::SubmitAggregateQuery(
    const AggregateQuery& query, const std::vector<double>& weights) {
  if (aggregates_.contains(query.id)) {
    return Status::AlreadyExists(
        StrFormat("aggregate %d already registered", query.id));
  }
  for (int source_id : query.source_ids) {
    auto it = sources_.find(source_id);
    if (it == sources_.end()) {
      return Status::NotFound(
          StrFormat("aggregate %d targets unregistered source %d", query.id,
                    source_id));
    }
    if (it->second->mirror().dim() != 1) {
      return Status::InvalidArgument(
          "aggregate queries support scalar sources only");
    }
  }
  auto deltas_or = SplitAggregatePrecision(query, weights);
  if (!deltas_or.ok()) return deltas_or.status();
  const std::vector<double>& deltas = deltas_or.value();

  AggregateBinding binding;
  binding.source_ids = query.source_ids;
  for (size_t i = 0; i < query.source_ids.size(); ++i) {
    ContinuousQuery member;
    member.id = kReservedQueryIdBase + query.id * 1024 +
                static_cast<int>(i);
    member.source_id = query.source_ids[i];
    member.precision = deltas[i];
    member.description = StrFormat("aggregate %d member", query.id);
    Status status = registry_.AddQuery(member);
    if (!status.ok()) {
      // Roll back the members installed so far.
      for (int installed : binding.synthetic_query_ids) {
        (void)registry_.RemoveQuery(installed);
      }
      return status;
    }
    binding.synthetic_query_ids.push_back(member.id);
  }
  for (int source_id : query.source_ids) {
    DKF_RETURN_IF_ERROR(ReconfigureSource(source_id));
  }
  aggregates_[query.id] = std::move(binding);
  return Status::OK();
}

Status StreamManager::RemoveAggregateQuery(int aggregate_id) {
  auto it = aggregates_.find(aggregate_id);
  if (it == aggregates_.end()) {
    return Status::NotFound(
        StrFormat("aggregate %d not registered", aggregate_id));
  }
  if (serve_.has_aggregate_subscriptions(aggregate_id)) {
    return Status::FailedPrecondition(
        StrFormat("aggregate %d still has standing subscriptions",
                  aggregate_id));
  }
  for (int query_id : it->second.synthetic_query_ids) {
    DKF_RETURN_IF_ERROR(registry_.RemoveQuery(query_id));
  }
  for (int source_id : it->second.source_ids) {
    DKF_RETURN_IF_ERROR(ReconfigureSource(source_id));
  }
  aggregates_.erase(it);
  return Status::OK();
}

Result<double> StreamManager::AnswerAggregate(int aggregate_id) const {
  auto it = aggregates_.find(aggregate_id);
  if (it == aggregates_.end()) {
    return Status::NotFound(
        StrFormat("aggregate %d not registered", aggregate_id));
  }
  double sum = 0.0;
  for (int source_id : it->second.source_ids) {
    auto answer_or = server_.Answer(source_id);
    if (!answer_or.ok()) return answer_or.status();
    sum += answer_or.value()[0];
  }
  return sum;
}

Result<StreamManager::AggregateAnswer> StreamManager::AnswerAggregateWithStatus(
    int aggregate_id) const {
  auto it = aggregates_.find(aggregate_id);
  if (it == aggregates_.end()) {
    return Status::NotFound(
        StrFormat("aggregate %d not registered", aggregate_id));
  }
  AggregateAnswer aggregate;
  for (int source_id : it->second.source_ids) {
    auto answer_or = server_.Answer(source_id);
    if (!answer_or.ok()) return answer_or.status();
    aggregate.value += answer_or.value()[0];
    auto degraded_or = server_.degraded(source_id);
    if (!degraded_or.ok()) return degraded_or.status();
    if (degraded_or.value()) ++aggregate.degraded_members;
  }
  return aggregate;
}

Status StreamManager::RegisterFusionGroup(const FusionGroupConfig& config) {
  for (int member_id : config.member_ids) {
    if (sources_.contains(member_id)) {
      return Status::AlreadyExists(
          StrFormat("fusion member id %d is a registered source",
                    member_id));
    }
  }
  DKF_RETURN_IF_ERROR(fusion_.RegisterGroup(config));
  if (sink_ != nullptr) fusion_.set_trace_sink(sink_.get());
  return Status::OK();
}

Status StreamManager::AddFusionMember(int group_id, int member_id) {
  if (sources_.contains(member_id)) {
    return Status::AlreadyExists(
        StrFormat("fusion member id %d is a registered source", member_id));
  }
  DKF_RETURN_IF_ERROR(fusion_.AddMember(group_id, member_id));
  if (sink_ != nullptr) fusion_.set_trace_sink(sink_.get());
  // The admission handoff: the newcomer's mirror is handed the current
  // posterior over the out-of-band downlink.
  ++control_messages_;
  return Status::OK();
}

Status StreamManager::RemoveFusionMember(int group_id, int member_id) {
  DKF_RETURN_IF_ERROR(fusion_.RemoveMember(group_id, member_id));
  ++control_messages_;  // the dismissal
  return Status::OK();
}

Status StreamManager::SubmitFusedQuery(const FusedQuery& query) {
  if (query.id >= kReservedQueryIdBase) {
    return Status::InvalidArgument(
        StrFormat("query ids >= %d are reserved for aggregate members",
                  kReservedQueryIdBase));
  }
  if (!fusion_.has_group(query.group_id)) {
    return Status::NotFound(
        StrFormat("fused query %d targets unregistered fusion group %d",
                  query.id, query.group_id));
  }
  DKF_RETURN_IF_ERROR(registry_.AddFusedQuery(query));
  return ReconfigureFusionGroup(query.group_id);
}

Status StreamManager::RemoveFusedQuery(int query_id) {
  // Find the query's group before removal so we can relax it after.
  DKF_ASSIGN_OR_RETURN(const int group_id,
                       registry_.FusedQueryGroup(query_id));
  DKF_RETURN_IF_ERROR(registry_.RemoveFusedQuery(query_id));
  return ReconfigureFusionGroup(group_id);
}

Result<Vector> StreamManager::AnswerFused(int group_id) const {
  return fusion_.Answer(group_id);
}

Result<FusionEngine::ConfidentAnswer> StreamManager::AnswerFusedWithConfidence(
    int group_id) const {
  return fusion_.AnswerWithConfidence(group_id);
}

Result<bool> StreamManager::fused_degraded(int group_id) const {
  return fusion_.answer_degraded(group_id);
}

Status StreamManager::ReconfigureFusionGroup(int group_id) {
  double effective;
  if (!registry_.HasFusedQueries(group_id)) {
    auto base_or = fusion_.group_base_delta(group_id);
    if (!base_or.ok()) return base_or.status();
    effective = base_or.value();
  } else {
    auto delta_or = registry_.EffectiveFusedDelta(group_id);
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

Status StreamManager::ReconfigureSource(int source_id) {
  auto changed_or = InstallEffectiveConfig(
      registry_, options_.default_delta, source_id, *sources_.at(source_id),
      installed_smoothing_[source_id]);
  if (!changed_or.ok()) return changed_or.status();
  if (changed_or.value()) ++control_messages_;
  return Status::OK();
}

Status StreamManager::ProcessTick(const std::map<int, Vector>& readings) {
  if (readings.size() != sources_.size() + fusion_.num_members()) {
    return Status::InvalidArgument(
        StrFormat("got %zu readings for %zu sources + %zu fusion members",
                  readings.size(), sources_.size(), fusion_.num_members()));
  }
  const bool timed = sink_ != nullptr && sink_->options().record_timing;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  // Fused posteriors and mirrors predict before the channel drains its
  // in-flight queue (inside RunSourceTick), so delayed fused deliveries
  // land on post-predict state — the same ordering ServerNode::TickAll
  // gives the per-source links. Unconditional: the engine's tick clock
  // must advance even while no group is registered yet, so a group
  // registered mid-run gets the right staleness origin.
  DKF_RETURN_IF_ERROR(fusion_.BeginTick(ticks_));
  DKF_RETURN_IF_ERROR(
      RunSourceTick(ticks_, server_, sources_, readings, channel_));
  // Fusion members run after the plain sources, in ascending (group,
  // member) order — one global deterministic source order per tick.
  DKF_RETURN_IF_ERROR(fusion_.ProcessReadings(ticks_, readings, &channel_));
  DKF_RETURN_IF_ERROR(serve_.EndTick(ticks_, ManagerAnswers(*this)));
  ++ticks_;
  if (sink_ != nullptr) {
    if (timed) {
      sink_->RecordTickLatencyNs(std::chrono::duration<double, std::nano>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
    }
    sink_->SetGauge("channel.in_flight",
                    static_cast<double>(channel_.in_flight()));
  }
  return Status::OK();
}

Result<Vector> StreamManager::Answer(int source_id) const {
  return server_.Answer(source_id);
}

Result<ServerNode::ConfidentAnswer> StreamManager::AnswerWithConfidence(
    int source_id) const {
  return server_.AnswerWithConfidence(source_id);
}

Status StreamManager::VerifyMirrorConsistency() const {
  for (const auto& [id, node] : sources_) {
    auto predictor_or = server_.predictor(id);
    if (!predictor_or.ok()) return predictor_or.status();
    if (!node->mirror().StateEquals(*predictor_or.value())) {
      return Status::Internal(
          StrFormat("mirror-consistency violated for source %d", id));
    }
  }
  return Status::OK();
}

Result<bool> StreamManager::answer_degraded(int source_id) const {
  return server_.degraded(source_id);
}

Result<bool> StreamManager::resync_pending(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->resync_pending();
}

ProtocolFaultStats StreamManager::fault_stats() const {
  ProtocolFaultStats merged = server_.fault_stats();
  for (const auto& [id, node] : sources_) {
    merged.MergeFrom(node->fault_stats());
  }
  return merged;
}

Status StreamManager::VerifyLinkConsistency() const {
  for (const auto& [id, node] : sources_) {
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

Result<double> StreamManager::source_delta(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->delta();
}

Result<int64_t> StreamManager::updates_sent(int source_id) const {
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound(StrFormat("source %d not registered", source_id));
  }
  return it->second->updates_sent();
}

}  // namespace dkf
