#ifndef DKF_DSMS_STREAM_MANAGER_H_
#define DKF_DSMS_STREAM_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "runtime/sharded_engine.h"

namespace dkf {

/// Configuration of the end-to-end stream manager.
struct StreamManagerOptions {
  EnergyModelOptions energy;
  ChannelOptions channel;
  /// Delta a source runs at before any query binds to it (a registered
  /// source with no query still streams, at this loose precision).
  double default_delta = 1e6;
  /// Hardened-protocol knobs shared by the server and every source
  /// (heartbeats, resync retry policy, degraded-answer thresholds).
  ProtocolOptions protocol;
  /// Serving front-end knobs (standing-query notification delivery).
  /// The backpressure bound applies per buffer: the source/fused slice
  /// and the aggregate slice each retain up to the bound.
  ServeOptions serve;
};

/// The paper's Figure-1 system as one object (§6 first future-work item:
/// "developing an end-to-end system"): users submit continuous queries
/// with precision constraints; the manager derives each source's
/// effective delta and smoothing from the registry, installs/reconfigures
/// the dual filters, drives the tick loop, and answers queries from the
/// server-side predictors.
///
/// Reconfiguration (a query arriving or leaving mid-stream) is pushed to
/// the source as a control message on the (perfect, out-of-band) downlink
/// and counted, so the cost of query churn is visible.
///
/// The manager is a facade over a one-shard ShardedStreamEngine (no
/// batched fleet, no governor): every call forwards to it, so the
/// sequential system and the sharded runtime share one orchestrator.
/// The one thing the facade adds is the channel's configured
/// per_source_rng, which the public engine forces on; a one-shard run
/// may keep the legacy shared fault stream. Implemented in
/// src/runtime/stream_manager.cc.
class StreamManager {
 public:
  explicit StreamManager(const StreamManagerOptions& options);

  StreamManager(StreamManager&&) = delete;
  StreamManager& operator=(StreamManager&&) = delete;

  /// Installs a source and its dual filters. The model's measurement
  /// width defines the reading width ProcessTick expects for it.
  Status RegisterSource(int source_id, const StateModel& model) {
    return engine_.RegisterSource(source_id, model);
  }

  /// Registers a continuous query and reconfigures its source's delta /
  /// smoothing to the registry's new effective values. The query's source
  /// must be registered.
  Status SubmitQuery(const ContinuousQuery& query) {
    return engine_.SubmitQuery(query);
  }

  /// Removes a query and relaxes its source's configuration accordingly.
  Status RemoveQuery(int query_id) { return engine_.RemoveQuery(query_id); }

  /// Registers a continuous SUM query over scalar sources: the precision
  /// budget is split into per-source deltas (uniformly, or proportional
  /// to `weights`) and installed as synthetic per-source queries, so the
  /// aggregate guarantee |sum answers - sum readings| <= precision holds
  /// on every suppressed tick by construction.
  Status SubmitAggregateQuery(const AggregateQuery& query,
                              const std::vector<double>& weights = {}) {
    return engine_.SubmitAggregateQuery(query, weights);
  }

  /// Removes an aggregate query and its synthetic per-source queries.
  Status RemoveAggregateQuery(int aggregate_id) {
    return engine_.RemoveAggregateQuery(aggregate_id);
  }

  /// Registers a multi-sensor fusion group (src/fusion/, docs/fusion.md):
  /// N correlated sensors observing one shared state, fused into one
  /// posterior with event-triggered cross-source suppression. Member ids
  /// share the channel's per-source namespace with plain sources and must
  /// be disjoint from every registered source id. From the next tick on,
  /// `ProcessTick` expects one reading per member.
  Status RegisterFusionGroup(const FusionGroupConfig& config) {
    return engine_.RegisterFusionGroup(config);
  }

  /// Adds / removes a member of a live group between ticks. Both charge
  /// one control message (the admission state handoff / the dismissal).
  Status AddFusionMember(int group_id, int member_id) {
    return engine_.AddFusionMember(group_id, member_id);
  }
  Status RemoveFusionMember(int group_id, int member_id) {
    return engine_.RemoveFusionMember(group_id, member_id);
  }

  /// Registers a continuous query against a fusion group's fused
  /// posterior (QueryType::kFused) and tightens the group's event
  /// trigger to the tightest active fused precision. Reconfiguration is
  /// pushed to every member (one control message each when it changed).
  Status SubmitFusedQuery(const FusedQuery& query) {
    return engine_.SubmitFusedQuery(query);
  }

  /// Removes a fused query; the group's trigger relaxes to the remaining
  /// queries' minimum (or back to its registration delta).
  Status RemoveFusedQuery(int query_id) {
    return engine_.RemoveFusedQuery(query_id);
  }

  /// The fused answer for a group: the posterior's predicted measurement.
  Result<Vector> AnswerFused(int group_id) const {
    return engine_.AnswerFused(group_id);
  }

  /// Fused answer plus projected covariance, inflated while degraded.
  Result<FusionEngine::ConfidentAnswer> AnswerFusedWithConfidence(
      int group_id) const {
    return engine_.AnswerFusedWithConfidence(group_id);
  }

  /// Whether the group's fused answers are currently served degraded
  /// (the whole group silent past the staleness budget).
  Result<bool> fused_degraded(int group_id) const {
    return engine_.fused_degraded(group_id);
  }

  /// Fusion-subsystem counters merged over every group.
  FusionStats fusion_stats() const { return engine_.fusion_stats(); }

  /// The extended mirror-consistency contract over fusion groups: every
  /// member that is not pending re-lock and saw the latest broadcast
  /// holds a mirror bit-identical to the fused posterior.
  Status VerifyFusedConsistency() const {
    return engine_.VerifyFusedConsistency();
  }

  /// Read access to the fusion subsystem (group topology, per-group
  /// introspection).
  const FusionEngine& fusion() const { return engine_.shards_[0]->fusion(); }

  /// The server's current answer for an aggregate query's sum.
  Result<double> AnswerAggregate(int aggregate_id) const {
    return engine_.AnswerAggregate(aggregate_id);
  }

  /// An aggregate answer plus its degradation status: how many member
  /// sources are currently served degraded. A nonzero count voids the
  /// aggregate's precision guarantee for this tick (see
  /// docs/protocol.md §6).
  using AggregateAnswer = ShardedStreamEngine::AggregateAnswer;
  Result<AggregateAnswer> AnswerAggregateWithStatus(int aggregate_id) const {
    return engine_.AnswerAggregateWithStatus(aggregate_id);
  }

  /// Advances one tick: the server propagates every filter (per-source
  /// and fused), then each source — plain sources first, fusion members
  /// after — processes its reading (suppressing or transmitting).
  /// `readings` must contain exactly one entry per registered source and
  /// per fusion member; a malformed map is rejected before any state
  /// moves.
  Status ProcessTick(const std::map<int, Vector>& readings) {
    return engine_.ProcessTick(readings);
  }

  /// The server's current answer for a source's stream.
  Result<Vector> Answer(int source_id) const {
    return engine_.Answer(source_id);
  }

  /// Answer plus confidence (projected state covariance).
  Result<ServerNode::ConfidentAnswer> AnswerWithConfidence(
      int source_id) const {
    return engine_.AnswerWithConfidence(source_id);
  }

  /// Attaches a standing query to the serving front-end (src/serve/).
  /// The subscription's source (or aggregate) must be registered; the
  /// subscriber's initial answer is evaluated against the current
  /// between-ticks state and delivered in the next drained batch.
  Status Subscribe(const Subscription& subscription) {
    return engine_.Subscribe(subscription);
  }

  /// Detaches a standing query.
  Status Unsubscribe(int64_t subscription_id) {
    return engine_.Unsubscribe(subscription_id);
  }

  /// Removes and returns every undrained notification batch in
  /// canonical (step, source_id, subscription_id) order.
  std::vector<NotificationBatch> DrainNotifications() {
    return engine_.DrainNotifications();
  }

  /// Serving-layer counters plus the live subscription count.
  ServeStats serve_stats() const { return engine_.serve_stats(); }

  size_t num_subscriptions() const { return engine_.num_subscriptions(); }

  /// Whether answers for a source are currently served degraded.
  Result<bool> answer_degraded(int source_id) const {
    return engine_.answer_degraded(source_id);
  }

  /// Whether a source is in the pending-resync state.
  Result<bool> resync_pending(int source_id) const {
    return engine_.resync_pending(source_id);
  }

  /// Fleet-wide protocol fault counters: the server's ingress counters
  /// merged with every source's divergence/resync counters.
  ProtocolFaultStats fault_stats() const { return engine_.fault_stats(); }

  /// Verifies the mirror-consistency invariant across every source.
  Status VerifyMirrorConsistency() const {
    return engine_.VerifyMirrorConsistency();
  }

  /// The relaxed invariant that holds even under divergence-inducing
  /// faults: every source that is NOT pending resync has a mirror
  /// bit-identical to its server predictor. (VerifyMirrorConsistency is
  /// this with zero sources pending.)
  Status VerifyLinkConsistency() const {
    return engine_.VerifyLinkConsistency();
  }

  const ChannelStats& uplink_traffic() const {
    return engine_.shards_[0]->uplink_traffic();
  }
  int64_t control_messages() const { return engine_.control_messages(); }
  int64_t ticks() const { return engine_.ticks(); }
  const QueryRegistry& registry() const { return engine_.registry(); }

  /// Turns on observability: creates the trace sink and wires it into
  /// the channel, the server (and its filters), and every source node —
  /// including ones registered later. Idempotent reconfiguration: calling
  /// again replaces the sink (events so far are discarded).
  Status EnableTracing(const ObsOptions& obs = ObsOptions()) {
    return engine_.EnableTracing(obs);
  }

  /// Unwires and destroys the sink; every component reverts to the
  /// zero-cost untraced path. Safe between ticks.
  void DisableTracing() { engine_.DisableTracing(); }

  /// The trace sink, or nullptr while tracing is off.
  const TraceSink* trace_sink() const { return engine_.shard_sink(0); }

  /// A copy of the retained trace events (oldest first).
  std::vector<TraceEvent> Trace() const;

  /// Snapshot of the event-derived counters, sampled gauges, and
  /// (when ObsOptions::record_timing) latency histograms.
  MetricsRegistry MetricsSnapshot() const {
    return engine_.MetricsSnapshot();
  }

  /// Per-source effective delta currently installed.
  Result<double> source_delta(int source_id) const {
    return engine_.source_delta(source_id);
  }

  /// Per-source update totals.
  Result<int64_t> updates_sent(int source_id) const {
    return engine_.updates_sent(source_id);
  }

  /// Writes a deterministic snapshot of the entire engine — every dual
  /// link's filter states, protocol state machines, channel fault/RNG
  /// state, queries, and observability counters — to `path` (see
  /// docs/checkpoint.md for the wire format). Call between ticks.
  Status Save(const std::string& path) const { return engine_.Save(path); }

  /// Reconstructs a manager from a snapshot written by either
  /// StreamManager::Save or ShardedStreamEngine::Save. The restored
  /// manager continues bit-identically to the uninterrupted run: same
  /// answers, same fault sequence, same trace. Governed snapshots are
  /// rejected: the manager never runs governor epochs.
  /// Defined in src/checkpoint/engine_checkpoint.cc.
  static Result<std::unique_ptr<StreamManager>> Restore(
      const std::string& path);

 private:
  ShardedStreamEngine engine_;
};

}  // namespace dkf

#endif  // DKF_DSMS_STREAM_MANAGER_H_
