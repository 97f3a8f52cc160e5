#ifndef DKF_QUERY_QUERY_H_
#define DKF_QUERY_QUERY_H_

#include <optional>
#include <string>

namespace dkf {

/// Query ids at or above this value are reserved for the synthetic
/// per-source members an aggregate query is split into; user queries
/// must stay below it, and the single-query removal path refuses to
/// touch the reserved range (members are managed through their
/// aggregate). The sharded runtime uses it at every shard count, so
/// every layout carves up the id space identically.
inline constexpr int kReservedQueryIdBase = 1 << 24;

/// What a continuous query targets: one source's own stream (the
/// paper's Table 2 shape) or the fused posterior of a multi-sensor
/// fusion group (docs/fusion.md).
enum class QueryType {
  kPoint = 0,
  kFused,
};

/// A continuous query q_j over one streaming source (Table 2): the user
/// asks for the source's current attribute value, tolerating answers
/// within `precision` of the truth, optionally asking for KF_c-smoothed
/// semantics with sensitivity `smoothing_factor` (F_i).
struct ContinuousQuery {
  int id = 0;
  int source_id = 0;
  /// Precision width Delta_j: the server answer must stay within this of
  /// the source value.
  double precision = 1.0;
  /// Optional smoothing factor F for noisy streams (§4.3).
  std::optional<double> smoothing_factor;
  /// Free-form label for reports.
  std::string description;
};

/// A continuous query (QueryType::kFused) against the fused posterior of
/// a registered FusionGroup: the answer is the group estimate, and the
/// precision width becomes the group's event-trigger threshold — every
/// member suppresses readings that would move the *fused* estimate by
/// less than the tightest fused precision (docs/fusion.md).
struct FusedQuery {
  int id = 0;
  int group_id = 0;
  /// Precision width Delta_j for the fused answer.
  double precision = 1.0;
  /// Free-form label for reports.
  std::string description;
};

}  // namespace dkf

#endif  // DKF_QUERY_QUERY_H_
