#ifndef DKF_QUERY_REGISTRY_H_
#define DKF_QUERY_REGISTRY_H_

#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "query/query.h"

namespace dkf {

/// Tracks the continuous queries registered with the server and derives
/// the per-source precision width delta_i each source's filter pair must
/// honor.
///
/// The paper assumes one query per source (Delta_j = delta_i, §3.1); this
/// registry implements the natural multi-query generalization: a source
/// serving several queries must satisfy the *tightest* one, so
/// delta_i = min_j Delta_j over the queries on source i. Likewise the
/// effective smoothing factor is the smallest requested F (least
/// smoothing-induced lag... smallest F smooths hardest, so the choice is
/// conservative toward the least sensitive query; queries needing raw
/// sensitivity should use a separate source binding).
class QueryRegistry {
 public:
  /// Registers a query. Errors when the id already exists or the
  /// precision is not positive.
  Status AddQuery(const ContinuousQuery& query);

  /// Removes a query by id.
  Status RemoveQuery(int query_id);

  /// The source query `query_id` is bound to, in O(log Q); NotFound when
  /// no plain query has that id.
  Result<int> QuerySource(int query_id) const;

  /// The tightest precision over the source's active queries.
  Result<double> EffectiveDelta(int source_id) const;

  /// Smallest requested smoothing factor on the source, if any query asked
  /// for smoothing.
  Result<std::optional<double>> EffectiveSmoothing(int source_id) const;

  /// All queries bound to a source.
  std::vector<ContinuousQuery> QueriesForSource(int source_id) const;

  /// Ids of all sources with at least one active query.
  std::vector<int> ActiveSources() const;

  /// Registers a fused query (docs/fusion.md). Ids share one namespace
  /// with plain queries: a fused query may not reuse a plain query's id
  /// or vice versa. Errors when the id exists or precision is not
  /// positive.
  Status AddFusedQuery(const FusedQuery& query);

  /// Removes a fused query by id.
  Status RemoveFusedQuery(int query_id);

  /// The group fused query `query_id` is bound to, in O(log Q); NotFound
  /// when no fused query has that id.
  Result<int> FusedQueryGroup(int query_id) const;

  /// True when the group has at least one active fused query — the
  /// non-copying form of `!FusedQueriesForGroup(group_id).empty()`.
  bool HasFusedQueries(int group_id) const {
    return by_group_.contains(group_id);
  }

  /// The tightest precision over the group's active fused queries.
  Result<double> EffectiveFusedDelta(int group_id) const;

  /// All fused queries bound to a group.
  std::vector<FusedQuery> FusedQueriesForGroup(int group_id) const;

  /// Ids of all fusion groups with at least one active fused query.
  std::vector<int> ActiveGroups() const;

  size_t size() const { return queries_.size() + fused_queries_.size(); }
  size_t num_fused() const { return fused_queries_.size(); }

 private:
  std::map<int, ContinuousQuery> queries_;  // by query id
  /// source id -> its query ids (ascending). Every per-source question
  /// above answers from this index; without it, registering a
  /// million-source fleet one query at a time is quadratic in the fleet
  /// size (each Add's reconfigure would rescan every query).
  std::map<int, std::set<int>> by_source_;
  std::map<int, FusedQuery> fused_queries_;  // by query id
  std::map<int, std::set<int>> by_group_;    // group id -> fused query ids
};

}  // namespace dkf

#endif  // DKF_QUERY_REGISTRY_H_
