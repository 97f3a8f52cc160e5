#include "query/registry.h"

#include <algorithm>

#include "common/string_util.h"

namespace dkf {

Status QueryRegistry::AddQuery(const ContinuousQuery& query) {
  if (query.precision <= 0.0) {
    return Status::InvalidArgument("query precision must be positive");
  }
  if (query.smoothing_factor.has_value() && *query.smoothing_factor <= 0.0) {
    return Status::InvalidArgument("smoothing factor must be positive");
  }
  if (queries_.contains(query.id) || fused_queries_.contains(query.id)) {
    return Status::AlreadyExists(
        StrFormat("query %d already registered", query.id));
  }
  queries_[query.id] = query;
  by_source_[query.source_id].insert(query.id);
  return Status::OK();
}

Status QueryRegistry::RemoveQuery(int query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrFormat("query %d not registered", query_id));
  }
  auto source_it = by_source_.find(it->second.source_id);
  source_it->second.erase(query_id);
  if (source_it->second.empty()) by_source_.erase(source_it);
  queries_.erase(it);
  return Status::OK();
}

Result<int> QueryRegistry::QuerySource(int query_id) const {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrFormat("query %d not registered", query_id));
  }
  return it->second.source_id;
}

Result<double> QueryRegistry::EffectiveDelta(int source_id) const {
  auto it = by_source_.find(source_id);
  if (it == by_source_.end()) {
    return Status::NotFound(
        StrFormat("no queries on source %d", source_id));
  }
  double best = 0.0;
  bool found = false;
  for (int query_id : it->second) {
    const double precision = queries_.at(query_id).precision;
    best = found ? std::min(best, precision) : precision;
    found = true;
  }
  return best;
}

Result<std::optional<double>> QueryRegistry::EffectiveSmoothing(
    int source_id) const {
  auto it = by_source_.find(source_id);
  if (it == by_source_.end()) {
    return Status::NotFound(
        StrFormat("no queries on source %d", source_id));
  }
  std::optional<double> best;
  for (int query_id : it->second) {
    const ContinuousQuery& query = queries_.at(query_id);
    if (query.smoothing_factor.has_value()) {
      best = best.has_value() ? std::min(*best, *query.smoothing_factor)
                              : *query.smoothing_factor;
    }
  }
  return best;
}

std::vector<ContinuousQuery> QueryRegistry::QueriesForSource(
    int source_id) const {
  std::vector<ContinuousQuery> out;
  auto it = by_source_.find(source_id);
  if (it == by_source_.end()) return out;
  for (int query_id : it->second) out.push_back(queries_.at(query_id));
  return out;
}

std::vector<int> QueryRegistry::ActiveSources() const {
  std::vector<int> sources;
  sources.reserve(by_source_.size());
  for (const auto& [source_id, ids] : by_source_) sources.push_back(source_id);
  return sources;
}

Status QueryRegistry::AddFusedQuery(const FusedQuery& query) {
  if (query.precision <= 0.0) {
    return Status::InvalidArgument("query precision must be positive");
  }
  if (queries_.contains(query.id) || fused_queries_.contains(query.id)) {
    return Status::AlreadyExists(
        StrFormat("query %d already registered", query.id));
  }
  fused_queries_[query.id] = query;
  by_group_[query.group_id].insert(query.id);
  return Status::OK();
}

Status QueryRegistry::RemoveFusedQuery(int query_id) {
  auto it = fused_queries_.find(query_id);
  if (it == fused_queries_.end()) {
    return Status::NotFound(
        StrFormat("fused query %d not registered", query_id));
  }
  auto group_it = by_group_.find(it->second.group_id);
  group_it->second.erase(query_id);
  if (group_it->second.empty()) by_group_.erase(group_it);
  fused_queries_.erase(it);
  return Status::OK();
}

Result<int> QueryRegistry::FusedQueryGroup(int query_id) const {
  auto it = fused_queries_.find(query_id);
  if (it == fused_queries_.end()) {
    return Status::NotFound(
        StrFormat("fused query %d not registered", query_id));
  }
  return it->second.group_id;
}

Result<double> QueryRegistry::EffectiveFusedDelta(int group_id) const {
  auto it = by_group_.find(group_id);
  if (it == by_group_.end()) {
    return Status::NotFound(
        StrFormat("no fused queries on group %d", group_id));
  }
  double best = 0.0;
  bool found = false;
  for (int query_id : it->second) {
    const double precision = fused_queries_.at(query_id).precision;
    best = found ? std::min(best, precision) : precision;
    found = true;
  }
  return best;
}

std::vector<FusedQuery> QueryRegistry::FusedQueriesForGroup(
    int group_id) const {
  std::vector<FusedQuery> out;
  auto it = by_group_.find(group_id);
  if (it == by_group_.end()) return out;
  for (int query_id : it->second) out.push_back(fused_queries_.at(query_id));
  return out;
}

std::vector<int> QueryRegistry::ActiveGroups() const {
  std::vector<int> groups;
  groups.reserve(by_group_.size());
  for (const auto& [group_id, ids] : by_group_) groups.push_back(group_id);
  return groups;
}

}  // namespace dkf
