#include "fleet/fleet_engine.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/string_util.h"
#include "core/suppression.h"

namespace dkf {

namespace {

// Bitwise comparison helpers. The absorb predicate and the cached-phi
// assertion both demand *bit* equality — `==` on doubles would treat
// -0.0 == 0.0 and NaN != NaN, either of which could let a lane drift
// from the per-source arithmetic by one representation.
bool BitEqual(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const size_t n = a.rows() * a.cols();
  return n == 0 ||
         std::memcmp(a.RowData(0), b.RowData(0), n * sizeof(double)) == 0;
}

bool BitEqual(const std::vector<double>& flat, const Matrix& m) {
  if (flat.size() != m.rows() * m.cols()) return false;
  return flat.empty() ||
         std::memcmp(flat.data(), m.RowData(0),
                     flat.size() * sizeof(double)) == 0;
}

/// Every field of FullState, bitwise — StateEquals only compares
/// step/x/p, which is not enough to fold two filters into one lane: the
/// steady-state bookkeeping and noise matrices drive future arithmetic.
bool FullStateBitEqual(const KalmanFilter::FullState& a,
                       const KalmanFilter::FullState& b) {
  if (a.step != b.step || a.phase != b.phase || a.ss_mode != b.ss_mode ||
      a.ss_streak1 != b.ss_streak1 || a.ss_streak2 != b.ss_streak2 ||
      a.predicts_since_correct != b.predicts_since_correct ||
      a.ss_have_prev != b.ss_have_prev || a.ss_period != b.ss_period ||
      a.ss_pending_priors != b.ss_pending_priors ||
      a.ss_capture_idx != b.ss_capture_idx || a.ss_idx != b.ss_idx) {
    return false;
  }
  if (!BitEqual(a.x, b.x) || !BitEqual(a.p, b.p) ||
      !BitEqual(a.last_innovation, b.last_innovation) ||
      !BitEqual(a.process_noise, b.process_noise) ||
      !BitEqual(a.measurement_noise, b.measurement_noise) ||
      !BitEqual(a.ss_prev_gain, b.ss_prev_gain)) {
    return false;
  }
  for (int i = 0; i < 2; ++i) {
    if (!BitEqual(a.ss_prev_post[i], b.ss_prev_post[i]) ||
        !BitEqual(a.ss_gain[i], b.ss_gain[i]) ||
        !BitEqual(a.ss_prior_p[i], b.ss_prior_p[i]) ||
        !BitEqual(a.ss_post_p[i], b.ss_post_p[i])) {
      return false;
    }
  }
  return true;
}

void AppendRaw(std::string* out, const void* p, size_t bytes) {
  out->append(static_cast<const char*>(p), bytes);
}

void AppendMatrix(std::string* out, const Matrix& m) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  AppendRaw(out, &rows, sizeof(rows));
  AppendRaw(out, &cols, sizeof(cols));
  if (rows * cols > 0) AppendRaw(out, m.RowData(0), rows * cols * 8);
}

/// Canonical byte key of everything that makes two models interchangeable
/// for batching purposes: lanes in one group share coefficients and the
/// replay/loaner filters, so any field that could alter arithmetic or
/// trace behavior must be part of the key.
std::string ModelKey(const StateModel& model) {
  std::string key = model.name;
  key.push_back('\0');
  AppendRaw(&key, &model.measurement_dim, sizeof(model.measurement_dim));
  const char fast = model.options.steady_state_fast_path ? 1 : 0;
  AppendRaw(&key, &fast, sizeof(fast));
  AppendRaw(&key, &model.options.steady_state_tolerance, sizeof(double));
  AppendMatrix(&key, model.options.transition);
  AppendMatrix(&key, model.options.measurement);
  AppendMatrix(&key, model.options.process_noise);
  AppendMatrix(&key, model.options.measurement_noise);
  AppendMatrix(&key, model.options.initial_covariance);
  const size_t n = model.options.initial_state.size();
  AppendRaw(&key, &n, sizeof(n));
  if (n > 0) AppendRaw(&key, model.options.initial_state.data(), n * 8);
  return key;
}

void FlattenMatrix(const Matrix& m, std::vector<double>* out) {
  out->resize(m.rows() * m.cols());
  if (!out->empty()) {
    std::memcpy(out->data(), m.RowData(0), out->size() * sizeof(double));
  }
}

/// How many lanes ahead TickGroupLanesN prefetches readings.
constexpr size_t kPrefetchLanes = 8;

Matrix FlatMatrix(const double* src, size_t rows, size_t cols) {
  Matrix out(rows, cols);
  std::memcpy(out.MutableRowData(0), src, rows * cols * sizeof(double));
  return out;
}

/// Offsets into one lane's cold record (Group::cold), in doubles.
struct ColdLayout {
  ColdLayout(size_t n, size_t m) : nn(n * n), nm(n * m) {}
  size_t prior_p(int i) const { return static_cast<size_t>(i) * nn; }
  size_t post_p(int i) const { return (2 + static_cast<size_t>(i)) * nn; }
  size_t prev_post(int i) const { return (4 + static_cast<size_t>(i)) * nn; }
  size_t gain(int i) const { return 6 * nn + static_cast<size_t>(i) * nm; }
  size_t prev_gain() const { return 6 * nn + 2 * nm; }
  size_t innovation() const { return 6 * nn + 3 * nm; }
  size_t nn;
  size_t nm;
};

}  // namespace

FleetEngine::FleetEngine(ServerNode* server, Channel* channel,
                         const ProtocolOptions& protocol,
                         const EnergyModelOptions& energy)
    : server_(server), channel_(channel), protocol_(protocol),
      energy_(energy) {}

Result<int> FleetEngine::GroupFor(const StateModel& model) {
  if (model.options.transition_fn) return -1;  // no constant phi to cache
  std::string key = ModelKey(model);
  auto it = group_by_key_.find(key);
  if (it != group_by_key_.end()) return it->second;

  auto group = std::make_unique<Group>();
  group->model = model;
  group->n = model.options.initial_state.size();
  group->m = model.options.measurement.rows();
  DKF_ASSIGN_OR_RETURN(KalmanPredictor replay, KalmanPredictor::Create(model));
  group->replay = std::move(replay);
  FlattenMatrix(model.options.transition, &group->phi);
  FlattenMatrix(model.options.measurement, &group->h);
  FlattenMatrix(model.options.process_noise, &group->q);
  FlattenMatrix(model.options.measurement_noise, &group->r);
  group->cold_stride =
      ColdLayout(group->n, group->m).innovation() + group->m;
  // The cached coefficients are derived once per group instead of per
  // source; they must be the very bits the filter's own transition lookup
  // produces, or the flat kernels would not be bit-identical to Predict.
  const Matrix& phi0 = group->replay->mutable_filter().TransitionForStep(0);
  if (!BitEqual(group->phi, phi0)) {
    return Status::Internal(
        "cached transition coefficients diverge from TransitionAt output");
  }
  const int index = static_cast<int>(groups_.size());
  groups_.push_back(std::move(group));
  group_by_key_[std::move(key)] = index;
  return index;
}

Status FleetEngine::Track(int source_id, const StateModel& model,
                          SourceNode* node) {
  if (nodes_.contains(source_id)) {
    return Status::AlreadyExists(
        StrFormat("source %d already tracked", source_id));
  }
  DKF_ASSIGN_OR_RETURN(int group_index, GroupFor(model));
  nodes_[source_id] = node;
  eligible_group_[source_id] = group_index;
  spilled_.insert(source_id);
  order_dirty_ = true;
  return Status::OK();
}

KalmanFilter::FullState FleetEngine::LaneFullState(const Group& g,
                                                   size_t lane) {
  const size_t n = g.n;
  const size_t m = g.m;
  const ColdLayout at(n, m);
  const double* rec = &g.cold[lane * g.cold_stride];
  const ColdCounters& counters = g.cold_counters[lane];
  KalmanFilter::FullState f;
  f.x = Vector(n);
  std::memcpy(f.x.data(), &g.x[lane * n], n * sizeof(double));
  f.p = FlatMatrix(LaneCovariance(g, lane), n, n);
  f.step = g.step[lane];
  if (counters.has_innovation) {
    f.last_innovation = Vector(m);
    std::memcpy(f.last_innovation.data(), rec + at.innovation(),
                m * sizeof(double));
  }
  f.process_noise = FlatMatrix(g.q.data(), n, n);
  f.measurement_noise = FlatMatrix(g.r.data(), m, m);
  f.phase = g.phase[lane];
  f.ss_mode = g.ss_mode[lane];
  f.ss_streak1 = counters.ss_streak1;
  f.ss_streak2 = counters.ss_streak2;
  f.predicts_since_correct = g.psc[lane];
  f.ss_have_prev = counters.ss_have_prev;
  for (int i = 0; i < 2; ++i) {
    f.ss_prev_post[i] = FlatMatrix(rec + at.prev_post(i), n, n);
    f.ss_gain[i] = FlatMatrix(rec + at.gain(i), n, m);
    f.ss_prior_p[i] = FlatMatrix(rec + at.prior_p(i), n, n);
    f.ss_post_p[i] = FlatMatrix(rec + at.post_p(i), n, n);
  }
  f.ss_prev_gain = FlatMatrix(rec + at.prev_gain(), n, m);
  f.ss_period = g.ss_period[lane];
  f.ss_pending_priors = counters.ss_pending_priors;
  f.ss_capture_idx = counters.ss_capture_idx;
  f.ss_idx = g.ss_idx[lane];
  return f;
}

const double* FleetEngine::LaneCovariance(const Group& g, size_t lane) {
  const size_t nn = g.n * g.n;
  // The filter's own fast path assigns p <- ss_prior_p[ss_idx] eagerly;
  // an armed lane defers that copy, so read the prior in its place.
  if (!g.p_stale[lane]) return &g.p[lane * nn];
  return &g.cold[lane * g.cold_stride +
                 ColdLayout(g.n, g.m).prior_p(g.ss_idx[lane])];
}

void FleetEngine::StoreCold(Group& g, size_t lane,
                            const KalmanFilter::FullState& full) {
  const ColdLayout at(g.n, g.m);
  double* rec = &g.cold[lane * g.cold_stride];
  const auto put = [rec](size_t offset, const Matrix& matrix) {
    std::memcpy(rec + offset, matrix.RowData(0),
                matrix.rows() * matrix.cols() * sizeof(double));
  };
  for (int i = 0; i < 2; ++i) {
    put(at.prior_p(i), full.ss_prior_p[i]);
    put(at.post_p(i), full.ss_post_p[i]);
    put(at.prev_post(i), full.ss_prev_post[i]);
    put(at.gain(i), full.ss_gain[i]);
  }
  put(at.prev_gain(), full.ss_prev_gain);
  ColdCounters& counters = g.cold_counters[lane];
  counters.has_innovation = full.last_innovation.size() == g.m ? 1 : 0;
  if (counters.has_innovation) {
    std::memcpy(rec + at.innovation(), full.last_innovation.data(),
                g.m * sizeof(double));
  }
  counters.ss_streak1 = full.ss_streak1;
  counters.ss_streak2 = full.ss_streak2;
  counters.ss_have_prev = full.ss_have_prev;
  counters.ss_pending_priors = full.ss_pending_priors;
  counters.ss_capture_idx = full.ss_capture_idx;
  g.ss_period[lane] = full.ss_period;
}

Result<SourceNode::CheckpointState> FleetEngine::SynthesizeSourceState(
    const LaneRef& ref) const {
  const Group& g = *groups_[ref.group];
  const int id = g.ids[ref.lane];
  auto node_it = nodes_.find(id);
  if (node_it == nodes_.end()) {
    return Status::NotFound(StrFormat("source %d not tracked", id));
  }
  DKF_ASSIGN_OR_RETURN(SourceNode::CheckpointState state,
                       node_it->second->ExportCheckpoint());
  OverlayLane(g, ref.lane, &state);
  return state;
}

ServerNode::LinkSnapshot FleetEngine::SynthesizeLinkState(
    const LaneRef& ref) const {
  const Group& g = *groups_[ref.group];
  ServerNode::LinkSnapshot link =
      LaneLink(*nodes_.at(g.ids[ref.lane]), g, ref.lane);
  link.predictor = LaneFullState(g, ref.lane);
  return link;
}

void FleetEngine::OverlayLane(const Group& g, size_t lane,
                              SourceNode::CheckpointState* state) {
  state->mirror = LaneFullState(g, lane);
  state->readings = g.readings[lane];
  state->energy_transmission = g.energy_transmission[lane];
  state->energy_compute = g.energy_compute[lane];
  state->energy_sensing = g.energy_sensing[lane];
  state->last_send_tick = g.last_send_tick[lane];
}

ServerNode::LinkSnapshot FleetEngine::LaneLink(const SourceNode& node,
                                               const Group& g, size_t lane) {
  ServerNode::LinkSnapshot link;
  link.last_sequence = g.link_last_sequence[lane];
  link.last_valid_tick = g.link_last_valid_tick[lane];
  link.last_resync_tick = g.link_last_resync_tick[lane];
  link.last_update_tick = g.link_last_update_tick[lane];
  // Mirror and predictor are bitwise equal while resident — one lane IS
  // the whole dual link — so the mirror's reconstruction serves as the
  // predictor. The same holds for the noise servo (absorption required
  // the two adapter states bit-equal, and corrections — the only thing
  // that moves them — never happen on a resident lane), so the dormant
  // node's state stands in for the server's.
  link.adapt = node.noise_adapter().ExportState();
  return link;
}

size_t FleetEngine::AddLane(Group& g, int source_id,
                            const SourceNode::CheckpointState& state,
                            const ServerNode::LinkSnapshot& link) {
  const size_t lane = g.ids.size();
  const size_t n = g.n;
  const KalmanFilter::FullState& m = state.mirror;
  g.ids.push_back(source_id);
  g.x.insert(g.x.end(), m.x.data(), m.x.data() + n);
  g.p.insert(g.p.end(), m.p.RowData(0), m.p.RowData(0) + n * n);
  g.step.push_back(m.step);
  g.psc.push_back(m.predicts_since_correct);
  g.phase.push_back(m.phase);
  g.ss_mode.push_back(m.ss_mode);
  g.ss_idx.push_back(m.ss_idx);
  g.p_stale.push_back(0);
  g.delta.push_back(state.delta);
  g.last_send_tick.push_back(state.last_send_tick);
  g.readings.push_back(state.readings);
  g.energy_transmission.push_back(state.energy_transmission);
  g.energy_compute.push_back(state.energy_compute);
  g.energy_sensing.push_back(state.energy_sensing);
  g.link_last_sequence.push_back(link.last_sequence);
  g.link_last_valid_tick.push_back(link.last_valid_tick);
  g.link_last_resync_tick.push_back(link.last_resync_tick);
  g.link_last_update_tick.push_back(link.last_update_tick);
  g.ss_period.push_back(m.ss_period);
  g.value_ptrs.push_back(nullptr);
  g.cold.resize(g.cold.size() + g.cold_stride);
  g.cold_counters.emplace_back();
  StoreCold(g, lane, m);
  return lane;
}

void FleetEngine::RemoveLane(Group& g, size_t lane) {
  const size_t last = g.ids.size() - 1;
  const size_t n = g.n;
  if (lane != last) {
    const int moved = g.ids[last];
    g.ids[lane] = g.ids[last];
    std::memcpy(&g.x[lane * n], &g.x[last * n], n * sizeof(double));
    std::memcpy(&g.p[lane * n * n], &g.p[last * n * n],
                n * n * sizeof(double));
    g.step[lane] = g.step[last];
    g.psc[lane] = g.psc[last];
    g.phase[lane] = g.phase[last];
    g.ss_mode[lane] = g.ss_mode[last];
    g.ss_idx[lane] = g.ss_idx[last];
    g.p_stale[lane] = g.p_stale[last];
    g.delta[lane] = g.delta[last];
    g.last_send_tick[lane] = g.last_send_tick[last];
    g.readings[lane] = g.readings[last];
    g.energy_transmission[lane] = g.energy_transmission[last];
    g.energy_compute[lane] = g.energy_compute[last];
    g.energy_sensing[lane] = g.energy_sensing[last];
    g.link_last_sequence[lane] = g.link_last_sequence[last];
    g.link_last_valid_tick[lane] = g.link_last_valid_tick[last];
    g.link_last_resync_tick[lane] = g.link_last_resync_tick[last];
    g.link_last_update_tick[lane] = g.link_last_update_tick[last];
    g.ss_period[lane] = g.ss_period[last];
    g.value_ptrs[lane] = g.value_ptrs[last];
    std::memcpy(&g.cold[lane * g.cold_stride], &g.cold[last * g.cold_stride],
                g.cold_stride * sizeof(double));
    g.cold_counters[lane] = g.cold_counters[last];
    resident_[moved].lane = lane;
    if (TickEntry* entry = FindEntry(moved)) {
      entry->lane = static_cast<int32_t>(lane);
    }
  }
  g.ids.pop_back();
  g.x.resize(g.x.size() - n);
  g.p.resize(g.p.size() - n * n);
  g.step.pop_back();
  g.psc.pop_back();
  g.phase.pop_back();
  g.ss_mode.pop_back();
  g.ss_idx.pop_back();
  g.p_stale.pop_back();
  g.delta.pop_back();
  g.last_send_tick.pop_back();
  g.readings.pop_back();
  g.energy_transmission.pop_back();
  g.energy_compute.pop_back();
  g.energy_sensing.pop_back();
  g.link_last_sequence.pop_back();
  g.link_last_valid_tick.pop_back();
  g.link_last_resync_tick.pop_back();
  g.link_last_update_tick.pop_back();
  g.ss_period.pop_back();
  g.value_ptrs.pop_back();
  g.cold.resize(g.cold.size() - g.cold_stride);
  g.cold_counters.pop_back();
}

Status FleetEngine::SpillLane(int group_index, size_t lane, int64_t tick,
                              const Vector* reading) {
  Group& g = *groups_[group_index];
  const int id = g.ids[lane];
  SourceNode* node = nodes_.at(id);

  // One FullState serves both ends: the node imports it as its mirror,
  // then the server's link takes it over as its predictor.
  auto synth_or = node->ExportCheckpoint();
  if (!synth_or.ok()) return synth_or.status();
  SourceNode::CheckpointState& synth = synth_or.value();
  OverlayLane(g, lane, &synth);
  DKF_RETURN_IF_ERROR(node->ImportCheckpoint(synth));
  ServerNode::LinkSnapshot link = LaneLink(*node, g, lane);
  link.predictor = std::move(synth.mirror);
  // Register with the source's *nominal* model, not the (possibly
  // adapted) group model: the server builds its NoiseAdapter from the
  // registration model, and the servo's scales are relative to nominal.
  // RestoreLink then overwrites the filter with the lane's full state,
  // so the registration model's Q/R never reach the filter either way.
  const StateModel& nominal_model = groups_[eligible_group_.at(id)]->model;
  DKF_RETURN_IF_ERROR(server_->RegisterSource(id, nominal_model));
  DKF_RETURN_IF_ERROR(server_->RestoreLink(id, link));

  RemoveLane(g, lane);
  resident_.erase(id);
  spilled_.insert(id);
  if (TickEntry* entry = FindEntry(id)) entry->group = -1;
  ++spills_;

  if (reading != nullptr) {
    // Mid-tick spill: the server's TickAll already ran without this id,
    // so the freshly re-registered predictor replays the predict it
    // missed, then the verbatim per-source code takes the tick over.
    DKF_RETURN_IF_ERROR(server_->TickSource(id));
    auto step_or = node->ProcessReading(tick, *reading, channel_);
    if (!step_or.ok()) return step_or.status();
  }
  return Status::OK();
}

Status FleetEngine::SpillForReconfigure(int source_id) {
  auto it = resident_.find(source_id);
  if (it == resident_.end()) return Status::OK();
  return SpillLane(it->second.group, it->second.lane, /*tick=*/0,
                   /*reading=*/nullptr);
}

int64_t FleetEngine::LookupBatchPos(const ReadingBatch& batch, int id,
                                    bool* rebuilt) {
  auto it = batch_pos_.find(id);
  if (it != batch_pos_.end()) {
    const int64_t pos = it->second;
    if (pos >= 0 && static_cast<size_t>(pos) < batch.ids.size() &&
        batch.ids[pos] == id) {
      return pos;
    }
  }
  if (!*rebuilt) {
    batch_pos_.clear();
    batch_pos_.reserve(batch.ids.size());
    for (size_t i = 0; i < batch.ids.size(); ++i) {
      batch_pos_[batch.ids[i]] = static_cast<int64_t>(i);
    }
    *rebuilt = true;
    auto again = batch_pos_.find(id);
    if (again != batch_pos_.end()) return again->second;
  }
  return -1;
}

void FleetEngine::RebuildOrder() {
  std::vector<TickEntry> old = std::move(order_);
  order_.clear();
  order_.reserve(nodes_.size());
  size_t j = 0;
  for (auto& [id, node] : nodes_) {
    TickEntry entry;
    entry.id = id;
    entry.node = node;
    if (const LaneRef* ref = FindLane(id)) {
      entry.group = ref->group;
      entry.lane = static_cast<int32_t>(ref->lane);
    }
    // Carry the warm rank cache across the rebuild (both ascending).
    while (j < old.size() && old[j].id < id) ++j;
    if (j < old.size() && old[j].id == id) entry.rank = old[j].rank;
    order_.push_back(entry);
  }
  order_dirty_ = false;
}

FleetEngine::TickEntry* FleetEngine::FindEntry(int id) {
  if (order_dirty_) return nullptr;
  auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [](const TickEntry& entry, int key) { return entry.id < key; });
  return it != order_.end() && it->id == id ? &*it : nullptr;
}

Status FleetEngine::VerifyOrder() const {
  if (order_dirty_) return Status::OK();
  if (order_.size() != nodes_.size()) {
    return Status::Internal(
        StrFormat("tick order holds %zu entries for %zu tracked sources",
                  order_.size(), nodes_.size()));
  }
  for (size_t i = 0; i < order_.size(); ++i) {
    const TickEntry& entry = order_[i];
    if (i > 0 && order_[i - 1].id >= entry.id) {
      return Status::Internal(StrFormat(
          "tick order not strictly ascending at source %d", entry.id));
    }
    const LaneRef* ref = FindLane(entry.id);
    const bool matches =
        ref != nullptr
            ? entry.group == ref->group &&
                  static_cast<size_t>(entry.lane) == ref->lane &&
                  groups_[ref->group]->ids[ref->lane] == entry.id
            : entry.group == -1 && spilled_.contains(entry.id);
    if (!matches) {
      return Status::Internal(StrFormat(
          "tick order entry of source %d disagrees with its residency",
          entry.id));
    }
  }
  return Status::OK();
}

Status FleetEngine::ResolveReadings(const std::map<int, Vector>* readings,
                                    const ReadingBatch* batch) {
  staged_spilled_.clear();
  staged_spilled_.reserve(spilled_.size());
  if (order_dirty_) RebuildOrder();
  bool rebuilt = false;
  // Ascending id, like the shard's per-source staging pass: the first
  // bad reading reported is the same one the per-source path would name,
  // and nothing is resolved until everything is (error before state
  // moves).
  for (TickEntry& entry : order_) {
    const Vector* value = nullptr;
    if (readings != nullptr) {
      auto it = readings->find(entry.id);
      if (it != readings->end()) value = &it->second;
    } else {
      // Fast path: the cached rank from the previous tick usually still
      // holds (callers keep batch order stable); fall back to the
      // position index, rebuilt at most once per tick.
      int64_t rank = entry.rank;
      if (rank < 0 || static_cast<size_t>(rank) >= batch->ids.size() ||
          batch->ids[rank] != entry.id) {
        rank = LookupBatchPos(*batch, entry.id, &rebuilt);
      }
      if (rank >= 0) {
        entry.rank = rank;
        value = &batch->values[rank];
      }
    }
    if (value == nullptr) {
      return Status::InvalidArgument(
          StrFormat("missing reading for source %d", entry.id));
    }
    size_t width;
    if (entry.group >= 0) {
      Group& g = *groups_[entry.group];
      width = g.m;
      g.value_ptrs[entry.lane] = value;
    } else {
      width = entry.node->mirror().dim();
      staged_spilled_.emplace_back(entry.node, value);
    }
    if (value->size() != width) {
      return Status::InvalidArgument(
          StrFormat("reading width %zu for source %d, model expects %zu",
                    value->size(), entry.id, width));
    }
  }
  return Status::OK();
}

void FleetEngine::AccountDegradedLanes() {
  // Replicates the degraded-service block at the top of
  // ServerNode::TickAll for the lanes the server no longer sees,
  // including its cheap-guard short-circuit so a fault-free run pays
  // nothing. Must run before TickAll (`now` is the tick that just
  // completed, under the pre-increment clock).
  if (server_->ticks() <= 0 ||
      (protocol_.staleness_budget <= 0 &&
       server_->fault_stats().resyncs_applied == 0)) {
    return;
  }
  const int64_t now = server_->ticks() - 1;
  for (const auto& group : groups_) {
    const Group& g = *group;
    for (size_t i = 0; i < g.ids.size(); ++i) {
      const int64_t overdue = LaneOverdue(g, i);
      if (overdue == 0) continue;
      ++degraded_ticks_;
      DKF_TRACE(obs_sink_, now, g.ids[i], TraceEventKind::kDegradedTick,
                TraceActor::kServer, static_cast<double>(overdue));
    }
  }
}

template <size_t N>
bool FleetEngine::PredictLane(const Group& g, size_t lane, bool armed,
                              lane::Scratch<N>* s) {
  const size_t n = lane::Dim<N>(g.n);
  return lane::Predict<N>(n, g.phi.data(), g.q.data(), &g.x[lane * n],
                          &g.p[lane * n * n], armed, s);
}

template <size_t N>
double FleetEngine::LaneDeviation(const Group& g, size_t lane,
                                  const lane::Scratch<N>& s) {
  return lane::Deviation<N>(g.n, g.m, g.h.data(), s.x(),
                            g.value_ptrs[lane]->data());
}

template <size_t N>
void FleetEngine::CommitPredict(Group& g, size_t lane, bool armed,
                                const lane::Scratch<N>& s) {
  const size_t n = lane::Dim<N>(g.n);
  std::memcpy(&g.x[lane * n], s.x(), n * sizeof(double));
  if (armed) {
    // (ss_idx + 1) % period without the integer divide: ss_idx stays in
    // [0, period), so the wrap is a single compare. The p <- ss_prior_p
    // copy is deferred; readers materialize it on demand.
    const int32_t next_idx = g.ss_idx[lane] + 1;
    g.ss_idx[lane] = next_idx == g.ss_period[lane] ? 0 : next_idx;
    g.p_stale[lane] = 1;
  } else {
    std::memcpy(&g.p[lane * n * n], s.p2(), n * n * sizeof(double));
  }
  ++g.step[lane];
  ++g.psc[lane];
  g.phase[lane] = kPhasePredicted;
}

void FleetEngine::AccountSuppressed(Group& g, size_t lane, int64_t tick,
                                    double deviation) {
  // Suppressed-tick bookkeeping, exactly what ProcessReading accrues on
  // this path: one reading charge, one mirror filter step, one suppress
  // event carrying (deviation, delta).
  g.energy_sensing[lane] += energy_.instructions_per_reading;
  g.readings[lane] += 1;
  g.energy_compute[lane] += energy_.instructions_per_filter_step;
  DKF_TRACE(obs_sink_, tick, g.ids[lane], TraceEventKind::kSuppress,
            TraceActor::kSource, deviation, g.delta[lane]);
}

template <size_t N>
Status FleetEngine::TickLane(int group_index, size_t lane, int64_t tick,
                             lane::Scratch<N>* s, bool* spilled) {
  Group& g = *groups_[group_index];
  const int id = g.ids[lane];
  const Vector* z = g.value_ptrs[lane];
  const size_t n = lane::Dim<N>(g.n);

  // A due heartbeat touches the channel whatever the deviation says
  // (suppressed -> heartbeat, violated -> measurement), so the per-source
  // code must own this tick either way.
  if (protocol_.heartbeat_interval > 0 &&
      tick - g.last_send_tick[lane] >= protocol_.heartbeat_interval) {
    DKF_RETURN_IF_ERROR(SpillLane(group_index, lane, tick, z));
    *spilled = true;
    return Status::OK();
  }

  if (g.ss_mode[lane] == kSsArmPending) {
    // The rare arm-pending predict runs through the real filter so the
    // capture/arm/freeze transition stays bit-exact, trace included.
    // First a silent replay decides suppress-vs-spill without touching
    // the lane; then, if suppressed, one traced replay per actor emits
    // exactly what the server filter (TickAll) and the mirror
    // (ProcessReading) would have, in that order.
    KalmanPredictor& replay = *g.replay;
    const KalmanFilter::FullState pre = LaneFullState(g, lane);
    replay.SetTrace(nullptr, 0, TraceActor::kSourceFilter);
    DKF_RETURN_IF_ERROR(replay.ImportFullState(pre));
    DKF_RETURN_IF_ERROR(replay.Tick());
    const double deviation =
        Deviation(replay.Predicted(), *z, DeviationNorm::kMaxAbs);
    if (deviation > g.delta[lane]) {
      DKF_RETURN_IF_ERROR(SpillLane(group_index, lane, tick, z));
      *spilled = true;
      return Status::OK();
    }
    DKF_RETURN_IF_ERROR(replay.ImportFullState(pre));
    replay.SetTrace(obs_sink_, id, TraceActor::kServerFilter);
    DKF_RETURN_IF_ERROR(replay.Tick());
    DKF_RETURN_IF_ERROR(replay.ImportFullState(pre));
    replay.SetTrace(obs_sink_, id, TraceActor::kSourceFilter);
    DKF_RETURN_IF_ERROR(replay.Tick());
    replay.SetTrace(nullptr, 0, TraceActor::kSourceFilter);
    DKF_ASSIGN_OR_RETURN(KalmanFilter::FullState post,
                         replay.ExportFullState());
    StoreCold(g, lane, post);
    std::memcpy(&g.x[lane * n], post.x.data(), n * sizeof(double));
    std::memcpy(&g.p[lane * n * n], post.p.RowData(0),
                n * n * sizeof(double));
    g.p_stale[lane] = 0;
    g.step[lane] = post.step;
    g.psc[lane] = post.predicts_since_correct;
    g.phase[lane] = post.phase;
    g.ss_mode[lane] = post.ss_mode;
    g.ss_idx[lane] = post.ss_idx;
    AccountSuppressed(g, lane, tick, deviation);
    return Status::OK();
  }

  const bool armed =
      g.ss_mode[lane] == kSsArmed && g.phase[lane] == kPhaseCorrected;
  if (g.ss_mode[lane] == kSsArmed && !armed) {
    // Coasting break: a second Predict without a Correct leaves the
    // frozen cycle (DisarmSteadyState). Both halves of the dual link
    // disarm at the same step; the server filter's event lands first
    // because TickAll runs before the source loop.
    const double period = static_cast<double>(g.ss_period[lane]);
    DKF_TRACE(obs_sink_, g.step[lane], id, TraceEventKind::kFastPathDisarm,
              TraceActor::kServerFilter, period);
    DKF_TRACE(obs_sink_, g.step[lane], id, TraceEventKind::kFastPathDisarm,
              TraceActor::kSourceFilter, period);
    g.ss_mode[lane] = kSsTracking;
    ColdCounters& counters = g.cold_counters[lane];
    counters.ss_streak1 = 0;
    counters.ss_streak2 = 0;
    counters.ss_have_prev = 0;
    if (g.p_stale[lane]) {
      std::memcpy(&g.p[lane * n * n], LaneCovariance(g, lane),
                  n * n * sizeof(double));
      g.p_stale[lane] = 0;
    }
  }
  // Armed fast path (KalmanFilter::Predict, armed branch) or the
  // tracking-mode slow predict.
  if (!PredictLane<N>(g, lane, armed, s)) {
    return Status::Internal("filter state diverged to non-finite values");
  }
  const double deviation = LaneDeviation<N>(g, lane, *s);
  if (deviation > g.delta[lane]) {
    DKF_RETURN_IF_ERROR(SpillLane(group_index, lane, tick, z));
    *spilled = true;
    return Status::OK();
  }
  CommitPredict<N>(g, lane, armed, *s);
  AccountSuppressed(g, lane, tick, deviation);
  return Status::OK();
}

Status FleetEngine::TickGroupLanes(int group_index, int64_t tick) {
  switch (groups_[group_index]->n) {
    case 1: return TickGroupLanesN<1>(group_index, tick);
    case 2: return TickGroupLanesN<2>(group_index, tick);
    case 3: return TickGroupLanesN<3>(group_index, tick);
    case 4: return TickGroupLanesN<4>(group_index, tick);
    case 5: return TickGroupLanesN<5>(group_index, tick);
    case 6: return TickGroupLanesN<6>(group_index, tick);
    default: return TickGroupLanesN<0>(group_index, tick);
  }
}

template <size_t N>
Status FleetEngine::TickGroupLanesN(int group_index, int64_t tick) {
  Group& g = *groups_[group_index];
  lane::Scratch<N> s(g.n);
  const int64_t hb_interval = protocol_.heartbeat_interval;
  size_t lane = 0;
  while (lane < g.ids.size()) {
    // Lanes sit in swap-removal order, so their readings are scattered
    // across the batch the driver thread just wrote: fetch a few lanes
    // ahead so the reading's cache lines are in flight before use.
    if (lane + kPrefetchLanes < g.ids.size()) {
      const char* ahead =
          reinterpret_cast<const char*>(g.value_ptrs[lane + kPrefetchLanes]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(Vector) - 1);
    }
    // The two hot cases, replicated from TickLane: no heartbeat due,
    // and either the armed frozen-gain predict (corrected last tick) or
    // the tracking-mode slow predict (the steady regime of a
    // long-suppressed lane, which disarms after two uncorrected
    // predicts and then predicts through the full covariance update).
    // Commit happens only when the prediction is finite and inside
    // delta; every exception falls back to TickLane, which recomputes
    // from the untouched lane state bit-exactly.
    if (!(hb_interval > 0 && tick - g.last_send_tick[lane] >= hb_interval)) {
      const uint8_t mode = g.ss_mode[lane];
      const bool armed = mode == kSsArmed && g.phase[lane] == kPhaseCorrected;
      if ((armed || (mode == kSsTracking && !g.p_stale[lane])) &&
          PredictLane<N>(g, lane, armed, &s)) {
        const double deviation = LaneDeviation<N>(g, lane, s);
        if (deviation <= g.delta[lane]) {
          CommitPredict<N>(g, lane, armed, s);
          AccountSuppressed(g, lane, tick, deviation);
          ++lane;
          continue;
        }
      }
    }
    bool spilled = false;
    DKF_RETURN_IF_ERROR(TickLane<N>(group_index, lane, tick, &s, &spilled));
    // A spill swap-removed this lane; the moved lane (if any) now sits
    // at the same index and still needs its tick.
    if (!spilled) ++lane;
  }
  return Status::OK();
}

Status FleetEngine::TryAbsorbAll() {
  if (spilled_.empty()) return Status::OK();
  // One channel pass for the whole scan: probing has_residual_for per
  // spilled source walks the in-flight queue each time, which turns a
  // convergence-phase fleet (everything spilled, everything in flight)
  // into a quadratic stall.
  residual_scratch_.clear();
  channel_->AppendResidualSources(&residual_scratch_);
  std::unordered_set<int> busy(residual_scratch_.begin(),
                               residual_scratch_.end());
  for (auto it = spilled_.begin(); it != spilled_.end();) {
    const int id = *it;
    const int group_index = eligible_group_.at(id);
    if (group_index < 0) {
      ++it;
      continue;
    }
    SourceNode* node = nodes_.at(id);
    // Cheap prechecks before the full export: a pending resync or any
    // channel residue (an in-flight message or an uncollected deferred
    // ACK) can still mutate this link asymmetrically.
    if (node->resync_pending() || busy.contains(id)) {
      ++it;
      continue;
    }
    auto state_or = node->ExportCheckpoint();
    if (!state_or.ok()) return state_or.status();
    const SourceNode::CheckpointState& state = state_or.value();
    if (state.pending || state.resync_attempts != 0 ||
        state.first_resync_sequence != 0 ||
        state.smoothing_factor.has_value()) {
      ++it;
      continue;
    }
    auto link_or = server_->ExportLink(id);
    if (!link_or.ok()) return link_or.status();
    const ServerNode::LinkSnapshot& link = link_or.value();
    int target_index = group_index;
    const NoiseAdapter& adapter = node->noise_adapter();
    if (adapter.enabled()) {
      // Adaptive links only fold once the servo has locked (the scales
      // stopped moving) AND both ends' servo state is bit-identical —
      // otherwise the next correction would move noise matrices a lane
      // cannot represent, and convergence gating also keeps the number
      // of per-(Q,R) groups bounded by the number of settled regimes.
      if (!adapter.Converged() || !BitEqual(state.adapt, link.adapt)) {
        ++it;
        continue;
      }
      if (!BitEqual(groups_[group_index]->q, state.mirror.process_noise) ||
          !BitEqual(groups_[group_index]->r,
                    state.mirror.measurement_noise)) {
        // The servo moved this source off its nominal noise: fold into a
        // group keyed by the adapted (Q, R) instead. eligible_group_
        // keeps pointing at the nominal group so spills re-register the
        // nominal model.
        StateModel adapted = groups_[group_index]->model;
        adapted.options.process_noise = state.mirror.process_noise;
        adapted.options.measurement_noise = state.mirror.measurement_noise;
        auto adapted_or = GroupFor(adapted);
        if (!adapted_or.ok()) return adapted_or.status();
        target_index = adapted_or.value();
        if (target_index < 0) {
          ++it;
          continue;
        }
      }
    }
    Group& g = *groups_[target_index];
    // The equivalence contract: fold only when mirror and predictor are
    // the same filter bit-for-bit AND still running the group's cached
    // coefficients (a reconfigured Q/R would diverge from the flats).
    if (!FullStateBitEqual(state.mirror, link.predictor) ||
        !BitEqual(g.q, state.mirror.process_noise) ||
        !BitEqual(g.r, state.mirror.measurement_noise)) {
      ++it;
      continue;
    }
    const size_t lane = AddLane(g, id, state, link);
    DKF_RETURN_IF_ERROR(server_->UnregisterSource(id));
    resident_[id] = LaneRef{target_index, lane};
    if (TickEntry* entry = FindEntry(id)) {
      entry->group = target_index;
      entry->lane = static_cast<int32_t>(lane);
    }
    it = spilled_.erase(it);
  }
  return Status::OK();
}

Status FleetEngine::ResolveReadings(const ReadingBatch& batch) {
  if (batch.ids.size() != batch.values.size()) {
    return Status::InvalidArgument(
        StrFormat("reading batch has %zu ids but %zu values",
                  batch.ids.size(), batch.values.size()));
  }
  return ResolveReadings(nullptr, &batch);
}

Status FleetEngine::ProcessTick(int64_t tick) {
  // Same phase order as the shard's per-source tick: degraded accounting
  // for the completed tick (lanes here, spilled links inside TickAll),
  // server predicts, channel drain, then the sources — spilled first
  // through the verbatim path, lanes through the flat kernel.
  AccountDegradedLanes();
  DKF_RETURN_IF_ERROR(server_->TickAll());
  DKF_RETURN_IF_ERROR(channel_->BeginTick(tick));
  for (auto& [node, reading] : staged_spilled_) {
    auto step_or = node->ProcessReading(tick, *reading, channel_);
    if (!step_or.ok()) return step_or.status();
  }
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    DKF_RETURN_IF_ERROR(TickGroupLanes(static_cast<int>(gi), tick));
  }
  return TryAbsorbAll();
}

int64_t FleetEngine::LaneOverdue(const Group& g, size_t lane) const {
  const int64_t ticks_done = server_->ticks();
  if (ticks_done <= 0) return 0;
  const int64_t now = ticks_done - 1;
  int64_t overdue = 0;
  if (protocol_.staleness_budget > 0) {
    overdue =
        now - g.link_last_valid_tick[lane] - protocol_.staleness_budget + 1;
  }
  if (g.link_last_resync_tick[lane] == now) {
    overdue = std::max<int64_t>(overdue, 1);
  }
  return std::max<int64_t>(overdue, 0);
}

Vector FleetEngine::Answer(const LaneRef& ref) const {
  const Group& g = *groups_[ref.group];
  Vector value(g.m);
  lane::MultiplyVector<0>(g.n, g.m, g.h.data(), &g.x[ref.lane * g.n],
                          value.data());
  return value;
}

ServerNode::ConfidentAnswer FleetEngine::AnswerWithConfidence(
    const LaneRef& ref) const {
  const Group& g = *groups_[ref.group];
  const size_t lane = ref.lane;
  ServerNode::ConfidentAnswer answer;
  answer.value = Answer(ref);
  // R is the group's, which absorption made bit-equal to the lane's own,
  // so groups keyed by adapted noise answer exactly.
  Matrix& covariance = answer.covariance.emplace(g.m, g.m);
  double* flat = covariance.MutableRowData(0);
  ProjectCovarianceInto(LaneCovariance(g, lane), g.h.data(), g.r.data(),
                        g.n, g.m, flat);
  // Degraded flag + inflation, replicating ServerNode::AnswerWithConfidence.
  const int64_t overdue = LaneOverdue(g, lane);
  if (overdue > 0) {
    answer.degraded = true;
    const double scale =
        1.0 + protocol_.degraded_inflation * static_cast<double>(overdue);
    for (size_t i = 0; i < g.m * g.m; ++i) flat[i] *= scale;
  }
  return answer;
}

bool FleetEngine::answer_degraded(const LaneRef& ref) const {
  return LaneOverdue(*groups_[ref.group], ref.lane) > 0;
}

}  // namespace dkf
