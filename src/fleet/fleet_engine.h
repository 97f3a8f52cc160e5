#ifndef DKF_FLEET_FLEET_ENGINE_H_
#define DKF_FLEET_FLEET_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/predictor.h"
#include "dsms/channel.h"
#include "dsms/energy_model.h"
#include "dsms/protocol.h"
#include "dsms/server_node.h"
#include "dsms/source_node.h"
#include "fleet/lane_kernel.h"
#include "models/state_model.h"
#include "obs/trace_sink.h"

namespace dkf {

/// The engine-level tick input for the batched fast path: readings in a
/// flat parallel-array layout instead of a std::map, so a million-source
/// tick costs no tree lookups. `ids[i]` owns `values[i]`. The order is
/// the caller's; the fleet engine caches each lane's rank and revalidates
/// it per tick, so a stable order is fastest but not required.
struct ReadingBatch {
  std::vector<int> ids;
  std::vector<Vector> values;
};

/// Structure-of-arrays batched tick engine for steady-state sources
/// (docs/fleet.md).
///
/// Every source a shard owns is *tracked* here when the batched fleet
/// path is enabled. A tracked source is in exactly one of two states:
///
///  * **spilled** — it lives on the classic per-source path: its
///    SourceNode processes readings, its predictor is registered with
///    the ServerNode, and this engine only watches it for re-entry.
///  * **resident** — its entire dual link is folded into one SoA *lane*:
///    a single copy of the (bit-identical) mirror/predictor filter state
///    packed into contiguous arrays, ticked by flat loops that replicate
///    the KalmanFilter predict arithmetic operation-for-operation. While
///    resident the source is NOT registered with the ServerNode and its
///    SourceNode lies dormant — the lane is the link.
///
/// The invariant that makes this bit-exact (the equivalence contract of
/// docs/fleet.md): a lane only ever executes *fully suppressed healthy
/// ticks* inline. Any tick on which the source would touch the channel —
/// the deviation exceeds delta, a heartbeat is due — or on which its
/// filter would do anything but a plain predict, first *spills* the
/// source back to the per-source objects (reconstructing them from the
/// lane bit-for-bit) and then runs the verbatim per-source code.
/// Consequently resident sources never send, so the channel, protocol
/// state machine, and server ingress are byte-identical to a run without
/// this engine; and a spilled source re-enters (is *absorbed*) only when
/// its mirror and server predictor are bitwise equal again with no
/// channel residue, so folding the pair into one lane loses nothing.
///
/// Threading contract: same as the shard that owns it — ProcessTick on
/// the shard's worker thread, everything else on the driver between
/// ticks.
class FleetEngine {
 public:
  /// `server`, `channel` are the owning shard's; they must outlive this
  /// engine. `protocol`/`energy` must be the options the shard builds
  /// its SourceNodes with (the lane replicates their accounting).
  FleetEngine(ServerNode* server, Channel* channel,
              const ProtocolOptions& protocol,
              const EnergyModelOptions& energy);

  /// Starts managing a source. Call right after the shard has created
  /// `node` and registered the source with the server: the source starts
  /// out spilled and is absorbed at the end of the first tick that
  /// leaves its link healthy and bit-converged. `node` must stay valid
  /// for this engine's lifetime. Sources with a time-varying transition
  /// are tracked but never absorbed (no constant coefficients to cache).
  Status Track(int source_id, const StateModel& model, SourceNode* node);

  /// Where a resident source's lane lives. Lanes move on spills and
  /// absorbs, so a ref is good only until the next tick or reconfigure.
  struct LaneRef {
    int group = 0;
    size_t lane = 0;
  };

  /// The lane `source_id` is folded into; nullptr when it is spilled or
  /// not tracked. The one residency lookup behind each read below.
  const LaneRef* FindLane(int source_id) const {
    auto it = resident_.find(source_id);
    return it == resident_.end() ? nullptr : &it->second;
  }

  size_t resident_count() const { return resident_.size(); }
  size_t tracked_count() const { return nodes_.size(); }

  /// Degraded ticks accounted on resident lanes (the server counts the
  /// spilled ones); the shard adds this to its merged fault counters.
  int64_t degraded_ticks() const { return degraded_ticks_; }

  /// Lifetime count of lane spills (mid-tick protocol spills plus
  /// reconfigure spills). A governor sweep that keeps a cohort's deltas
  /// stable must not move this — churn tests pin it.
  int64_t spill_count() const { return spills_; }

  void set_trace_sink(TraceSink* sink) { obs_sink_ = sink; }

  /// Spills a resident source between ticks so a reconfiguration
  /// (set_delta / set_smoothing) runs through the real SourceNode.
  /// No-op when the source is already spilled. The source re-enters at
  /// the end of the next tick if still eligible.
  Status SpillForReconfigure(int source_id);

  /// Stages one tick's readings: every tracked source must have one of
  /// its model's width. Spilled sources are staged in ascending id
  /// order and lane reading pointers cached; no filter state moves, so
  /// a rejected tick leaves every link untouched. The map overload
  /// mirrors the shard's per-source lookup; the batch overload is the
  /// allocation-light fast path. The readings must outlive the
  /// ProcessTick that follows.
  Status ResolveReadings(const std::map<int, Vector>& readings) {
    return ResolveReadings(&readings, nullptr);
  }
  Status ResolveReadings(const ReadingBatch& batch);

  /// One protocol tick over every tracked source on the readings the
  /// last ResolveReadings staged, bit-identical to the shard's
  /// per-source tick over the same ids: spilled sources run the verbatim
  /// per-source path, resident lanes run the flat suppressed-predict
  /// kernel (spilling first if the tick is anything but a suppressed
  /// healthy predict), and newly re-converged sources are absorbed at
  /// the end.
  Status ProcessTick(int64_t tick);

  /// Answer surface for resident sources (the shard routes here when the
  /// server has no predictor for the id). Bit-identical to what the
  /// ServerNode would produce for the same link state: H x and the
  /// projected covariance are read straight off the flat lane (P, or the
  /// frozen prior an armed lane defers) and the group's H and R, through
  /// the one projection kernel KalmanPredictor runs too
  /// (ProjectCovarianceInto).
  Vector Answer(const LaneRef& ref) const;
  ServerNode::ConfidentAnswer AnswerWithConfidence(const LaneRef& ref) const;
  bool answer_degraded(const LaneRef& ref) const;

  /// Checkpoint surface for resident sources: synthesizes the exact
  /// per-source snapshots a spilled run would capture. The mirror and
  /// predictor of a resident source are bitwise equal by construction,
  /// so both synthesized states carry the same filter bits.
  Result<SourceNode::CheckpointState> SynthesizeSourceState(
      const LaneRef& ref) const;
  ServerNode::LinkSnapshot SynthesizeLinkState(const LaneRef& ref) const;

  /// Checks the cached tick order against the residency maps: strictly
  /// ascending ids, one entry per tracked source, and each entry's
  /// group/lane equal to its resident lane (group -1 when spilled).
  /// Trivially OK while a membership change awaits the next rebuild.
  Status VerifyOrder() const;

 private:
  /// Phase / SsMode enum values mirrored from KalmanFilter::FullState's
  /// uint8_t encoding.
  static constexpr uint8_t kPhaseInitial = 0;
  static constexpr uint8_t kPhasePredicted = 1;
  static constexpr uint8_t kPhaseCorrected = 2;
  static constexpr uint8_t kSsTracking = 0;
  static constexpr uint8_t kSsArmPending = 1;
  static constexpr uint8_t kSsArmed = 2;

  /// The per-lane FullState counters a suppressed predict never touches
  /// (the frozen matrices beside them live in Group::cold).
  struct ColdCounters {
    int32_t ss_streak1 = 0;
    int32_t ss_streak2 = 0;
    int32_t ss_have_prev = 0;
    int32_t ss_pending_priors = 0;
    int32_t ss_capture_idx = 0;
    uint8_t has_innovation = 0;  // last_innovation holds m entries
  };

  /// One tracked source in the tick order (order_ below).
  struct TickEntry {
    int id = 0;
    SourceNode* node = nullptr;
    int32_t group = -1;  // -1 = spilled
    int32_t lane = 0;
    int64_t rank = -1;   // cached ReadingBatch position
  };

  /// All lanes sharing one model recipe. The per-model coefficients
  /// (phi, H, Q, R) are cached flat exactly once here — asserted
  /// bit-equal to the filter's own TransitionAt output at creation — and
  /// every per-lane quantity lives in a parallel array indexed by lane.
  struct Group {
    StateModel model;  // canonical recipe (server re-registration at spill)
    size_t n = 0;      // state dimension
    size_t m = 0;      // measurement dimension

    // Cached per-model coefficients, row-major flat.
    std::vector<double> phi;  // n x n
    std::vector<double> h;    // m x n
    std::vector<double> q;    // n x n
    std::vector<double> r;    // m x m

    // Hot SoA lane state (everything a suppressed predict touches).
    std::vector<int> ids;
    std::vector<double> x;        // n per lane
    std::vector<double> p;        // n*n per lane; invalid while p_stale
    std::vector<int64_t> step;
    std::vector<int64_t> psc;     // predicts_since_correct
    std::vector<uint8_t> phase;
    std::vector<uint8_t> ss_mode;
    std::vector<int32_t> ss_idx;
    std::vector<uint8_t> p_stale;  // armed lanes defer the frozen-P copy
    std::vector<double> delta;
    std::vector<int64_t> last_send_tick;
    std::vector<int64_t> readings;
    std::vector<double> energy_transmission;
    std::vector<double> energy_compute;
    std::vector<double> energy_sensing;
    // Server-side link bookkeeping (staleness / degraded accounting).
    std::vector<uint32_t> link_last_sequence;
    std::vector<int64_t> link_last_valid_tick;
    std::vector<int64_t> link_last_resync_tick;
    std::vector<int64_t> link_last_update_tick;
    std::vector<int32_t> ss_period;  // frozen-cycle length
    // The per-tick resolved reading pointer.
    std::vector<const Vector*> value_ptrs;

    // Cold per-lane record (docs/fleet.md "Batch layout"): the FullState
    // fields a suppressed predict never touches, flat and sized by n and
    // m — `cold_stride` doubles per lane, laid out as ss_prior_p[0..1],
    // ss_post_p[0..1], ss_prev_post[0..1] (n x n each), ss_gain[0..1],
    // ss_prev_gain (n x m each), last_innovation (m) — plus the counters.
    // Q and R are not copied per lane: absorption requires them bit-equal
    // to the group's flats above.
    size_t cold_stride = 0;
    std::vector<double> cold;
    std::vector<ColdCounters> cold_counters;

    // Replay filter: executes the rare arm-pending tick through the real
    // filter so the freeze transition stays bit-exact, trace included.
    std::optional<KalmanPredictor> replay;
  };

  /// The group for `model`, created on first use; -1 when the model is
  /// ineligible for batching (time-varying transition).
  Result<int> GroupFor(const StateModel& model);

  /// Reconstructs the lane's FullState (mirror == predictor bitwise).
  static KalmanFilter::FullState LaneFullState(const Group& g, size_t lane);

  /// The lane's covariance as its filter holds it (n x n, row-major):
  /// the flat `p`, or the frozen prior ss_prior_p[ss_idx] from the cold
  /// record while an armed lane defers that copy.
  static const double* LaneCovariance(const Group& g, size_t lane);

  /// Writes the cold fields of `full` into lane `lane`'s cold record.
  static void StoreCold(Group& g, size_t lane,
                        const KalmanFilter::FullState& full);

  /// Overlays the fields lane `lane` advances — the mirror
  /// (LaneFullState) and the accounting — onto `state`, its dormant
  /// SourceNode's export (which holds every field a lane never moves).
  static void OverlayLane(const Group& g, size_t lane,
                          SourceNode::CheckpointState* state);

  /// The server link lane `lane` stands for, all but its predictor
  /// (LaneFullState(g, lane) — the mirror's bits): `node` is the
  /// source's dormant SourceNode.
  static ServerNode::LinkSnapshot LaneLink(const SourceNode& node,
                                           const Group& g, size_t lane);

  /// ServerNode::OverdueTicks for a resident lane at the last completed
  /// tick: > 0 exactly when ServerNode::IsDegraded would hold.
  int64_t LaneOverdue(const Group& g, size_t lane) const;

  /// Moves a lane back to the per-source objects. When `reading` is
  /// non-null the spill happens mid-tick: the server predictor replays
  /// the predict it missed (TickAll ran before the lane loop) and the
  /// node processes this tick's reading verbatim.
  Status SpillLane(int group_index, size_t lane, int64_t tick,
                   const Vector* reading);

  /// Swap-removes lane `lane` from `g`, fixing the moved lane's ref.
  void RemoveLane(Group& g, size_t lane);

  /// Appends a lane built from a healthy source's snapshots; returns its
  /// index.
  size_t AddLane(Group& g, int source_id,
                 const SourceNode::CheckpointState& state,
                 const ServerNode::LinkSnapshot& link);

  /// End-of-tick scan: folds every spilled source whose link is healthy
  /// and bit-converged with no channel residue back into its group.
  Status TryAbsorbAll();

  /// Degraded-service accounting for resident lanes, replicating
  /// ServerNode::TickAll's previous-tick bookkeeping.
  void AccountDegradedLanes();

  /// Both ResolveReadings overloads: exactly one of `readings`/`batch`
  /// is non-null.
  Status ResolveReadings(const std::map<int, Vector>* readings,
                         const ReadingBatch* batch);

  /// Rebuilds the flat ascending-id iteration order after a membership
  /// change, carrying each surviving entry's batch rank over.
  void RebuildOrder();

  /// The order_ entry of tracked source `id` by binary search (order_ is
  /// ascending by id), so residency changes patch it in place; nullptr
  /// while a membership change awaits RebuildOrder.
  TickEntry* FindEntry(int id);

  /// Batch position of `id`, using (and lazily rebuilding, at most once
  /// per tick) the cached index; -1 when the batch has no entry.
  int64_t LookupBatchPos(const ReadingBatch& batch, int id, bool* rebuilt);

  /// The lane body on state dimension N (lane_kernel.h; N = 0 is a
  /// runtime n): the flat KalmanFilter::Predict replica into `s`, which
  /// commits nothing and is false when the prediction is non-finite;
  /// the max-abs deviation of H s.x from this tick's reading; and the
  /// commit of `s` into the lane.
  template <size_t N>
  static bool PredictLane(const Group& g, size_t lane, bool armed,
                          lane::Scratch<N>* s);
  template <size_t N>
  static double LaneDeviation(const Group& g, size_t lane,
                              const lane::Scratch<N>& s);
  template <size_t N>
  static void CommitPredict(Group& g, size_t lane, bool armed,
                            const lane::Scratch<N>& s);

  /// Accrues one suppressed tick's energy, reading count and trace.
  void AccountSuppressed(Group& g, size_t lane, int64_t tick,
                         double deviation);

  /// Ticks one resident lane at `lane` in group `gi`: flat suppressed
  /// predict or spill. Sets `*spilled` when the lane was removed (the
  /// caller must re-run the same index).
  template <size_t N>
  Status TickLane(int group_index, size_t lane, int64_t tick,
                  lane::Scratch<N>* s, bool* spilled);

  /// Ticks every lane of group `gi`, dispatching once on the group's
  /// state dimension. The dominant cases — no heartbeat due, the armed
  /// frozen-gain or the tracking-mode predict, deviation inside delta —
  /// run inline; everything exceptional falls back to TickLane, which
  /// recomputes from the untouched lane state (bit-exact: nothing is
  /// committed before the fallback decision).
  Status TickGroupLanes(int group_index, int64_t tick);
  template <size_t N>
  Status TickGroupLanesN(int group_index, int64_t tick);

  ServerNode* server_;
  Channel* channel_;
  ProtocolOptions protocol_;
  EnergyModelOptions energy_;
  TraceSink* obs_sink_ = nullptr;

  std::vector<std::unique_ptr<Group>> groups_;
  std::map<std::string, int> group_by_key_;

  /// Every tracked source, ascending (validation iterates this so the
  /// first missing reading reported matches the per-source path).
  std::map<int, SourceNode*> nodes_;
  /// Tracked id -> group index, or -1 when never batchable.
  std::map<int, int> eligible_group_;
  /// Currently resident sources and their lane.
  std::unordered_map<int, LaneRef> resident_;
  /// Currently spilled sources (ascending — per-source processing order).
  std::set<int> spilled_;

  /// One tracked source in the flat per-tick resolve pass: the maps
  /// above are authoritative for membership, but walking them per source
  /// per tick costs more than the batched predict itself, so the resolve
  /// loop runs over this ascending-id snapshot instead. Spills and absorbs
  /// patch their entries in place; only Track rebuilds it.
  std::vector<TickEntry> order_;
  bool order_dirty_ = true;

  /// Per-tick staging of spilled work, mirroring the shard's per-source
  /// staging.
  std::vector<std::pair<SourceNode*, const Vector*>> staged_spilled_;
  /// ReadingBatch id -> position cache (validated entry-wise per use).
  std::unordered_map<int, int64_t> batch_pos_;
  /// Scratch for TryAbsorbAll's one-pass channel residue scan.
  std::vector<int> residual_scratch_;

  int64_t degraded_ticks_ = 0;
  int64_t spills_ = 0;
};

}  // namespace dkf

#endif  // DKF_FLEET_FLEET_ENGINE_H_
