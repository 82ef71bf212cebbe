// SopSession: a long-running detection session whose workload can change
// while the stream flows.
//
// The paper's motivating scenario has analysts submitting and retiring
// outlier requests continuously. SopSession realizes each workload change
// by one rule (DESIGN.md Sec. 14):
//
//   1. Overlay swap — when the default SopDetector is in use and its live
//      basis covers the new workload (remove any query; add a query whose
//      r is an existing layer, k fits the k envelope and win fits the
//      swift window), the per-query overlay is recompiled in place between
//      batches: no rebuild, no history replay, O(|queries|) cost. The
//      session always compiles the elastic basis (WorkloadPlan) precisely
//      so this path covers every same-layer add.
//   2. Rebuild-and-replay — anything else (basis growth, custom
//      DetectorBuilder hooks): compile a fresh detector and replay the
//      retained history window through it, so a freshly added query
//      immediately sees a fully populated window (up to the retention
//      limit) instead of starting cold.
//
// Queries are addressed by stable ids that survive other queries'
// removal; results carry those ids.
//
// By default the session compiles SopDetector (the paper's algorithm); a
// DetectorBuilder hook swaps in any OutlierDetector factory (the serving
// layer, net/server.h, uses it to host every detector the string factory
// knows other than sop). Workload changes under a builder hook are always
// realized as rebuild-and-replay, so the hook needs nothing beyond plain
// Advance() from the detector.
//
// SaveState/LoadState serialize the session — registered queries and its
// StreamTail (stream position and retained history) — as one framed,
// CRC-checked blob (common/frame.h). A restored session rebuilds its
// detector lazily by replaying that history, under the elastic basis of
// the restored queries.

#ifndef SOP_CORE_SESSION_H_
#define SOP_CORE_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sop/core/sop_detector.h"
#include "sop/query/workload.h"
#include "sop/stream/stream_tail.h"

namespace sop {

/// Stable identifier of a registered query within a session.
using QueryId = int64_t;

/// One emission of one registered query.
struct SessionResult {
  QueryId query_id = 0;
  int64_t boundary = 0;
  std::vector<Seq> outliers;
  /// True when the delivery path knows this answer's window overlaps data
  /// that was lost (e.g. the serving layer shed emissions under overload).
  /// Set by session hosts, never by the session itself.
  bool degraded = false;
};

/// Builds the detector a session compiles its current workload into.
using DetectorBuilder =
    std::function<std::unique_ptr<OutlierDetector>(const Workload&)>;

/// Callback receiving each due query's emission, mirroring the engine's
/// ResultSink (detector/engine.h) for streaming consumption.
using SessionResultSink = std::function<void(const SessionResult&)>;

/// How the session has realized workload changes so far (also exported as
/// session/change/{overlay,rebuild} and session/replayed_* obs counters).
struct SessionChangeStats {
  /// Changes applied as in-place overlay swaps (or by dropping the last
  /// query): no detector rebuild, no history replay.
  uint64_t overlay_changes = 0;
  /// Rebuild-and-replay realizations, the first compile included.
  uint64_t rebuilds = 0;
  /// History batches / points re-advanced by those rebuilds.
  uint64_t replayed_batches = 0;
  uint64_t replayed_points = 0;
};

/// Dynamic multi-query outlier detection session. Not thread-safe.
class SopSession {
 public:
  /// `history_window` bounds how much stream history (in window-key units)
  /// is retained for replay when the workload changes; queries with larger
  /// windows still work but start with partially populated windows after a
  /// change. Pass the largest window you expect to register.
  SopSession(WindowType window_type, Metric metric, int64_t history_window);

  /// Registers a query; takes effect at the next Advance call. The query
  /// must validate against an empty workload's rules (positive r/k/win/
  /// slide; full attribute space only).
  QueryId AddQuery(const OutlierQuery& query);

  /// Unregisters a query. Returns false if the id is unknown.
  bool RemoveQuery(QueryId id);

  size_t num_queries() const { return registered_.size(); }

  /// Ids of every registered query, ascending.
  std::vector<QueryId> RegisteredQueryIds() const;

  /// The parameters of registered query `id`; nullptr when unknown. The
  /// pointer is invalidated by the next Add/RemoveQuery or LoadState.
  const OutlierQuery* FindQuery(QueryId id) const;

  /// The last boundary Advance accepted — INT64_MIN before the first batch.
  /// Survives SaveState/LoadState, as does every CheckBatch rule.
  int64_t last_boundary() const { return tail_.last_boundary(); }

  /// The arrival sequence number the next accepted point will get — equal
  /// to the total number of points ever accepted. Survives SaveState/
  /// LoadState; the serving layer reports it in acks so a scale-out router
  /// can keep its local->global sequence maps anchored (cluster/router.h).
  Seq next_seq() const { return tail_.next_seq(); }

  /// Replaces the detector factory (default: SopDetector on the elastic
  /// basis). Takes effect at the next rebuild; call before the first
  /// Advance for a uniform run. Sessions with a builder hook always
  /// realize workload changes as rebuild-and-replay (the hook's detectors
  /// are opaque); pass nullptr to return to the default SopDetector and
  /// its overlay swaps.
  void SetDetectorBuilder(DetectorBuilder builder);

  /// How workload changes have been realized so far.
  const SessionChangeStats& change_stats() const { return change_stats_; }

  /// Why Advance must refuse `batch` at `boundary`, or "" (StreamTail::
  /// Check). The first accepted point fixes the stream's dimensionality
  /// even with no query registered (history replays into later detectors).
  std::string CheckBatch(const std::vector<Point>& batch,
                         int64_t boundary) const {
    return tail_.Check(batch, boundary);
  }

  /// Feeds a batch ending at `boundary` (boundaries must be multiples of
  /// every registered slide's gcd — use slide values with a common
  /// quantum). Unlike OutlierDetector::Advance, the session assigns the
  /// points' arrival sequence numbers itself (any incoming seq values are
  /// overwritten); results refer to those assigned seqs, 0-based from the
  /// session's first point. Returns the emissions of every registered
  /// query due at `boundary`. The batch must pass CheckBatch.
  std::vector<SessionResult> Advance(std::vector<Point> batch,
                                     int64_t boundary);

  /// Sink-style variant of Advance: instead of materializing a vector,
  /// invokes `sink` once per due query's emission (in ascending query-id
  /// order), matching the engine's ResultSink shape. Same contract as the
  /// vector overload otherwise.
  void Advance(std::vector<Point> batch, int64_t boundary,
               const SessionResultSink& sink);

  /// Approximate evidence + history bytes held.
  size_t MemoryBytes() const;

  /// Serializes the session — configuration guards, registered queries,
  /// stream position, retained history — into one framed, checksummed
  /// blob.
  std::string SaveState() const;

  /// Restores a SaveState blob into a freshly constructed session whose
  /// constructor arguments (window type, metric, history window) match the
  /// saved ones. The detector is rebuilt lazily on the next Advance by
  /// replaying the restored history. Returns false with a diagnostic in
  /// `*error` (if non-null) on corruption, version or configuration
  /// mismatch, leaving the session unchanged.
  bool LoadState(std::string_view bytes, std::string* error = nullptr);

 private:
  // Realizes pending workload changes (dirty_): an overlay swap when the
  // live basis covers them, else a rebuild. Called by Advance after the
  // live batch joined the tail, so a rebuild replays exactly the batches
  // kept at the live boundary and the live batch is advanced once, by the
  // new detector.
  void ApplyWorkloadChange();

  // Rebuilds detector_ from the registered queries and replays every
  // retained batch but the newest (the live one) through it.
  void Rebuild();

  // Builds the current workload; fills `ids` with the id of each workload
  // index.
  Workload BuildWorkload(std::vector<QueryId>* ids) const;

  Metric metric_;
  int64_t history_window_;
  QueryId next_id_ = 1;
  std::map<QueryId, OutlierQuery> registered_;  // insertion-ordered by id
  bool dirty_ = false;  // workload changed since detector_ was built
  StreamTail tail_;

  DetectorBuilder builder_;  // null = build SopDetector
  std::unique_ptr<OutlierDetector> detector_;
  SopDetector* sop_detector_ = nullptr;  // detector_, iff default-built
  std::vector<QueryId> detector_query_ids_;  // workload index -> id
  SessionChangeStats change_stats_;
};

}  // namespace sop

#endif  // SOP_CORE_SESSION_H_
