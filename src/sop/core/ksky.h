// K-SKY: the customized skyband scan (paper Sec. 3.1.2 / 3.2 / Alg. 1-2),
// generalized to the full SOP framework of Sec. 5 (arbitrary r, k, win and
// slide in one workload).
//
// For one point p and one swift-window boundary, K-SKY rebuilds p's LSky by
// scanning candidate points newest-first ("time-aware prioritization") and
// keeping each candidate iff it satisfies the Skyband Point Rule (Def. 6):
// with c = number of already-kept candidates at a layer <= its own,
//   (1) the candidate maps to a layer (distance <= r_max),
//   (2) c < k_max, and
//   (3) some k-group with k > c can still use it
//       (layer <= plan.MaxLayerForCount(c)).
//
// Candidate sets ("least examination", Alg. 1 lines 1-6):
//   * a point evaluated for the first time scans the whole swift window;
//   * a previously evaluated point scans only this batch's new arrivals
//     followed by the unexpired entries of its previous skyband — the only
//     points that can be skyband points now (paper Lemma 2); their cached
//     layers are reused, so no distance is recomputed.
//
// Termination. The scan stops as soon as layer 1 holds k_max entries:
// every remaining candidate x (older, layer >= 1) is then dominated by
// those k_max entries, so Def. 6 discards it, and — the part that matters
// for varying windows — x can never influence any query's answer in any
// window: the k_max dominators are newer than x, hence alive and inside
// every window that contains x, already saturating every (r, k) threshold
// at x's layer and beyond. This generalizes Alg. 1's "d <= r_min" rule.
// (The per-group termination of paper Example 3 additionally stops a group
// once its inlier status is decided; that shortcut is only sound when all
// windows are equal, so we do not use it in the general framework.)
//
// Dominance frontier. Let f be the first layer whose count of kept
// entries at layers <= f reaches k_max (L + 1 when none does). A
// candidate at layer >= f is dominated by at least k_max kept points, so
// Def. 6 discards it, and Examine does so without changing any state; the
// scan may therefore skip it, as long as it still counts it as consumed.
// Kernel blocks are compacted with d <= r_{f-1} (r_max while f = L + 1;
// nothing while f = 1, which needs early termination off, since layer-1
// saturation ends the scan first), and the re-admission pass skips
// previous entries whose cached layer is >= f. f is computed once per
// 64-candidate block and once before re-admission. Inside that span it
// can only go stale in the safe direction: kept entries only accumulate,
// so the true frontier only moves inward, and a candidate that passes the
// stale test is simply examined as before (rejected by Examine if it is
// dominated by now). Condition-3 rejections are left to Examine.
//
// Why LSky::CountWithin is an exact status test (generalized Lemma 3).
// Claim: for every query q(r, k) and every window w that is a suffix of the
// swift window, p has >= k neighbors within r inside w iff p's skyband
// contains >= k entries with layer <= layer(r) and key inside w.
// ("if" is immediate: entries are neighbors.) For "only if", let y be a
// neighbor of p inside w with layer l <= layer(r) that is NOT a skyband
// entry. Then y was either (a) scanned and discarded, (b) skipped by
// termination, (c) not in the candidate set of an incremental rescan, or
// (d) dropped from a previous skyband. In every case there were, at that
// moment, >= min(k_max, k) kept-or-then-skyband points newer than y with
// layer <= l; induction over (c)/(d) (a dropped point's dominators are
// newer still) yields >= k *current* skyband entries newer than y with
// layer <= l. Newer-than-y points inside the swift window are inside w
// whenever y is (w is a suffix), so the count already reaches k without y.
// Hence thresholding the skyband count is exact for every (r, k, w).
//
// Safe inliers (Sec. 3.2.2 / 4.1 / 4.2). Entries with seq > p.seq are p's
// *succeeding* neighbors: they can never expire before p. They form the
// leading prefix of the freshly built skyband (descending seq). If for
// every k-group g the prefix holds >= k(g) entries with
// layer <= min_layer(g), then every query classifies p as an inlier in
// every remaining window of p's life (Safe-For-All): p is excluded from
// all future evaluation and its evidence is released.

#ifndef SOP_CORE_KSKY_H_
#define SOP_CORE_KSKY_H_

#include <cstdint>
#include <vector>

#include "sop/common/dist_kernel.h"
#include "sop/common/distance.h"
#include "sop/common/fenwick.h"
#include "sop/core/lsky.h"
#include "sop/query/plan.h"
#include "sop/stream/stream_buffer.h"

namespace sop {

/// Statistics of one K-SKY scan (exposed for tests and ablations).
struct KSkyScanStats {
  /// Candidates whose distance was computed (new candidates only;
  /// re-admitted old skyband entries reuse their cached layer).
  int64_t distances_computed = 0;
  /// Candidates examined in total (distance-computed + cached).
  int64_t candidates_examined = 0;
  /// Whether the scan stopped early via layer-1 saturation.
  bool terminated_early = false;
  /// The oldest candidate whose distance the scan consumed, or
  /// buffer.next_seq() when it consumed none. The scan computed the
  /// distance to every seq in [oldest_computed, buffer.next_seq()) except
  /// p's own.
  Seq oldest_computed = 0;
};

/// The K-SKY scanner for one workload plan. Holds reusable scratch state;
/// create one per detector and call EvaluatePoint for each point each
/// batch. Not thread-safe.
class KSky {
 public:
  /// Tuning knobs for the ablation study (bench/ablation_sop). Defaults
  /// reproduce the paper's algorithm.
  struct Options {
    /// Stop the scan once layer 1 saturates (Alg. 1 lines 12-13).
    bool early_termination = true;
    /// Apply Def. 6 condition 3 (group-aware pruning); when off, keep
    /// every candidate dominated by fewer than k_max points (a plain
    /// (k_max-1)-skyband).
    bool condition3_pruning = true;
  };

  KSky(const WorkloadPlan* plan, DistanceFn dist) : KSky(plan, dist, Options()) {}
  KSky(const WorkloadPlan* plan, DistanceFn dist, Options options);

  /// Rebuilds `skyband` (p's LSky) for the swift window ending at
  /// `boundary`.
  ///
  /// `from_scratch` selects the candidate set: true scans the whole buffer
  /// (first evaluation of p), false scans this batch's arrivals
  /// [batch_first_seq, buffer.next_seq()) followed by the unexpired
  /// previous skyband entries. `skyband` is consumed and rebuilt in place.
  /// Returns true iff p is now a Safe-For-All inlier.
  bool EvaluatePoint(const Point& p, const StreamBuffer& buffer,
                     Seq batch_first_seq, int64_t swift_window_start,
                     bool from_scratch, LSky* skyband);

  /// Stats of the most recent EvaluatePoint call.
  const KSkyScanStats& last_stats() const { return stats_; }

  /// Re-sizes the per-layer scratch after the plan's basis was replaced
  /// (checkpoint restore adopting the serialized basis). Only legal
  /// between EvaluatePoint calls.
  void SyncPlanGeometry() { layer_counts_.Reset(plan_->num_layers()); }

 private:
  // Examines one candidate (Alg. 2, skyEvaluate): applies Def. 6 and
  // appends to build_. Returns false when the scan should terminate.
  bool Examine(Seq seq, int64_t key, int32_t layer);

  // Publishes the finished scan's stats to the observability registry
  // (ksky/* counters, kernel/hits, skyband-size histogram). Call only when
  // SOP_OBS_ENABLED(); never affects the scan result. `kernel_hits` counts
  // the r_max hits among the consumed block positions, `classified` the
  // hits that reached the layer lookup (both exclude p itself).
  void RecordScanObs(size_t skyband_size, uint64_t kernel_hits,
                     uint64_t classified) const;

  // Safe-For-All check over the freshly built skyband.
  bool IsSafeForAll(const Point& p, const LSky& skyband) const;

  const WorkloadPlan* plan_;
  DistanceFn dist_;
  DistanceKernel kernel_;  // batch form of dist_, over buffer.columns()
  Options options_;

  // Scratch reused across calls. `layer_counts_` is the paper's per-layer
  // cardinality table (Alg. 2), kept as a Fenwick tree for O(log L)
  // dominated-count queries; it is zeroed between points by undoing the
  // inserts recorded in build_.
  FenwickTree layer_counts_;
  int64_t layer1_count_ = 0;  // cardinality of layer 1 (termination check)
  std::vector<double> batch_dists_;  // per-block kernel output
  mutable std::vector<int64_t> req_counts_;  // per-safety-requirement counts
  LSky build_;                               // skyband under construction
  KSkyScanStats stats_;
};

}  // namespace sop

#endif  // SOP_CORE_KSKY_H_
