// K-SKY: the customized skyband scan (paper Sec. 3.1.2 / 3.2 / Alg. 1-2),
// generalized to the full SOP framework of Sec. 5 (arbitrary r, k, win and
// slide in one workload).
//
// For one point p and one swift-window boundary, K-SKY rebuilds p's
// evidence (LSky): per-layer counts of p's succeeding neighbours, and the
// skyband of its preceding ones. Preceding candidates are scanned
// newest-first ("time-aware prioritization"); each is kept iff it satisfies
// the Skyband Point Rule (Def. 6): with c = the number of succeeding
// neighbours plus already-kept preceding candidates at a layer <= its own,
//   (1) the candidate maps to a layer (distance <= r_max),
//   (2) c < k_max, and
//   (3) some k-group with k > c can still use it
//       (layer <= plan.MaxLayerForCount(c)).
// Succeeding candidates are not examined at all: each one inside the
// dominance frontier (below) adds one to its layer's count.
//
// Candidate sets ("least examination", Alg. 1 lines 1-6):
//   * a point evaluated for the first time counts the buffer's points newer
//     than it, then examines the older ones;
//   * a previously evaluated point starts from its succeeding counts,
//     counts only this batch's new arrivals (all newer than p), and, if
//     any arrival was counted, re-examines the unexpired entries of its
//     previous preceding skyband — the only older points that can be
//     skyband points now (paper Lemma 2); their cached layers are reused,
//     so no distance is recomputed. If no arrival was counted, the layer
//     table below every entry is the one the entries were decided against,
//     so the expired entries are kept as they are.
//
// Termination. The scan stops as soon as layer 1 holds k_max neighbours:
// every remaining candidate x (older, layer >= 1) is then dominated by
// those k_max points, so Def. 6 discards it, and — the part that matters
// for varying windows — x can never influence any query's answer in any
// window: the k_max dominators are newer than x, hence alive and inside
// every window that contains x, already saturating every (r, k) threshold
// at x's layer and beyond. This generalizes Alg. 1's "d <= r_min" rule.
// An incremental scan whose succeeding counts already saturate layer 1
// stops before its first arrival. (The per-group termination of paper
// Example 3 additionally stops a group once its inlier status is decided;
// that shortcut is only sound when all windows are equal, so we do not use
// it in the general framework.)
//
// Dominance frontier. Let f be the first layer whose count in the layer
// table at layers <= f reaches k_max (L + 1 when none does). A candidate
// at layer >= f is dominated by at least k_max points, so Def. 6 discards
// it and counting it would not change the truncated counts (Fact 4); the
// scan may therefore skip it, as long as it still counts it as consumed.
// The kernel marks the candidates whose key is <= K_{f-1} (see "Keys":
// K_L while f = L + 1, no key while f = 1, which needs early termination
// off, since layer-1 saturation ends the scan first); only those reach
// the layer lookup. The re-admission pass skips previous entries whose
// cached layer is >= f. Counting reads no table: its frontier is the
// seeds' truncation layer, L + 1 for a first scan or whenever the seeds
// sum below k_max, fixed while arrivals are counted. It is never inside
// the final truncation layer, since counting only adds to the seeds, and
// by Fact 4 the arrivals it lets through at or beyond that layer change
// no pair. The examine phase takes f from the table once per 64-candidate
// block and once before re-admission. Inside that span it can only go
// stale in the safe direction: the table only grows, so the true frontier
// only moves inward, and a candidate that passes the stale test is
// examined as before (rejected by Examine if it is dominated by now).
// Condition-3 rejections are left to Examine.
//
// Keys. The scan takes no root. For each 64-candidate block the kernel
// returns every candidate's key (query/plan.h, "Keys": the squared sum for
// Euclidean, the distance for Manhattan) and, from the same pass, the mask
// of keys <= the frontier's threshold. The plan's thresholds K_m are exact
// for every key: key <= K_m iff distance <= r_m. So the mask, each layer
// (WorkloadPlan::LayerOfKey) and kernel/hits (key <= K_L) are what the
// distances would give. The consume loop walks the mask's set bits,
// highest (newest) first.
//
// Why the evidence is an exact status test (generalized Lemma 3). Call the
// skyband S the set of p's alive neighbours a Def-6 scan of the whole swift
// window keeps, newest first, when each candidate's c counts the *kept*
// points newer than it. Claim: for every query q(r, k) and every window w
// that is a suffix of the swift window, p has >= k neighbours within r
// inside w iff S holds >= k points with layer <= layer(r) inside w. ("if"
// is immediate: kept points are neighbours.) For "only if", let y be a
// neighbour of p inside w with layer l <= layer(r) that is NOT in S. Then
// y was either (a) scanned and discarded, (b) skipped by termination, (c)
// not in the candidate set of an incremental rescan, or (d) dropped from a
// previous skyband. In every case there were, at that moment, >= min(k_max,
// k) kept-or-then-skyband points newer than y with layer <= l; induction
// over (c)/(d) (a dropped point's dominators are newer still) yields >= k
// *current* skyband points newer than y with layer <= l. Newer-than-y
// points inside the swift window are inside w whenever y is (w is a
// suffix), so the count already reaches k without y. Hence thresholding
// the skyband count is exact for every (r, k, w).
//
// Fact 1: succeeding neighbours outlive p and lie in every window that
// holds p. A neighbour y with seq > p.seq has key(y) >= key(p) (keys are
// monotone in seq), so it expires no earlier than p, and every window
// (a suffix of the swift window) that holds p holds y. No status test of p
// reads y's seq or key: only how many such neighbours p has per layer.
//
// Fact 2: a count over any set C of true neighbours of p that contains S
// gives the same Lemma-3 verdicts, and keeps Safe-For-All sound. For each
// (r, k, w), S's count <= C's count <= the true count, and by the claim
// S's count reaches k iff the true count does; so C's count reaches k iff
// the true count does. Safe-For-All read off C's succeeding part is sound
// because each of those points is a true neighbour that, by Fact 1, stays
// inside every window holding p for the rest of p's life. So p's evidence
// may count *every* succeeding neighbour within r_max, kept or not, and
// the counts never shrink while p lives.
//
// Fact 3: an older candidate x at layer l gets the same Def-6 decision
// under any count c between c_K, the kept points newer than x at layers
// <= l, and c_A, all of p's alive neighbours newer than x at layers <= l.
// If c_K = c_A there is nothing to show. Otherwise some newer neighbour y
// at layer l_y <= l was rejected with count c_y, taken over kept points
// newer than y at layers <= l_y (a y skipped by termination leaves c_K >=
// k_max, which rejects x outright). Those points are newer than x at
// layers <= l, so c >= c_K >= c_y. Either c_y >= k_max, and then c >= k_max
// rejects x too; or l_y > MaxLayerForCount(c_y), and then, since
// MaxLayerForCount does not grow with the count, l >= l_y >
// MaxLayerForCount(c) rejects x for every c < k_max (and c >= k_max
// rejects it anyway). In both cases every c in [c_K, c_A] rejects x, as
// c_K does. The scan examines x against all of p's succeeding neighbours
// (truncated, which changes no decision: see "Truncation" and Fact 5)
// plus the kept preceding points newer than x. Going newest first, the
// kept preceding points equal S's by induction, so that count lies in
// [c_K, c_A], and x gets exactly its decision in S: the preceding entries
// are S's preceding part, and with Fact 2 every verdict is exact.
//
// Truncation. The counts stop at the first layer f where their running
// sum reaches k_max, capped so that the sum is exactly k_max. Layers at or
// beyond f then hold >= k_max >= every k, before and after truncation:
// every candidate there is rejected by condition (2) either way, every
// Lemma-3 threshold at those layers is met either way, and every
// Safe-For-All requirement at those layers (k <= k_max) is met either way.
// So truncation changes no decision and no verdict, and it bounds the
// counts at k_max (layer, count) pairs, whatever L is.
//
// Merging the counts. Counting an arrival bumps its layer's pending count
// and marks the layer in a bitmap; nothing else. The new counts are the
// old pairs merged with the marked layers in ascending order, truncated at
// k_max: O(pairs + arrivals + bitmap words between the lowest and highest
// marked layer), with no sort. Only then does the layer table get the
// merged pairs, one update per pair (the kept pairs when no arrival was
// counted). Re-admission, the first scan's examine phase and the emission
// walk read that table, and by Fact 5 they read what they would read off
// the untruncated counts.
//
// Fact 4: the merged, truncated pairs do not depend on which arrivals at
// or beyond the final truncation layer were counted. Let A be the
// arrivals within r_max the scan consumes, and f* the truncation layer of
// the seeds plus A (the first layer where their running sum reaches
// k_max; L + 1 if none). Let C, a subset of A, be what was counted: every
// arrival of A below f*, and, when f* <= L, enough for the seeds plus C to
// reach k_max at f*. Below f* the seeds plus C and the seeds plus A hold
// equal counts, whose running sums stay below k_max; at f* both reach
// k_max, and truncation caps that pair at k_max minus the sum below it;
// beyond f* neither keeps a pair. So their truncated pairs are equal. The
// counting frontier f_s, the seeds' truncation layer, counts such a C:
// f_s >= f*, so every arrival below f* is inside it; and an arrival at f*
// outside it means f* >= f_s, so f_s = f* and the seeds alone reach k_max
// there. Hence a frontier that never tightens while counting changes no
// pair.
//
// Fact 5: a table over the truncated pairs has the prefix sums of a table
// over the untruncated counts (the seeds plus every counted arrival)
// below the truncation layer f, since truncation only caps the pair at f,
// and both reach k_max or more at f and beyond. Both get the same entries
// on top. Examine compares a prefix sum with k_max and, below it, reads
// MaxLayerForCount of it; a dominance frontier is LowerBound(k_max); an
// emission test is LowerBound(k) with k <= k_max. Each reads equal values
// below f and values >= k_max in both from f on. So every Examine
// decision, every dominance frontier and every emission is unchanged.
//
// Fact 6: the counting frontier does not change which candidates a scan
// consumes. A scan ends early only on layer-1 saturation. Every layer-1
// arrival is inside the counting frontier: f_s > 1 unless the seeds
// saturate layer 1, and then the scan ends before its first arrival (or,
// with early termination off, never ends). So the layer-1 count grows
// arrival by arrival as if every neighbour were counted, and every scan
// consumes the same candidates, computes the same keys and terminates at
// the same one, whatever it counted beyond f*.
//
// Emission frontier. When the scan ends, the layer table holds p's
// succeeding pairs plus the rebuilt preceding entries (an incremental
// scan that counted no arrival adds its kept entries first). So the
// Lemma-3 test of every due query comes straight from the table: the
// caller groups the due queries by (window start, k), widest window
// first, with ascending layers inside each group. For each group whose
// window holds p, the scan removes the entries older than the window's
// start (the preceding skyband's tail, oldest first) and reads f =
// LowerBound(k), the first layer whose count reaches k; p is an outlier
// for exactly the group's queries at layers < f. The succeeding pairs
// stay: by Fact 1 they lie in every window that holds p. Windows are
// suffixes of the swift window, so each group only removes entries; a
// group whose window misses p ends the walk, since every later window is
// shorter.
//
// Resetting the table. The table must be zero before the next point. It
// holds one update per pair and per entry left after the emission walk;
// undoing those touches about log2(L) words each, while a clear writes
// L + 1 words. The scan takes whichever is fewer: large skybands over few
// layers clear, small skybands over thousands of layers (Fig. 13) undo.
// The pending counts are cleared through the bitmap, one write per marked
// layer and per marked word.
//
// Safe inliers (Sec. 3.2.2 / 4.1 / 4.2). By Fact 1 p's succeeding
// neighbours can never expire before p. If for every k-group g the
// succeeding counts hold >= k(g) neighbours at layers <= min_layer(g), then
// every query classifies p as an inlier in every remaining window of p's
// life (Safe-For-All): p is excluded from all future evaluation and both
// parts of its evidence are released. The check is one pass over the
// counts against the plan's requirement staircase.

#ifndef SOP_CORE_KSKY_H_
#define SOP_CORE_KSKY_H_

#include <cstdint>
#include <span>
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
  /// Candidates whose distance was computed (buffer candidates only;
  /// re-admitted preceding entries reuse their cached layer).
  int64_t distances_computed = 0;
  /// Candidates consumed in total (distance-computed + cached).
  int64_t candidates_examined = 0;
  /// Whether the scan stopped early via layer-1 saturation.
  bool terminated_early = false;
};

/// The K-SKY scanner for one workload plan. Holds reusable scratch state;
/// create one per detector lane and call EvaluatePoint for each point each
/// batch. Not thread-safe.
class KSky {
 public:
  /// Tuning knobs for the ablation study (bench/ablation_sop). Defaults
  /// reproduce the paper's algorithm.
  struct Options {
    /// Stop the scan once layer 1 saturates (Alg. 1 lines 12-13).
    bool early_termination = true;
    /// Apply Def. 6 condition 3 (group-aware pruning); when off, keep
    /// every preceding candidate dominated by fewer than k_max points (a
    /// plain (k_max-1)-skyband).
    bool condition3_pruning = true;
  };

  /// The due queries of one boundary, grouped for the emission frontier.
  /// Slot i is the i-th due query; the groups cover the slots in order.
  struct Emission {
    struct Group {
      int64_t start;    // window start key, ascending across groups
      int64_t k;
      size_t slot_end;  // one past the group's last slot
    };
    std::vector<Group> groups;
    std::vector<int> layers;  // per slot; ascending inside each group
  };

  KSky(const WorkloadPlan* plan, DistanceFn dist) : KSky(plan, dist, Options()) {}
  KSky(const WorkloadPlan* plan, DistanceFn dist, Options options);

  /// Rebuilds `skyband` (p's LSky) for the swift window ending at
  /// `boundary`.
  ///
  /// `from_scratch` selects the candidate set: true counts the buffer's
  /// points newer than p and examines the older ones (first evaluation of
  /// p; `skyband`'s previous contents are ignored), false counts this
  /// batch's arrivals [batch_first_seq, buffer.next_seq()) into p's
  /// succeeding counts and re-examines the unexpired preceding entries.
  /// `skyband` is rebuilt in place. With an `emission`, p.seq is then
  /// appended to `(*outliers)[slot]` for every due query that reports p
  /// (see "Emission frontier"). Returns true iff p is now a Safe-For-All
  /// inlier.
  bool EvaluatePoint(const Point& p, const StreamBuffer& buffer,
                     Seq batch_first_seq, int64_t swift_window_start,
                     bool from_scratch, LSky* skyband,
                     const Emission* emission = nullptr,
                     std::vector<std::vector<Seq>>* outliers = nullptr);

  /// Stats of the most recent EvaluatePoint call.
  const KSkyScanStats& last_stats() const { return stats_; }

 private:
  // Counts one succeeding neighbour at `layer` into the pending counts.
  // Returns false when the scan should terminate.
  bool Count(int32_t layer);

  // Examines one preceding candidate (Alg. 2, skyEvaluate): applies Def. 6
  // and appends to build_. Returns false when the scan should terminate.
  bool Examine(Seq seq, int64_t key, int32_t layer);

  // Merges `seeds` with the pending counts into build_'s succeeding
  // counts, truncated at k_max (see "Merging the counts").
  void MergeCounts(std::span<const LayerCount> seeds);

  // Publishes the finished scan's stats to the observability registry
  // (ksky/* counters, kernel/hits, skyband-size histogram). Call only when
  // SOP_OBS_ENABLED(); never affects the scan result. `kernel_hits` counts
  // the r_max hits among the consumed block positions, `classified` the
  // hits that reached the layer lookup.
  void RecordScanObs(size_t skyband_size, uint64_t kernel_hits,
                     uint64_t classified) const;

  // Safe-For-All check over p's succeeding counts.
  bool IsSafeForAll(const LSky& skyband) const;

  // The emission walk (see "Emission frontier") for p = seq with window
  // key `key`. The table holds preceding entries [0, counted) on entry;
  // returns how many it holds on exit.
  size_t ClassifyForEmission(Seq seq, int64_t key, const LSky& skyband,
                             size_t counted, const Emission& emission,
                             std::vector<std::vector<Seq>>* outliers);

  // Zeroes the layer table, which holds `skyband`'s pairs and preceding
  // entries [0, counted), and clears the pending counts.
  void ResetLayerTable(const LSky& skyband, size_t counted);

  const WorkloadPlan* plan_;
  DistanceFn dist_;
  DistanceKernel kernel_;  // batch form of dist_, over buffer.columns()
  Options options_;

  // Scratch reused across calls. `layer_counts_` is the paper's per-layer
  // cardinality table (Alg. 2), kept as a Fenwick tree for O(log L)
  // dominated-count queries; it is zero between points (see "Resetting
  // the table").
  FenwickTree layer_counts_;
  // Untruncated cardinality of layer 1 (termination check).
  int64_t layer1_count_ = 0;
  std::vector<double> block_keys_;  // per-block kernel keys
  // Arrivals counted this scan, per layer (see "Merging the counts"):
  // `pending_[l]` is layer l's count and bit l of `touched_` is set iff it
  // is nonzero; the marked words lie in [touched_lo_, touched_hi_], which
  // is empty (lo > hi) iff nothing was counted. All zero between points.
  std::vector<int32_t> pending_;
  std::vector<uint64_t> touched_;
  size_t touched_lo_ = SIZE_MAX;
  size_t touched_hi_ = 0;
  LSky build_;  // evidence under construction
  KSkyScanStats stats_;
};

}  // namespace sop

#endif  // SOP_CORE_KSKY_H_
