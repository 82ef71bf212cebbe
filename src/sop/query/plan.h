// WorkloadPlan: the compiled form of a workload used by the SOP core.
//
// This is the paper's "query parser" output (Fig. 6), split into two
// halves with very different lifetimes (DESIGN.md Sec. 14):
//
//   * The BASIS is the immutable evidence contract: the sorted unique r
//     values (the layers of the normalized distance, Def. 4), the k
//     envelope, the Def-6 skyband-point pruning table, the Safe-For-All
//     staircase, and the swift-window size (Sec. 4). Everything that
//     decides which evidence K-SKY keeps or irreversibly discards lives
//     here. A detector's skybands are only meaningful relative to the
//     basis they were built under, so the basis never changes in place.
//
//   * The OVERLAY is the cheaply recompilable per-query view: query ->
//     layer/k-group maps, the emission sweep order, the slide gcd. It
//     only decides how kept evidence is *read* at emission time, so it
//     can be swapped between batches without touching detector state.
//
// A workload change is checked against the basis (Covers): a change every
// query of which the basis covers is overlay-only (by the generalized
// Lemmas 1-3, see ksky.h, the live skybands are already sufficient
// evidence); anything else, a new layer, a deeper k, a wider window or a
// structural change, needs a new basis and therefore rebuild-and-replay
// (normalized-distance bucketing changes, and skyband pruning may have
// discarded now-needed evidence). Whoever compiles the plan picks one of
// two fixed basis policies: the exact paper basis, or the elastic basis
// that keeps every layer to the full k envelope so every same-layer add
// within it stays overlay-only.

#ifndef SOP_QUERY_PLAN_H_
#define SOP_QUERY_PLAN_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sop/common/check.h"
#include "sop/query/workload.h"

namespace sop {

/// Immutable plan compiled from a validated workload whose queries all use
/// the same attribute set (multi-attribute workloads are split upstream;
/// see core/multi_attribute.h).
class WorkloadPlan {
 public:
  /// One Safe-For-All requirement: the point must have at least `k`
  /// succeeding neighbours with layer <= `layer` (DESIGN.md Sec. 4.3).
  struct SafetyRequirement {
    int layer;
    int64_t k;

    friend bool operator==(const SafetyRequirement&,
                           const SafetyRequirement&) = default;
  };

  /// The immutable evidence contract (see file comment). Self-contained
  /// and serializable: two detectors with equal bases make identical
  /// evidence keep/discard decisions.
  struct Basis {
    std::vector<double> layer_r;  // ascending unique r values
    int64_t win = 0;              // swift-window size (envelope)
    /// Def. 6 condition 3 table, indexed by dominated count; its size IS
    /// the k envelope (k_max).
    std::vector<int> max_layer_for_count;
    /// The Safe-For-All staircase, ascending in both layer and k.
    std::vector<SafetyRequirement> safety_requirements;

    int num_layers() const { return static_cast<int>(layer_r.size()); }
    int64_t k_max() const {
      return static_cast<int64_t>(max_layer_for_count.size());
    }

    /// Normalized distance of `d` (Def. 4): the 1-based layer index m with
    /// r_{m-1} < d <= r_m, or num_layers()+1 when d exceeds every r. NaN
    /// is nobody's neighbor: it lands beyond every layer too. This is the
    /// O(log L) reference; the scan uses WorkloadPlan::LayerOfKey.
    int LayerOfDistance(double d) const {
      return LayerBelow(layer_r.data(), 0, layer_r.size(), d);
    }

    /// 1 + lo + the number of thresholds r[i], i in [lo, lo + len), that
    /// lie below `d`, for ascending `r`. A threshold lies below d iff
    /// !(r >= d), which also holds for every r when d is NaN. Branch-free
    /// lower bound; `len` may be 0.
    static int LayerBelow(const double* r, size_t lo, size_t len, double d) {
      const double* first = r + lo;
      while (len > 1) {
        const size_t half = len / 2;
        first += !(first[half - 1] >= d) ? half : 0;
        len -= half;
      }
      return static_cast<int>(first - r) +
             (len != 0 && !(first[0] >= d) ? 1 : 0) + 1;
    }

    /// The 1-based layer whose r equals `r` exactly, or 0 when `r` is not
    /// a layer of this basis.
    int LayerOfRadius(double r) const;

    /// True iff this basis retains sufficient evidence to answer `q`
    /// exactly: q.r is an existing layer, q.k fits the envelope, q.win
    /// fits the swift window, the Def-6 table never prunes evidence q
    /// needs, and released Safe-For-All inliers are inliers for q too.
    /// A covered query can be added (and any query removed) without
    /// rebuilding the detector (DESIGN.md Sec. 14.2).
    bool Covers(const OutlierQuery& q) const;

    friend bool operator==(const Basis&, const Basis&) = default;
  };

  /// Compiles `workload` with the exact paper basis, or with the elastic
  /// one when `elastic`: every layer is then provisioned to the full k
  /// envelope, so the basis keeps the plain (k_max - 1)-skyband of Lemma 1
  /// instead of the workload-pruned Def-6 subset, and Safe-For-All
  /// tightens to the one requirement every covered future query can rely
  /// on. Any add whose r is an existing layer, k fits the envelope and win
  /// fits the swift window is then covered. Check-fails if the workload is
  /// invalid or mixes attribute sets.
  explicit WorkloadPlan(Workload workload, bool elastic = false);

  const Workload& workload() const { return workload_; }
  const Basis& basis() const { return basis_; }

  /// True iff `next` can replace this plan's workload as an overlay swap:
  /// it is a valid, non-empty workload with the same window type, metric
  /// and attribute set, and the basis covers every one of its queries.
  bool Covers(const Workload& next) const;

  /// Recompiles the overlay for `next` against the unchanged basis.
  /// Returns false (plan unchanged) unless Covers(next).
  bool ApplyOverlay(Workload next);

  /// Number of normalized-distance layers L (== distinct r values of the
  /// workload the basis was compiled for).
  int num_layers() const { return basis_.num_layers(); }
  /// The r threshold of 1-based layer `m`.
  double r_of_layer(int m) const {
    return basis_.layer_r[static_cast<size_t>(m - 1)];
  }
  /// Smallest r in the basis (the global termination radius, Alg. 1).
  double r_min() const { return basis_.layer_r.front(); }
  /// Largest r in the basis (Def. 5 condition 3 cutoff).
  double r_max() const { return basis_.layer_r.back(); }

  /// Number of k-groups G (== distinct k values of the real queries),
  /// ascending.
  int num_groups() const { return static_cast<int>(group_k_.size()); }
  /// The k of 0-based group `g`.
  int64_t k_of_group(int g) const { return group_k_[static_cast<size_t>(g)]; }
  /// The k envelope: the largest k the basis retains evidence for (the
  /// compiled workload's largest k).
  int64_t k_max() const { return basis_.k_max(); }

  /// The key threshold of 1-based layer `m`: the largest double s with
  /// DistanceOfKey(s) <= r_m (see "Keys" below).
  double key_of_layer(int m) const {
    return layer_key_[static_cast<size_t>(m - 1)];
  }

  /// The distance a kernel key stands for (common/dist_kernel.h): sqrt(s)
  /// for Euclidean, which IEEE rounds correctly and so equals DistanceFn,
  /// and s itself for Manhattan.
  double DistanceOfKey(double s) const {
    return workload_.metric() == Metric::kEuclidean ? std::sqrt(s) : s;
  }

  /// Normalized distance (Def. 4) of a kernel key `s`: equal to
  /// basis().LayerOfDistance(DistanceOfKey(s)) for every key (see "Keys"
  /// below), but O(1) for workloads whose key thresholds are spread out
  /// (see the bucket map below).
  int LayerOfKey(double s) const {
    const size_t b = BucketOf(s);
    const size_t lo = bucket_first_[b];
    const int layer = Basis::LayerBelow(layer_key_.data(), lo,
                                        bucket_first_[b + 1] - lo, s);
    SOP_DCHECK(layer == basis_.LayerOfDistance(DistanceOfKey(s)));
    return layer;
  }

  /// Layer of query `i`'s exact r value (1-based).
  int layer_of_query(size_t i) const { return query_layer_[i]; }
  /// Group of query `i`'s k value (0-based).
  int group_of_query(size_t i) const { return query_group_[i]; }

  /// Smallest layer among the queries of group `g`: the binding prefix for
  /// the Safe-For-All check (DESIGN.md Sec. 4.3).
  int min_layer_of_group(int g) const {
    return group_min_layer_[static_cast<size_t>(g)];
  }
  /// Largest layer among the queries of group `g`.
  int max_layer_of_group(int g) const {
    return group_max_layer_[static_cast<size_t>(g)];
  }

  /// Def. 6 condition 3: the deepest layer at which a candidate already
  /// dominated by `count` points can still be a skyband point, i.e.
  /// max{ max_layer(g) : k(g) > count } over the basis demands. Returns 0
  /// when no demand can use such a candidate. Requires 0 <= count <
  /// k_max().
  int MaxLayerForCount(int64_t count) const {
    SOP_DCHECK(count >= 0 && count < k_max());
    return basis_.max_layer_for_count[static_cast<size_t>(count)];
  }

  /// The pruned Safe-For-All requirement staircase: ascending in both
  /// `layer` and `k`, implied requirements removed. A point is a
  /// Safe-For-All inlier iff its succeeding counts (core/lsky.h) satisfy
  /// every requirement.
  const std::vector<SafetyRequirement>& safety_requirements() const {
    return basis_.safety_requirements;
  }

  /// Swift-query window size: the compiled workload's largest query window
  /// (Sec. 4.1).
  int64_t win_max() const { return basis_.win; }
  /// Swift-query slide: gcd of the query slides (Sec. 4.2).
  int64_t slide_gcd() const { return slide_gcd_; }

  /// Query indices in emission-frontier order (core/ksky.h): descending
  /// window (windows are suffixes of the swift window, so ascending window
  /// start), then ascending k, then ascending layer. The due queries of a
  /// boundary that share (win, k) are consecutive in it.
  const std::vector<size_t>& emission_order() const { return emission_order_; }

 private:
  // Validates workload_ for plan compilation (single attribute set).
  void ValidateWorkload() const;
  // Recomputes every overlay field from workload_ against basis_.
  void CompileOverlay();
  // Derives layer_key_ from basis_.layer_r and the metric, then the
  // bucket map over it.
  void CompileKeys();

  // The bucket of `x`: floor(x * s) clamped to [0, B]. Compares before it
  // converts, so a NaN, infinite or out-of-range product is never
  // converted; NaN lands in the top bucket.
  size_t BucketOf(double x) const {
    const double t = x * bucket_scale_;
    return t < bucket_limit_ ? (t > 0 ? static_cast<size_t>(t) : 0)
                             : bucket_top_;
  }

  Workload workload_;
  Basis basis_;

  // Keys. The kernel's key of a pair (common/dist_kernel.h) is its
  // accumulator before the root: s = sum (a_i - b_i)^2 in attribute order
  // for Euclidean, whose distance is root(s) = sqrt(s), and the distance
  // itself for Manhattan, whose root is the identity. Every term is a
  // square or an absolute value and the sum starts at +0, so a key is +0,
  // positive, +inf or NaN. layer_key_[m - 1] = K_m, the largest double s
  // with root(s) <= r_m; it exists, since root(+0) = +0 < r_m and the
  // doubles are finite. Claim: for every key s, s <= K_m iff root(s) <=
  // r_m. If s <= K_m, then root(s) <= root(K_m) <= r_m, because IEEE sqrt
  // rounds correctly and is therefore non-decreasing over [-0, +inf]. If
  // s > K_m, then root(s) > r_m by K_m's maximality. A NaN key fails both
  // sides. So the lower bound over the K_m (a K_m lies below s iff
  // !(K_m >= s)) returns the reference layer of root(s), NaN included,
  // even where two K_m coincide (two r values so small that their squares
  // underflow alike). Negative keys do not exist; their sqrt is NaN, so
  // they are outside the claim. K_m comes from fl(r_m * r_m): the walk
  // steps down while root(s) > r_m, then up while the next double's root
  // is still <= r_m. Near r^2, consecutive doubles' roots differ by about
  // half an ulp of r, so fl(r^2), within half an ulp of r^2, is a step or
  // two from K_m. r_m = +inf gives +inf, and an r_m whose square overflows
  // steps once, from +inf to DBL_MAX. fl(r_m * r_m) itself is not K_m in
  // general: for r uniform in [200, 800), K_m lies one ulp above it about
  // half the time, and a pair whose key is K_m is at distance exactly r_m.
  // The keys depend only on the basis and the metric, and an overlay swap
  // keeps both, so they are compiled once per plan.
  std::vector<double> layer_key_;

  // Bucket map: O(1) LayerOfKey, over the key thresholds. B buckets (the
  // next power of two >= 4L, capped) split [0, K_L] evenly at scale
  // s = B / K_L, and bucket_first_[b] = #{i : bucket(K_i) < b} for b in
  // [0, B + 1]. LayerOfKey(x) runs the lower bound over the K_i in
  // bucket(x) only. Input domain: every double, not only keys (the scan
  // passes hits, 0 <= x <= K_L). Exact because bucket() is non-decreasing
  // over the non-NaN doubles: every K_i before the range lies below x and
  // every K_i after it lies above x. NaN takes the top bucket, whose range
  // runs to K_L, so every K_i counts as below it, as in the reference.
  // K_L = +inf (r_max = +inf) would make s = 0 (and -inf * 0 a NaN), so s
  // is floored at the smallest positive double; a K_L that is 0 or
  // denormal makes s = +inf, which maps every x >= 0 (0 * inf is NaN) to
  // the top bucket: a plain lower bound over all layers. Euclidean keys
  // crowd the buckets of the inner layers (K_m grows as r_m^2); that
  // costs lookups, not exactness.
  double bucket_scale_ = 0.0;  // s
  double bucket_limit_ = 0.0;  // B, as a double
  size_t bucket_top_ = 0;      // B
  std::vector<uint32_t> bucket_first_;

  // Overlay: recompiled wholesale by CompileOverlay.
  std::vector<int64_t> group_k_;      // ascending unique real k values
  std::vector<int> query_layer_;      // per query, 1-based
  std::vector<int> query_group_;      // per query, 0-based
  std::vector<int> group_min_layer_;  // per group
  std::vector<int> group_max_layer_;  // per group
  std::vector<size_t> emission_order_;
  int64_t slide_gcd_ = 0;
};

}  // namespace sop

#endif  // SOP_QUERY_PLAN_H_
