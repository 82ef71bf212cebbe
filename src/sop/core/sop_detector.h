// SopDetector: the paper's SOP framework (Fig. 6 / Alg. 3) — the
// sharing-aware multi-query outlier detector this repository reproduces.
//
// One swift skyband query answers the whole workload: per batch (one swift
// slide), every alive, non-safe point gets one K-SKY scan that rebuilds its
// LSky; at each emission boundary, each due query classifies each in-window
// point with one thresholded count over that point's LSky. CPU is shared
// (each point scanned once per slide for all queries) and memory is shared
// (one skyband per point for all queries).
//
// Point lanes. Both per-point loops of a batch — the K-SKY scans and the
// emission sweep — are independent across points: each point owns its
// skyband, and only the scan and sweep scratch is shared. A large batch
// therefore runs them on lanes (common/thread_pool.h RunLanes): one per
// hardware thread, each with its own KSky and sweep table. Scans are
// pulled in small chunks from a shared cursor; the sweep gives each lane a
// contiguous range of the non-safe points and joins the per-query outlier
// lists in lane order. Every output — emissions, skybands, safe flags,
// Stats — is bit-identical for every lane count.

#ifndef SOP_CORE_SOP_DETECTOR_H_
#define SOP_CORE_SOP_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sop/core/ksky.h"
#include "sop/core/lsky.h"
#include "sop/detector/detector.h"
#include "sop/index/grid.h"
#include "sop/query/plan.h"
#include "sop/stream/stream_buffer.h"

namespace sop {

/// The SOP detector. Requires a workload whose queries share one attribute
/// set (wrap with MultiAttributeDetector otherwise).
class SopDetector : public OutlierDetector {
 public:
  /// Tuning knobs, defaulting to the paper's algorithm. The ablation bench
  /// switches these off individually.
  struct Options {
    KSky::Options ksky;
    /// Extra basis slack compiled into the plan so anticipated workload
    /// changes stay overlay-only (see PlanHeadroom). Defaults to none:
    /// the exact paper basis.
    PlanHeadroom headroom;
    /// Skip Safe-For-All inliers in every future batch (Alg. 3 line 2) and
    /// release their evidence.
    bool safe_inlier_pruning = true;
    /// Route K-SKY candidate enumeration through a uniform grid over the
    /// r_max ball (index/grid.h) instead of scanning the whole swift
    /// window. Exact — the built skybands are identical (see ksky.h);
    /// only the CPU profile changes. Pays off when r_max covers a small
    /// fraction of the data space.
    bool use_grid_index = false;
    /// Grid pitch as a multiple of r_min (only with use_grid_index).
    double grid_cell_factor = 1.0;
  };

  /// Cumulative counters exposed for tests and the ablation bench.
  struct Stats {
    int64_t ksky_scans = 0;
    int64_t distances_computed = 0;
    int64_t candidates_examined = 0;
    int64_t early_terminations = 0;
    int64_t safe_points_discovered = 0;
    int64_t overlay_swaps = 0;
  };

  /// A batch runs its per-point loops on more than one lane only when its
  /// scan bound — non-safe points x alive points, the candidates its K-SKY
  /// scans may touch — exceeds this. On the Fig-7 probe that is about
  /// 2.5 ms of one-lane work, against about 0.1 ms to wake the helpers and
  /// join them (4-vCPU KVM guest).
  static constexpr int64_t kLaneScanBound = 2'000'000;

  explicit SopDetector(const Workload& workload)
      : SopDetector(workload, Options()) {}
  SopDetector(const Workload& workload, Options options);

  const char* name() const override {
    return options_.use_grid_index ? "sop-grid" : "sop";
  }
  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override;
  size_t MemoryBytes() const override;

  const WorkloadPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }

  /// Classifies replacing this detector's workload with `next` against the
  /// compiled basis (see PlanDelta).
  PlanDelta ClassifyWorkload(const Workload& next) const {
    return plan_.Classify(next);
  }

  /// Swaps the per-query overlay in place: the detector answers `next`
  /// from the next boundary on, without touching buffered points, skyband
  /// evidence, safety flags, or the index. Only legal between batches and
  /// only when ClassifyWorkload(next) == kOverlayOnly; returns false (state
  /// unchanged) otherwise — the caller must rebuild-and-replay instead.
  bool ApplyWorkload(Workload next);

  /// Serializes the detector's full streaming state (alive points,
  /// skybands, safety flags, counters) into a framed, CRC-checksummed
  /// checkpoint blob (common/frame.h). The workload itself is not stored;
  /// restore requires an identically configured detector (guarded by a
  /// workload fingerprint).
  bool SupportsNativeState() const override { return true; }
  std::string SaveState() const override;

  /// Restores a checkpoint into a freshly constructed detector (no batches
  /// advanced yet). Returns false — leaving the detector unusable — when
  /// the blob is corrupted or truncated (CRC/length mismatch), from a
  /// different format version, or from a different workload; `*error` (if
  /// non-null) says which. Processing resumes at the next boundary after
  /// the checkpointed one.
  bool LoadState(std::string_view bytes, std::string* error = nullptr) override;

  /// Test/debug accessors.
  bool IsAliveForTesting(Seq seq) const { return buffer_.Contains(seq); }
  bool IsSafeForTesting(Seq seq) const { return StateOf(seq).safe; }
  const LSky& SkybandForTesting(Seq seq) const { return StateOf(seq).skyband; }

 private:
  // Per alive point bookkeeping, parallel to buffer_.
  struct PointState {
    LSky skyband;
    bool evaluated = false;  // skyband valid (first scan done)
    bool safe = false;       // Safe-For-All inlier
  };

  PointState& StateOf(Seq seq) {
    return states_[static_cast<size_t>(seq - buffer_.first_seq())];
  }
  const PointState& StateOf(Seq seq) const {
    return states_[static_cast<size_t>(seq - buffer_.first_seq())];
  }

  // One emitting query during the emission sweep.
  struct EmittingQuery {
    size_t query_index;
    int64_t start;
    int32_t layer;
    int64_t k;
    size_t result_slot;
  };

  // One linear K-SKY scan of the batch, as the repeat-pairs counter sees
  // it: `probe` computed its distance to every seq in
  // [oldest_computed, next_seq) but its own.
  struct ScanRange {
    Seq probe;
    Seq oldest_computed;
  };

  // One lane of the per-point loops: private scratch, plus what the lane
  // produced in the current batch.
  struct Lane {
    Lane(KSky scanner, int num_layers) : ksky(std::move(scanner)) {
      emit_counts.Reset(num_layers);
    }
    KSky ksky;
    FenwickTree emit_counts;  // sweep layer table, zero between points
    Stats stats;              // this batch's scan counters
    std::vector<std::vector<Seq>> outliers;  // per emitting query
    std::vector<ScanRange> scan_ranges;      // only while obs is on
  };

  // Lanes for this batch's loops, created on demand: one unless the scan
  // bound (`nonsafe` x alive points) makes the hand-off worth it.
  int PrepareLanes(size_t nonsafe);
  // K-SKY scan of alive point `s` on `lane` (Alg. 3 body).
  void ScanPoint(Seq s, Seq first_new_seq, int64_t swift_start, Lane* lane);
  // Classifies non-safe point `s` for every emitting query on `lane`.
  void SweepPoint(Seq s, Lane* lane) const;
  // ksky/repeat_pairs: pairs {a, b} of this batch's scans in which each
  // point lies in the other's computed range, i.e. distances both scans
  // computed. Drains the lanes' ranges (recorded only while obs is on);
  // O(n log n) in the scans.
  void RecordRepeatPairs();

  WorkloadPlan plan_;
  Options options_;
  std::vector<Lane> lanes_;  // lanes_[0] always exists
  StreamBuffer buffer_;
  std::deque<PointState> states_;
  std::unique_ptr<GridIndex> grid_;  // only with options_.use_grid_index
  Stats stats_;
  int64_t last_boundary_ = INT64_MIN;
  bool received_any_ = false;
  size_t last_results_bytes_ = 0;
  // Per-batch scratch.
  std::vector<Seq> nonsafe_seqs_;
  std::vector<Seq> grid_candidates_;  // seq-descending K-SKY candidates
  std::vector<EmittingQuery> emitting_;
  std::vector<ScanRange> scan_ranges_;  // RecordRepeatPairs scratch
};

/// Test seam: batches large enough to fan out run on `lanes` lanes instead
/// of HardwareLanes() (0 restores that). Lanes beyond the helper threads
/// run on the calling thread, so every count exercises the multi-lane path
/// even on one core. Process-wide; set it only while no detector runs.
void SetScanLanesForTest(int lanes);

}  // namespace sop

#endif  // SOP_CORE_SOP_DETECTOR_H_
