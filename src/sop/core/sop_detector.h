// SopDetector: the paper's SOP framework (Fig. 6 / Alg. 3) — the
// sharing-aware multi-query outlier detector this repository reproduces.
//
// One swift skyband query answers the whole workload: per batch (one swift
// slide), every alive, non-safe point gets one K-SKY scan that updates its
// evidence — per-layer counts of its succeeding neighbours and the skyband
// of its preceding ones (lsky.h) — and, at an emission boundary, classifies
// the point for every due query with one thresholded count per (window, k)
// group, read off the scan's own layer table (ksky.h, "Emission
// frontier"). CPU is shared (each point scanned once per slide for all
// queries) and memory is shared (one evidence record per point for all
// queries).
//
// Point lanes. The per-point loop of a batch is independent across
// points: each point owns its evidence, and only the scan scratch is
// shared. A large batch therefore runs it on lanes (common/thread_pool.h
// RunLanes): one per hardware thread, each with its own KSky and
// per-query outlier lists. Scans are pulled newest first, in small chunks
// from a shared cursor, so each lane's lists are seq-descending; each
// query's ascending list is a merge of the lanes' lists. Every output —
// emissions, evidence, safe flags, Stats — is bit-identical for every
// lane count.
//
// Memory. The detector keeps a running total of its evidence bytes: each
// lane sums the change its scans made, the batch folds the lanes' sums,
// and expiry subtracts what the dropped points held. MemoryBytes() is
// therefore O(1) per batch, not a walk over every alive point.

#ifndef SOP_CORE_SOP_DETECTOR_H_
#define SOP_CORE_SOP_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sop/core/ksky.h"
#include "sop/core/lsky.h"
#include "sop/detector/detector.h"
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
    /// Compile the elastic basis (WorkloadPlan) instead of the exact paper
    /// basis, so every same-layer add within the k and window envelopes is
    /// an overlay swap. SopSession sets it; everything else runs the paper's.
    bool elastic_basis = false;
    /// Skip Safe-For-All inliers in every future batch (Alg. 3 line 2) and
    /// release their evidence.
    bool safe_inlier_pruning = true;
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

  /// A batch runs its per-point loop on more than one lane only when its
  /// scan bound — non-safe points x alive points, the candidates its K-SKY
  /// scans may touch — exceeds this. On the Fig-7 probe that is about
  /// 0.75 ms of one-lane work (0.58 to 0.90 ms over ten seeds), against
  /// 0.1 to 0.2 ms to wake the helpers and join them (4-vCPU KVM guest).
  static constexpr int64_t kLaneScanBound = 2'000'000;

  explicit SopDetector(const Workload& workload)
      : SopDetector(workload, Options()) {}
  SopDetector(const Workload& workload, Options options);

  const char* name() const override { return "sop"; }
  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override;
  size_t MemoryBytes() const override;

  const WorkloadPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }

  /// True iff the compiled basis covers `next` (WorkloadPlan::Covers), so
  /// ApplyWorkload(next) would succeed.
  bool CoversWorkload(const Workload& next) const {
    return plan_.Covers(next);
  }

  /// Swaps the per-query overlay in place: the detector answers `next`
  /// from the next boundary on, without touching buffered points, skyband
  /// evidence or safety flags. Only legal between batches and only when
  /// CoversWorkload(next); returns false (state unchanged) otherwise — the
  /// caller must rebuild-and-replay instead.
  bool ApplyWorkload(Workload next);

  /// Test/debug accessors.
  bool IsAliveForTesting(Seq seq) const { return buffer_.Contains(seq); }
  bool IsSafeForTesting(Seq seq) const { return StateOf(seq).safe; }
  const LSky& SkybandForTesting(Seq seq) const { return StateOf(seq).skyband; }
  /// MemoryBytes() with the evidence bytes summed by a walk over every
  /// alive point instead of the running total; the two must be equal.
  size_t WalkMemoryBytesForTesting() const;

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

  // One lane of the per-point loop: private scratch, plus what the lane
  // produced in the current batch.
  struct Lane {
    explicit Lane(KSky scanner) : ksky(std::move(scanner)) {}
    KSky ksky;
    Stats stats;  // this batch's scan counters
    // This batch's change to the evidence bytes of the points it scanned.
    int64_t evidence_delta = 0;
    // Per emission slot: the points this lane reported, seq-descending.
    std::vector<std::vector<Seq>> outliers;
  };

  // Lanes for this batch's loop, created on demand: one unless the scan
  // bound (`nonsafe` x alive points) makes the hand-off worth it.
  int PrepareLanes(size_t nonsafe);
  // Groups the queries due at `boundary` into emission_ and returns one
  // empty result per due query, in emission-slot order.
  std::vector<QueryResult> PrepareEmission(int64_t boundary);
  // K-SKY scan of alive point `s` on `lane` (Alg. 3 body), classifying it
  // for the due queries.
  void ScanPoint(Seq s, Seq first_new_seq, int64_t swift_start, Lane* lane);

  WorkloadPlan plan_;
  Options options_;
  std::vector<Lane> lanes_;  // lanes_[0] always exists
  StreamBuffer buffer_;
  std::deque<PointState> states_;
  Stats stats_;
  int64_t last_boundary_ = INT64_MIN;
  bool received_any_ = false;
  size_t last_results_bytes_ = 0;
  size_t evidence_bytes_ = 0;  // sum of states_' skyband.MemoryBytes()
  // Per-batch scratch.
  std::vector<Seq> nonsafe_seqs_;
  KSky::Emission emission_;  // this boundary's due queries, grouped
};

/// Test seam: batches large enough to fan out run on `lanes` lanes instead
/// of HardwareLanes() (0 restores that). Lanes beyond the helper threads
/// run on the calling thread, so every count exercises the multi-lane path
/// even on one core. Process-wide; set it only while no detector runs.
void SetScanLanesForTest(int lanes);

}  // namespace sop

#endif  // SOP_CORE_SOP_DETECTOR_H_
