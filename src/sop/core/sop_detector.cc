#include "sop/core/sop_detector.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/memory.h"
#include "sop/common/thread_pool.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

namespace {

// Scans a lane claims from the shared cursor at a time.
constexpr size_t kScanChunk = 4;

// SetScanLanesForTest's pin; 0 = HardwareLanes().
std::atomic<int> g_scan_lanes_for_test{0};

}  // namespace

void SetScanLanesForTest(int lanes) {
  SOP_CHECK(lanes >= 0);
  g_scan_lanes_for_test.store(lanes, std::memory_order_relaxed);
}

SopDetector::SopDetector(const Workload& workload, Options options)
    : plan_(workload, options.headroom),
      options_(options),
      buffer_(workload.window_type()) {
  lanes_.emplace_back(KSky(&plan_, workload.MakeDistanceFn(0), options.ksky),
                      plan_.num_layers());
  if (options_.use_grid_index) {
    grid_ = std::make_unique<GridIndex>(
        workload.MakeDistanceFn(0),
        plan_.r_min() * options_.grid_cell_factor);
  }
}

bool SopDetector::ApplyWorkload(Workload next) {
  // ApplyOverlay refuses anything but an overlay-only change, so the
  // skybands, safety flags and buffer stay valid evidence for `next`.
  if (!plan_.ApplyOverlay(std::move(next))) return false;
  ++stats_.overlay_swaps;
  SOP_COUNTER_ADD("sop/overlay_swaps", 1);
  return true;
}

int SopDetector::PrepareLanes(size_t nonsafe) {
  // sop-grid shares one GridIndex scratch across scans: one lane only.
  if (grid_ != nullptr ||
      static_cast<int64_t>(nonsafe) * static_cast<int64_t>(buffer_.size()) <=
          kLaneScanBound) {
    return 1;
  }
  const int pinned = g_scan_lanes_for_test.load(std::memory_order_relaxed);
  const int lanes = pinned > 0 ? pinned : HardwareLanes();
  while (lanes_.size() < static_cast<size_t>(lanes)) {
    // Overlay swaps keep the attribute set, so query 0's distance is the
    // detector's distance.
    lanes_.emplace_back(
        KSky(&plan_, plan_.workload().MakeDistanceFn(0), options_.ksky),
        plan_.num_layers());
  }
  return lanes;
}

void SopDetector::ScanPoint(Seq s, Seq first_new_seq, int64_t swift_start,
                            Lane* lane) {
  PointState& st = StateOf(s);
  const std::vector<Seq>* candidates = nullptr;
  if (grid_ != nullptr) {
    // Index-assisted candidate enumeration: everything within r_max is
    // in the superset, so K-SKY's scan — restricted to newest-first
    // order — builds the identical skyband (see ksky.h).
    grid_->CollectCandidates(buffer_.At(s), plan_.r_max(), &grid_candidates_);
    std::sort(grid_candidates_.begin(), grid_candidates_.end(),
              std::greater<Seq>());
    // p indexes itself; drop it from its own candidate list.
    const auto self = std::lower_bound(grid_candidates_.begin(),
                                       grid_candidates_.end(), s,
                                       std::greater<Seq>());
    if (self != grid_candidates_.end() && *self == s) {
      grid_candidates_.erase(self);
    }
    candidates = &grid_candidates_;
  }
  const bool safe = lane->ksky.EvaluatePoint(
      buffer_.At(s), buffer_, first_new_seq, swift_start,
      /*from_scratch=*/!st.evaluated, &st.skyband, candidates);
  st.evaluated = true;
  const KSkyScanStats& scan = lane->ksky.last_stats();
  Stats& stats = lane->stats;
  ++stats.ksky_scans;
  stats.distances_computed += scan.distances_computed;
  stats.candidates_examined += scan.candidates_examined;
  stats.early_terminations += scan.terminated_early ? 1 : 0;
  // An index-provided candidate list leaves holes in the computed range.
  if (SOP_OBS_ENABLED() && grid_ == nullptr) {
    lane->scan_ranges.push_back({s, scan.oldest_computed});
  }
  if (safe && options_.safe_inlier_pruning) {
    st.safe = true;
    st.skyband.Release();
    ++stats.safe_points_discovered;
  }
}

void SopDetector::RecordRepeatPairs() {
  scan_ranges_.clear();
  for (Lane& lane : lanes_) {
    scan_ranges_.insert(scan_ranges_.end(), lane.scan_ranges.begin(),
                        lane.scan_ranges.end());
    lane.scan_ranges.clear();
  }
  if (scan_ranges_.empty()) return;
  // With probes a < b, {a, b} repeats iff oldest(a) <= b and
  // oldest(b) <= a. Walk b up the probe order, marking (at its probe's
  // rank) every scan whose oldest is <= b; the repeats whose larger probe
  // is b are then the marked probes in [oldest(b), b).
  std::vector<ScanRange>& ranges = scan_ranges_;
  std::sort(ranges.begin(), ranges.end(),
            [](const ScanRange& x, const ScanRange& y) {
              return x.probe < y.probe;
            });
  std::vector<int> by_oldest(ranges.size());
  for (size_t i = 0; i < by_oldest.size(); ++i) {
    by_oldest[i] = static_cast<int>(i);
  }
  const auto oldest = [&](int rank) {
    return ranges[static_cast<size_t>(rank)].oldest_computed;
  };
  std::sort(by_oldest.begin(), by_oldest.end(),
            [&](int x, int y) { return oldest(x) < oldest(y); });
  FenwickTree marked(static_cast<int>(ranges.size()));
  size_t next = 0;
  int64_t pairs = 0;
  for (int b = 0; b < static_cast<int>(ranges.size()); ++b) {
    const Seq probe = ranges[static_cast<size_t>(b)].probe;
    for (; next < by_oldest.size() && oldest(by_oldest[next]) <= probe;
         ++next) {
      marked.Add(by_oldest[next] + 1, 1);
    }
    // Rank of the first probe >= oldest(b); an incremental scan's range
    // starts above its own probe and pairs with no smaller one.
    const auto below = [](const ScanRange& x, Seq v) { return x.probe < v; };
    const int lo = static_cast<int>(
        std::lower_bound(ranges.begin(), ranges.begin() + b, oldest(b), below) -
        ranges.begin());
    pairs += marked.PrefixSum(b) - marked.PrefixSum(lo);
  }
  SOP_COUNTER_ADD("ksky/repeat_pairs", pairs);
}

void SopDetector::SweepPoint(Seq s, Lane* lane) const {
  const int64_t key = buffer_.KeyOf(s);
  const auto& entries = StateOf(s).skyband.entries();
  FenwickTree& counts = lane->emit_counts;
  size_t added = 0;
  for (size_t e = 0; e < emitting_.size(); ++e) {
    const EmittingQuery& eq = emitting_[e];
    if (eq.start > key) continue;  // point not in this query's window
    while (added < entries.size() && entries[added].key >= eq.start) {
      counts.Add(entries[added].layer, 1);
      ++added;
    }
    if (counts.PrefixSum(eq.layer) < eq.k) lane->outliers[e].push_back(s);
  }
  // Zero the table for the next point by undoing this point's inserts.
  for (size_t i = 0; i < added; ++i) counts.Add(entries[i].layer, -1);
}

std::vector<QueryResult> SopDetector::Advance(std::vector<Point> batch,
                                              int64_t boundary) {
  // Boundaries come from the driver at the workload-wide slide gcd. When
  // this detector is a multi-attribute child, that gcd may be finer than
  // this plan's own slide gcd; processing extra boundaries is correct
  // (EmitsAt gates emissions per query), just extra work.
  SOP_CHECK_MSG(boundary > last_boundary_, "boundaries must increase");
  last_boundary_ = boundary;

  // The first batch a detector ever sees may start mid-stream (history
  // replay after trimming, see SopSession); re-base the buffer on it.
  if (!received_any_ && !batch.empty()) {
    buffer_.ResetTo(batch.front().seq);
    received_any_ = true;
  }
  const Seq first_new_seq = buffer_.next_seq();
  for (Point& p : batch) {
    buffer_.Append(std::move(p));
    states_.emplace_back();
  }

  // Slide the swift window.
  const int64_t swift_start = WindowStart(boundary, plan_.win_max());
  if (grid_ != nullptr) {
    // Index the arrivals, then un-index everything expiring — including
    // arrivals that never make it into the window — while the coordinates
    // are still alive in the buffer.
    for (Seq s = first_new_seq; s < buffer_.next_seq(); ++s) {
      grid_->Insert(s, buffer_.At(s));
    }
    const Seq expire_end = buffer_.LowerBoundKey(swift_start);
    for (Seq s = buffer_.first_seq(); s < expire_end; ++s) {
      grid_->Remove(s, buffer_.At(s));
    }
  }
  const size_t dropped = buffer_.ExpireBefore(swift_start);
  for (size_t i = 0; i < dropped; ++i) states_.pop_front();

  // One K-SKY scan per alive, non-safe point (Alg. 3). Safe points are
  // inliers for every query forever, so only the others can ever be
  // reported — collect them for the emission sweep.
  nonsafe_seqs_.clear();
  for (Seq s = buffer_.first_seq(); s < buffer_.next_seq(); ++s) {
    if (options_.safe_inlier_pruning && StateOf(s).safe) continue;
    nonsafe_seqs_.push_back(s);
  }
  const int lanes = PrepareLanes(nonsafe_seqs_.size());
  // Newest first: the costly from-scratch scans of the arrivals go out
  // early, so the cheap incremental ones even out the lanes at the end.
  const size_t num_scans = nonsafe_seqs_.size();
  std::atomic<size_t> cursor{0};
  RunLanes(lanes, [&](int l) {
    Lane* lane = &lanes_[static_cast<size_t>(l)];
    size_t begin = 0;
    while ((begin = cursor.fetch_add(kScanChunk, std::memory_order_relaxed)) <
           num_scans) {
      const size_t end = std::min(begin + kScanChunk, num_scans);
      for (size_t i = begin; i < end; ++i) {
        ScanPoint(nonsafe_seqs_[num_scans - 1 - i], first_new_seq,
                  swift_start, lane);
      }
    }
  });
  // Lanes idle this batch hold zero counters, so folding all is exact.
  int64_t newly_safe = 0;
  for (Lane& lane : lanes_) {
    stats_.ksky_scans += lane.stats.ksky_scans;
    stats_.distances_computed += lane.stats.distances_computed;
    stats_.candidates_examined += lane.stats.candidates_examined;
    stats_.early_terminations += lane.stats.early_terminations;
    newly_safe += lane.stats.safe_points_discovered;
    lane.stats = Stats{};
  }
  if (newly_safe > 0) {
    stats_.safe_points_discovered += newly_safe;
    SOP_COUNTER_ADD("sop/safe_points_discovered", newly_safe);
    std::erase_if(nonsafe_seqs_, [this](Seq s) { return StateOf(s).safe; });
  }
  RecordRepeatPairs();
  if (SOP_OBS_ENABLED()) {
    SOP_COUNTER_ADD("sop/batches", 1);
    SOP_GAUGE_SET("sop/alive_points",
                  buffer_.next_seq() - buffer_.first_seq());
    SOP_GAUGE_SET("sop/nonsafe_points", nonsafe_seqs_.size());
  }

  // Emissions. Every due query classifies each non-safe point in its
  // window with a thresholded skyband count (the generalized Lemma-3
  // test, see ksky.h). Queries are swept in ascending window size so one
  // newest-first pass over a point's skyband serves all of them: each
  // query's window adds a batch of older entries into the layer table and
  // reads one prefix sum.
  std::vector<QueryResult> results;
  last_results_bytes_ = 0;
  const auto& queries = plan_.workload().queries();
  emitting_.clear();
  for (size_t qi : plan_.queries_by_window()) {
    if (!EmitsAt(boundary, queries[qi].slide)) continue;
    EmittingQuery eq;
    eq.query_index = qi;
    eq.start = WindowStart(boundary, queries[qi].win);
    eq.layer = plan_.layer_of_query(qi);
    eq.k = queries[qi].k;
    eq.result_slot = results.size();
    QueryResult result;
    result.query_index = qi;
    result.boundary = boundary;
    results.push_back(std::move(result));
    emitting_.push_back(eq);
  }
  if (emitting_.empty()) return results;

  // Each lane sweeps one contiguous range of the seq-ascending non-safe
  // list, so joining the outlier lists in lane order keeps them ascending.
  const size_t num_nonsafe = nonsafe_seqs_.size();
  const size_t num_lanes = static_cast<size_t>(lanes);
  RunLanes(lanes, [&](int l) {
    Lane& lane = lanes_[static_cast<size_t>(l)];
    lane.outliers.resize(emitting_.size());
    for (std::vector<Seq>& out : lane.outliers) out.clear();
    const size_t part = static_cast<size_t>(l);
    for (size_t i = num_nonsafe * part / num_lanes;
         i < num_nonsafe * (part + 1) / num_lanes; ++i) {
      SweepPoint(nonsafe_seqs_[i], &lane);
    }
  });
  for (size_t e = 0; e < emitting_.size(); ++e) {
    std::vector<Seq>& out = results[emitting_[e].result_slot].outliers;
    for (size_t l = 0; l < num_lanes; ++l) {
      const std::vector<Seq>& part = lanes_[l].outliers[e];
      out.insert(out.end(), part.begin(), part.end());
    }
  }

  std::sort(results.begin(), results.end(),
            [](const QueryResult& a, const QueryResult& b) {
              return a.query_index < b.query_index;
            });
  for (const QueryResult& r : results) {
    last_results_bytes_ += VectorHeapBytes(r.outliers);
  }
  return results;
}

size_t SopDetector::MemoryBytes() const {
  size_t bytes = DequeHeapBytes(states_) + last_results_bytes_;
  if (grid_ != nullptr) bytes += grid_->MemoryBytes();
  for (const PointState& st : states_) bytes += st.skyband.MemoryBytes();
  return bytes;
}

}  // namespace sop
