#include "sop/core/sop_detector.h"

#include <algorithm>
#include <atomic>
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
    : plan_(workload, options.elastic_basis),
      options_(options),
      buffer_(workload.window_type()) {
  lanes_.emplace_back(KSky(&plan_, workload.MakeDistanceFn(0), options.ksky));
}

bool SopDetector::ApplyWorkload(Workload next) {
  // ApplyOverlay refuses anything but an overlay-only change, so the
  // evidence, safety flags and buffer stay valid for `next`: the basis,
  // so L and k_max, is unchanged.
  if (!plan_.ApplyOverlay(std::move(next))) return false;
  ++stats_.overlay_swaps;
  SOP_COUNTER_ADD("sop/overlay_swaps", 1);
  return true;
}

int SopDetector::PrepareLanes(size_t nonsafe) {
  if (static_cast<int64_t>(nonsafe) * static_cast<int64_t>(buffer_.size()) <=
      kLaneScanBound) {
    return 1;
  }
  const int pinned = g_scan_lanes_for_test.load(std::memory_order_relaxed);
  const int lanes = pinned > 0 ? pinned : HardwareLanes();
  while (lanes_.size() < static_cast<size_t>(lanes)) {
    // Overlay swaps keep the attribute set, so query 0's distance is the
    // detector's distance.
    lanes_.emplace_back(
        KSky(&plan_, plan_.workload().MakeDistanceFn(0), options_.ksky));
  }
  return lanes;
}

std::vector<QueryResult> SopDetector::PrepareEmission(int64_t boundary) {
  std::vector<QueryResult> results;
  emission_.groups.clear();
  emission_.layers.clear();
  const auto& queries = plan_.workload().queries();
  for (size_t qi : plan_.emission_order()) {
    const OutlierQuery& q = queries[qi];
    if (!EmitsAt(boundary, q.slide)) continue;
    const int64_t start = WindowStart(boundary, q.win);
    if (emission_.groups.empty() || emission_.groups.back().start != start ||
        emission_.groups.back().k != q.k) {
      emission_.groups.push_back({start, q.k, 0});
    }
    emission_.layers.push_back(plan_.layer_of_query(qi));
    emission_.groups.back().slot_end = emission_.layers.size();
    QueryResult result;
    result.query_index = qi;
    result.boundary = boundary;
    results.push_back(std::move(result));
  }
  return results;
}

void SopDetector::ScanPoint(Seq s, Seq first_new_seq, int64_t swift_start,
                            Lane* lane) {
  PointState& st = StateOf(s);
  const size_t bytes_before = st.skyband.MemoryBytes();
  const bool safe = lane->ksky.EvaluatePoint(
      buffer_.At(s), buffer_, first_new_seq, swift_start,
      /*from_scratch=*/!st.evaluated, &st.skyband,
      emission_.groups.empty() ? nullptr : &emission_, &lane->outliers);
  st.evaluated = true;
  const KSkyScanStats& scan = lane->ksky.last_stats();
  Stats& stats = lane->stats;
  ++stats.ksky_scans;
  stats.distances_computed += scan.distances_computed;
  stats.candidates_examined += scan.candidates_examined;
  stats.early_terminations += scan.terminated_early ? 1 : 0;
  if (safe && options_.safe_inlier_pruning) {
    st.safe = true;
    st.skyband.Release();
    ++stats.safe_points_discovered;
  }
  lane->evidence_delta += static_cast<int64_t>(st.skyband.MemoryBytes()) -
                          static_cast<int64_t>(bytes_before);
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
  const size_t dropped = buffer_.ExpireBefore(swift_start);
  for (size_t i = 0; i < dropped; ++i) {
    evidence_bytes_ -= states_.front().skyband.MemoryBytes();
    states_.pop_front();
  }

  // Emissions. The due queries, grouped for the emission frontier: each
  // scan classifies its point for all of them (ksky.h).
  std::vector<QueryResult> results = PrepareEmission(boundary);
  const size_t num_slots = emission_.layers.size();

  // One K-SKY scan per alive, non-safe point (Alg. 3). Safe points are
  // inliers for every query forever, so only the others can ever be
  // reported.
  // states_ runs parallel to the buffer: walk it by iterator beside a
  // running seq rather than index the deque once per point.
  nonsafe_seqs_.clear();
  Seq seq = buffer_.first_seq();
  for (const PointState& st : states_) {
    if (!(options_.safe_inlier_pruning && st.safe)) {
      nonsafe_seqs_.push_back(seq);
    }
    ++seq;
  }
  SOP_DCHECK(seq == buffer_.next_seq());
  const int lanes = PrepareLanes(nonsafe_seqs_.size());
  const size_t num_lanes = static_cast<size_t>(lanes);
  for (size_t l = 0; l < num_lanes; ++l) {
    std::vector<std::vector<Seq>>& outliers = lanes_[l].outliers;
    outliers.resize(num_slots);
    for (std::vector<Seq>& out : outliers) out.clear();
  }
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
    evidence_bytes_ += static_cast<size_t>(lane.evidence_delta);  // mod 2^64
    lane.evidence_delta = 0;
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
  }
  if (SOP_OBS_ENABLED()) {
    SOP_COUNTER_ADD("sop/batches", 1);
    SOP_GAUGE_SET("sop/alive_points",
                  buffer_.next_seq() - buffer_.first_seq());
    SOP_GAUGE_SET("sop/nonsafe_points", num_scans - newly_safe);
  }

  // Each lane's lists are seq-descending (it claimed its scans newest
  // first): append each reversed, merging it into what came before.
  for (size_t slot = 0; slot < num_slots; ++slot) {
    std::vector<Seq>& out = results[slot].outliers;
    size_t total = 0;
    for (size_t l = 0; l < num_lanes; ++l) {
      total += lanes_[l].outliers[slot].size();
    }
    out.reserve(total);
    for (size_t l = 0; l < num_lanes; ++l) {
      const std::vector<Seq>& part = lanes_[l].outliers[slot];
      const size_t mid = out.size();
      out.insert(out.end(), part.rbegin(), part.rend());
      std::inplace_merge(out.begin(), out.begin() + mid, out.end());
    }
  }

  std::sort(results.begin(), results.end(),
            [](const QueryResult& a, const QueryResult& b) {
              return a.query_index < b.query_index;
            });
  last_results_bytes_ = 0;
  for (const QueryResult& r : results) {
    last_results_bytes_ += VectorHeapBytes(r.outliers);
  }
  return results;
}

size_t SopDetector::MemoryBytes() const {
  return DequeHeapBytes(states_) + last_results_bytes_ + evidence_bytes_;
}

size_t SopDetector::WalkMemoryBytesForTesting() const {
  size_t bytes = DequeHeapBytes(states_) + last_results_bytes_;
  for (const PointState& st : states_) bytes += st.skyband.MemoryBytes();
  return bytes;
}

}  // namespace sop
