#include "sop/core/ksky.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sop/common/check.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

namespace {
// Candidate distances are confirmed through the batch kernel in blocks of
// this many points: large enough to amortize the batch setup and fill the
// SIMD lanes, small enough to bound the distances wasted when layer-1
// saturation terminates a scan mid-block. Block positions fit a uint8_t.
constexpr size_t kBatchBlock = 64;
}  // namespace

KSky::KSky(const WorkloadPlan* plan, DistanceFn dist, Options options)
    : plan_(plan),
      dist_(std::move(dist)),
      kernel_(dist_.MakeKernel()),
      options_(options) {
  SOP_CHECK(plan_ != nullptr);
  layer_counts_.Reset(plan_->num_layers());
  batch_dists_.resize(kBatchBlock);
}

bool KSky::EvaluatePoint(const Point& p, const StreamBuffer& buffer,
                         Seq batch_first_seq, int64_t swift_window_start,
                         bool from_scratch, LSky* skyband) {
  stats_ = KSkyScanStats{};
  build_.Clear();
  layer1_count_ = 0;

  const WindowType type = buffer.type();
  const ColumnStore& cols = buffer.columns();
  const double r_max = plan_->r_max();
  bool keep_scanning = true;
  uint64_t kernel_hits = 0;  // counted only when obs is on
  uint64_t classified = 0;
  stats_.oldest_computed = buffer.next_seq();

  // Window key of alive point `s`, resolved from the columns (the scan
  // never touches the row Points).
  auto key_of = [&](Seq s) -> int64_t {
    return type == WindowType::kCount
               ? static_cast<int64_t>(s)
               : cols.time_column()[cols.SlotOf(s)];
  };

  // Consumes the kernel block of the `nb` seqs below `end`. Block position
  // j (0 = newest) holds candidate seq end-1-j, whose distance sits at
  // batch_dists_[nb-1-j]. Only candidates inside the dominance frontier
  // are classified (see ksky.h): `d <= r_{f-1}`, where f is the first
  // layer whose kept-entry prefix count reaches k_max and r_L = r_max. A
  // candidate failing it is either nobody's neighbor (farther than r_max,
  // or NaN: Def. 5 c3) or sits at a layer >= f, where Examine would reject
  // it without touching any state; so skipping it leaves the Examine
  // sequence — and the built skyband — unchanged. Returns the block
  // positions consumed: all of them, or up to and including the hit that
  // ended the scan.
  uint8_t hits[kBatchBlock] = {};
  auto examine_block = [&](Seq end, size_t nb) -> size_t {
    const int frontier = layer_counts_.LowerBound(plan_->k_max());
    const double r_front = frontier > 1
                               ? plan_->r_of_layer(frontier - 1)
                               : -std::numeric_limits<double>::infinity();
    const double* dists = batch_dists_.data();
    size_t nh = 0;
    for (size_t j = 0; j < nb; ++j) {  // branch-free compaction
      hits[nh] = static_cast<uint8_t>(j);
      nh += dists[nb - 1 - j] <= r_front ? 1 : 0;
    }
    size_t consumed = nb;
    for (size_t h = 0; h < nh; ++h) {
      const size_t j = hits[h];
      const Seq s = end - 1 - static_cast<Seq>(j);
      if (s == p.seq) continue;  // the probe itself
      const double d = dists[nb - 1 - j];
      SOP_DCHECK(!std::isnan(d));
      ++classified;
      keep_scanning = Examine(s, key_of(s), plan_->LayerOfDistance(d));
      if (!keep_scanning) {
        consumed = j + 1;
        break;
      }
    }
    stats_.oldest_computed = end - static_cast<Seq>(consumed);
    return consumed;
  };
  // kernel/hits: the r_max hits among `n` consumed kernel outputs.
  auto count_hits = [&](const double* dists, size_t n) {
    for (size_t i = 0; i < n; ++i) kernel_hits += dists[i] <= r_max ? 1 : 0;
  };
  // Stats count consumed candidates only, exactly as the per-pair scan
  // did: a block cut short by termination does not inflate them.
  auto count_consumed = [&](size_t n) {
    stats_.candidates_examined += static_cast<int64_t>(n);
    stats_.distances_computed += static_cast<int64_t>(n);
  };

  // Scans points with seq in [lo, hi) from newest to oldest ("search from
  // scratch" / the new-arrivals part of the incremental rescan). Distances
  // come from the batch kernel, kBatchBlock candidates per call; the
  // consumption order — and therefore the built skyband — is identical to
  // the old per-pair scan.
  auto scan_buffer_range = [&](Seq lo, Seq hi) {
    for (Seq end = hi; end > lo && keep_scanning;) {
      const Seq begin = std::max(lo, end - static_cast<Seq>(kBatchBlock));
      const size_t nb = static_cast<size_t>(end - begin);
      kernel_.BatchDistRange(cols, p, begin, nb, batch_dists_.data());
      SOP_COUNTER_ADD("kernel/batches", 1);
      SOP_COUNTER_ADD("kernel/candidates", nb);
      const size_t consumed = examine_block(end, nb);
      const bool probe_consumed =
          p.seq < end && p.seq >= end - static_cast<Seq>(consumed);
      count_consumed(consumed - (probe_consumed ? 1 : 0));
      if (SOP_OBS_ENABLED()) {
        // The consumed positions are the block's newest seqs, whose
        // distances end the output; p itself is no candidate.
        count_hits(batch_dists_.data() + (nb - consumed), consumed);
        if (probe_consumed &&
            batch_dists_[static_cast<size_t>(p.seq - begin)] <= r_max) {
          --kernel_hits;
        }
      }
      end = begin;
    }
  };

  if (from_scratch) {
    scan_buffer_range(buffer.first_seq(), buffer.next_seq());
  } else {
    SOP_DCHECK(p.seq < batch_first_seq);
    skyband->ExpireBefore(swift_window_start);
    // Least examination: new arrivals first (all newer than any previous
    // skyband entry), then the surviving previous entries with their
    // cached layers. Both sub-sequences are seq-descending, and so is
    // their concatenation.
    scan_buffer_range(batch_first_seq, buffer.next_seq());
    if (build_.empty()) {
      // No new arrival entered the skyband, so the previous entries'
      // admission decisions replay unchanged (they were made against
      // exactly these entries, newest-first, and expiry only removed the
      // oldest — i.e., last-decided — ones). The expired skyband is
      // already exact; skip the re-admission pass.
      stats_.terminated_early = !keep_scanning;
      if (SOP_OBS_ENABLED()) {
        RecordScanObs(skyband->size(), kernel_hits, classified);
      }
      return IsSafeForAll(p, *skyband);
    }
    // The previous entries are read in place: nothing writes `skyband`
    // until the final Swap. Entries at or beyond the dominance frontier
    // are consumed without Examine, which would reject them unchanged.
    const int frontier = layer_counts_.LowerBound(plan_->k_max());
    for (const SkybandEntry& e : skyband->entries()) {
      if (!keep_scanning) break;
      ++stats_.candidates_examined;
      if (e.layer >= frontier) continue;
      keep_scanning = Examine(e.seq, e.key, e.layer);
    }
  }
  stats_.terminated_early = !keep_scanning;

  // Zero the layer table for the next point by undoing this point's
  // inserts (cheaper than clearing L counters when the skyband is small).
  for (const SkybandEntry& e : build_.entries()) {
    layer_counts_.Add(e.layer, -1);
  }

  skyband->Swap(&build_);
  if (SOP_OBS_ENABLED()) {
    RecordScanObs(skyband->size(), kernel_hits, classified);
  }
  return IsSafeForAll(p, *skyband);
}

void KSky::RecordScanObs(size_t skyband_size, uint64_t kernel_hits,
                         uint64_t classified) const {
  SOP_COUNTER_ADD("ksky/scans", 1);
  SOP_COUNTER_ADD("ksky/distances_computed", stats_.distances_computed);
  SOP_COUNTER_ADD("ksky/candidates_examined", stats_.candidates_examined);
  if (stats_.terminated_early) SOP_COUNTER_ADD("ksky/early_terminations", 1);
  SOP_COUNTER_ADD("ksky/classified", classified);
  SOP_COUNTER_ADD("kernel/hits", kernel_hits);
  SOP_HISTOGRAM_RECORD("ksky/skyband_size", skyband_size);
}

bool KSky::Examine(Seq seq, int64_t key, int32_t layer) {
  // skyEvaluate (Alg. 2): the dominated count is the number of kept points
  // at layers <= `layer` — all of them are newer than this candidate.
  const int64_t dominated = layer_counts_.PrefixSum(layer);
  if (dominated >= plan_->k_max()) {
    // Not a skyband point for any group. If it sits in the innermost
    // layer, every remaining (older) candidate is dominated by the same
    // k_max points, so the scan can stop (Alg. 1 lines 12-13).
    return !(options_.early_termination && layer == 1);
  }
  if (options_.condition3_pruning &&
      layer > plan_->MaxLayerForCount(dominated)) {
    // Def. 6 condition 3: no group with k > dominated can use a point this
    // far out. The scan continues: closer candidates may still qualify.
    return true;
  }
  layer_counts_.Add(layer, 1);
  if (layer == 1) ++layer1_count_;
  build_.Append({seq, key, layer});
  // Layer-1 saturation: see the termination discussion in ksky.h.
  if (options_.early_termination && layer == 1 &&
      layer1_count_ >= plan_->k_max()) {
    return false;
  }
  return true;
}

bool KSky::IsSafeForAll(const Point& p, const LSky& skyband) const {
  const auto& reqs = plan_->safety_requirements();
  SOP_DCHECK(!reqs.empty());
  // Succeeding entries form the leading (newest-first) prefix.
  const auto& entries = skyband.entries();
  // Count succeeding entries per requirement bucket: bucket i covers
  // layers in (reqs[i-1].layer, reqs[i].layer].
  req_counts_.assign(reqs.size(), 0);
  for (const SkybandEntry& e : entries) {
    if (e.seq <= p.seq) break;
    // First requirement whose layer bound admits this entry.
    const auto it = std::lower_bound(
        reqs.begin(), reqs.end(), e.layer,
        [](const WorkloadPlan::SafetyRequirement& r, int32_t layer) {
          return r.layer < layer;
        });
    if (it == reqs.end()) continue;  // beyond every group's min layer
    ++req_counts_[static_cast<size_t>(it - reqs.begin())];
  }
  int64_t prefix = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    prefix += req_counts_[i];
    if (prefix < reqs[i].k) return false;
  }
  return true;
}

}  // namespace sop
