#include "sop/core/ksky.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "sop/common/check.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

namespace {
// Candidate keys come from the batch kernel in blocks of this many points:
// large enough to amortize the call and fill the SIMD lanes, small enough
// to bound the keys wasted when layer-1 saturation terminates a scan
// mid-block. A block's mask is one 64-bit word.
constexpr size_t kBatchBlock = 64;
}  // namespace

KSky::KSky(const WorkloadPlan* plan, DistanceFn dist, Options options)
    : plan_(plan),
      dist_(std::move(dist)),
      kernel_(dist_.MakeKernel()),
      options_(options) {
  SOP_CHECK(plan_ != nullptr);
  SOP_CHECK(plan_->k_max() <= std::numeric_limits<int32_t>::max());
  layer_counts_.Reset(plan_->num_layers());
  block_keys_.resize(kBatchBlock);
  pending_.assign(static_cast<size_t>(plan_->num_layers()) + 1, 0);
  touched_.assign(pending_.size() / 64 + 1, 0);
}

bool KSky::EvaluatePoint(const Point& p, const StreamBuffer& buffer,
                         Seq batch_first_seq, int64_t swift_window_start,
                         bool from_scratch, LSky* skyband,
                         const Emission* emission,
                         std::vector<std::vector<Seq>>* outliers) {
  SOP_DCHECK(layer_counts_.IsZero());
  SOP_DCHECK(touched_lo_ > touched_hi_);
  stats_ = KSkyScanStats{};
  build_.Clear();
  layer1_count_ = 0;

  const WindowType type = buffer.type();
  const ColumnStore& cols = buffer.columns();
  const int num_layers = plan_->num_layers();
  const int64_t k_max = plan_->k_max();
  uint64_t kernel_hits = 0;  // counted only when obs is on
  uint64_t classified = 0;

  // Window key of alive point `s`, resolved from the columns (the scan
  // never touches the row Points).
  auto key_of = [&](Seq s) -> int64_t {
    return type == WindowType::kCount
               ? static_cast<int64_t>(s)
               : cols.time_column()[cols.SlotOf(s)];
  };
  // The key bound of the candidates inside the dominance frontier
  // `frontier`: K_{f-1}, or -inf (no key) when f = 1.
  auto bound_inside = [&](int frontier) {
    return frontier > 1 ? plan_->key_of_layer(frontier - 1)
                        : -std::numeric_limits<double>::infinity();
  };

  // The succeeding counts the scan starts from (none for a first scan),
  // and their truncation layer: the counting frontier (see "Dominance
  // frontier").
  std::span<const LayerCount> seeds;
  int count_frontier = num_layers + 1;
  if (!from_scratch) {
    SOP_DCHECK(p.seq < batch_first_seq);
    skyband->ExpireBefore(swift_window_start);
    seeds = skyband->succ();
    int64_t sum = 0;
    for (const LayerCount& c : seeds) sum += c.count;
    if (sum >= k_max) count_frontier = seeds.back().layer;
    if (!seeds.empty() && seeds.front().layer == 1) {
      layer1_count_ = seeds.front().count;
    }
  }
  bool keep_scanning =
      !(options_.early_termination && layer1_count_ >= k_max);

  // Scans the buffer's points with seq in [lo, hi), which never holds p,
  // from newest to oldest, in kernel blocks of kBatchBlock. The kernel
  // returns each block's keys and the mask of those <= `bound()`, the
  // block's dominance frontier; bit i is seq begin + i, so the set bits,
  // highest first, pass each candidate inside the frontier to `visit`
  // (Count or Examine) in the order of a per-pair scan. A candidate
  // outside it is either nobody's neighbour (farther than r_max, or NaN:
  // Def. 5 c3) or sits at a layer >= f, where Examine would reject it
  // without touching any state and Count would add nothing that
  // truncation keeps. Stats count consumed candidates only: all of a
  // block, or its positions down to the hit that ended the scan.
  kernel_.StageProbe(cols, p);
  auto scan_range = [&](Seq lo, Seq hi, auto&& bound, auto&& visit) {
    SOP_DCHECK(p.seq < lo || p.seq >= hi);
    double* keys = block_keys_.data();
    for (Seq end = hi; end > lo && keep_scanning;) {
      const Seq begin = std::max(lo, end - static_cast<Seq>(kBatchBlock));
      const size_t nb = static_cast<size_t>(end - begin);
      uint64_t mask = kernel_.KeyBlock(cols, begin, nb, bound(), keys);
      SOP_COUNTER_ADD("kernel/batches", 1);
      SOP_COUNTER_ADD("kernel/candidates", nb);
      size_t consumed = nb;
      while (mask != 0) {
        const int i = std::bit_width(mask) - 1;
        mask ^= uint64_t{1} << i;
        SOP_DCHECK(!std::isnan(keys[i]));
        ++classified;
        keep_scanning = visit(begin + i, plan_->LayerOfKey(keys[i]));
        if (!keep_scanning) {
          consumed = nb - static_cast<size_t>(i);
          break;
        }
      }
      stats_.candidates_examined += static_cast<int64_t>(consumed);
      stats_.distances_computed += static_cast<int64_t>(consumed);
      if (SOP_OBS_ENABLED()) {
        // kernel/hits: the r_max hits among the consumed positions, which
        // are the block's newest seqs, whose keys end the block.
        const double key_max = plan_->key_of_layer(num_layers);
        for (size_t i = nb - consumed; i < nb; ++i) {
          kernel_hits += keys[i] <= key_max ? 1 : 0;
        }
      }
      end = begin;
    }
  };

  // Succeeding candidates: counted inside the fixed counting frontier,
  // with no table (see "Merging the counts").
  const double count_bound = bound_inside(count_frontier);
  scan_range(from_scratch ? p.seq + 1 : batch_first_seq, buffer.next_seq(),
             [count_bound] { return count_bound; },
             [this](Seq, int layer) { return Count(layer); });
  const bool rebuild = from_scratch || touched_lo_ <= touched_hi_;
  if (rebuild) {
    MergeCounts(seeds);
    skyband->SwapSucc(&build_);
  }
  // The table starts from the merged pairs, or the kept ones when no
  // arrival was counted: one update per pair.
  for (const LayerCount& c : skyband->succ()) {
    layer_counts_.Add(c.layer, c.count);
  }

  // Preceding candidates: examined against the table.
  if (from_scratch) {
    scan_range(
        buffer.first_seq(), p.seq,
        [&] { return bound_inside(layer_counts_.LowerBound(k_max)); },
        [&](Seq s, int layer) { return Examine(s, key_of(s), layer); });
  } else if (rebuild) {
    // The previous entries are read in place: nothing writes `skyband`'s
    // entries until the swap below. Entries at or beyond the dominance
    // frontier are consumed without Examine, which would reject them
    // unchanged.
    const int frontier = layer_counts_.LowerBound(k_max);
    for (const SkybandEntry& e : skyband->entries()) {
      if (!keep_scanning) break;
      ++stats_.candidates_examined;
      if (e.layer >= frontier) continue;
      keep_scanning = Examine(e.seq, e.key, e.layer);
    }
  }
  stats_.terminated_early = !keep_scanning;

  // The table holds the rebuilt entries, unless an incremental scan that
  // counted no arrival kept the previous ones (then it holds none).
  size_t counted = 0;
  if (rebuild) {
    skyband->SwapEntries(&build_);
    counted = skyband->size();
  }
  if (SOP_OBS_ENABLED()) {
    RecordScanObs(skyband->size(), kernel_hits, classified);
  }
  if (emission != nullptr) {
    counted = ClassifyForEmission(p.seq, key_of(p.seq), *skyband, counted,
                                 *emission, outliers);
  }
  ResetLayerTable(*skyband, counted);
  return IsSafeForAll(*skyband);
}

bool KSky::Count(int32_t layer) {
  const size_t l = static_cast<size_t>(layer);
  const size_t w = l / 64;
  ++pending_[l];
  touched_[w] |= uint64_t{1} << (l % 64);
  touched_lo_ = std::min(touched_lo_, w);
  touched_hi_ = std::max(touched_hi_, w);
  layer1_count_ += layer == 1 ? 1 : 0;
  // Layer-1 saturation: see the termination discussion in ksky.h.
  return !(options_.early_termination && layer == 1 &&
           layer1_count_ >= plan_->k_max());
}

void KSky::MergeCounts(std::span<const LayerCount> seeds) {
  const int64_t k_max = plan_->k_max();
  int64_t sum = 0;
  // Appends one pair, capped so that the sum stops at k_max; false once
  // it got there.
  auto append = [&](int32_t layer, int64_t count) {
    count = std::min(count, k_max - sum);
    build_.AppendSucc(layer, static_cast<int32_t>(count));
    sum += count;
    return sum < k_max;
  };
  size_t i = 0;
  for (size_t w = touched_lo_; w <= touched_hi_; ++w) {
    for (uint64_t bits = touched_[w]; bits != 0; bits &= bits - 1) {
      const auto layer =
          static_cast<int32_t>(w * 64 + std::countr_zero(bits));
      for (; i < seeds.size() && seeds[i].layer < layer; ++i) {
        if (!append(seeds[i].layer, seeds[i].count)) return;
      }
      int64_t count = pending_[static_cast<size_t>(layer)];
      if (i < seeds.size() && seeds[i].layer == layer) {
        count += seeds[i++].count;
      }
      if (!append(layer, count)) return;
    }
  }
  for (; i < seeds.size(); ++i) {
    if (!append(seeds[i].layer, seeds[i].count)) return;
  }
}

size_t KSky::ClassifyForEmission(Seq seq, int64_t key, const LSky& skyband,
                                 size_t counted, const Emission& emission,
                                 std::vector<std::vector<Seq>>* outliers) {
  if (emission.groups.empty() || key < emission.groups.front().start) {
    return counted;  // no due window holds p
  }
  const std::vector<SkybandEntry>& entries = skyband.entries();
  for (; counted < entries.size(); ++counted) {
    layer_counts_.Add(entries[counted].layer, 1);
  }
  size_t slot = 0;
  for (const Emission::Group& group : emission.groups) {
    if (key < group.start) break;  // and every later, shorter window
    while (counted > 0 && entries[counted - 1].key < group.start) {
      layer_counts_.Add(entries[--counted].layer, -1);
    }
    // p has >= k neighbours within r_m in this window iff m >= frontier.
    const int frontier = layer_counts_.LowerBound(group.k);
    for (; slot < group.slot_end && emission.layers[slot] < frontier;
         ++slot) {
      (*outliers)[slot].push_back(seq);
    }
    slot = group.slot_end;
  }
  return counted;
}

void KSky::ResetLayerTable(const LSky& skyband, size_t counted) {
  const unsigned layers = static_cast<unsigned>(layer_counts_.size());
  const std::vector<LayerCount>& pairs = skyband.succ();
  const size_t updates = pairs.size() + counted;
  if (layers + 1 < updates * std::bit_width(layers)) {
    layer_counts_.Clear();
  } else {
    for (const LayerCount& c : pairs) layer_counts_.Add(c.layer, -c.count);
    const std::vector<SkybandEntry>& entries = skyband.entries();
    for (size_t i = 0; i < counted; ++i) {
      layer_counts_.Add(entries[i].layer, -1);
    }
  }
  for (size_t w = touched_lo_; w <= touched_hi_; ++w) {
    for (uint64_t bits = touched_[w]; bits != 0; bits &= bits - 1) {
      pending_[w * 64 + static_cast<size_t>(std::countr_zero(bits))] = 0;
    }
    touched_[w] = 0;
  }
  touched_lo_ = SIZE_MAX;
  touched_hi_ = 0;
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
  // skyEvaluate (Alg. 2): the dominated count is the number of succeeding
  // neighbours and kept preceding points at layers <= `layer` — all of
  // them are newer than this candidate.
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

bool KSky::IsSafeForAll(const LSky& skyband) const {
  const auto& reqs = plan_->safety_requirements();
  SOP_DCHECK(!reqs.empty());
  // The staircase ascends in layer: one merge pass over the counts.
  const std::vector<LayerCount>& succ = skyband.succ();
  int64_t prefix = 0;
  size_t i = 0;
  for (const WorkloadPlan::SafetyRequirement& req : reqs) {
    for (; i < succ.size() && succ[i].layer <= req.layer; ++i) {
      prefix += succ[i].count;
    }
    if (prefix < req.k) return false;
  }
  return true;
}

}  // namespace sop
