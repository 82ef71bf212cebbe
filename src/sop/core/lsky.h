// LSky: the layered skyband structure (paper Sec. 3.1.2, Fig. 2).
//
// For each evaluated point p, LSky stores the evidence needed to answer
// every query in the workload about p, in every current and future window:
// the (k_max - 1)-skyband of the current window under the domination
// relationship of Def. 5, split in two by arrival order.
//
// Succeeding neighbours (seq > p.seq) never expire before p and lie in
// every window that holds p, so no status test reads their seq or key
// (ksky.h, Fact 1). LSky keeps only how many of them p has per layer:
// ascending (layer, count) pairs over every succeeding neighbour within
// r_max, truncated at the first layer where the running sum reaches k_max
// and capped there so the sum is exactly k_max. That is at most k_max
// pairs, whatever the number of layers L.
//
// Preceding entries (seq < p.seq) are the skyband points older than p. The
// paper draws LSky as L layers, each ordered by arrival time; we store the
// same information as a single flat array of (seq, key, layer) entries
// ordered by descending arrival sequence, exploiting two facts:
//   * K-SKY discovers skyband points in exactly that order ("last come,
//     first served"), so construction is append-only;
//   * keys are monotone in seq, so expiry pops from the tail and the
//     "arrived inside window w" test selects a prefix.
// After p's first scan this part only shrinks: every later arrival is
// newer than p.
//
// The per-layer cardinalities the paper's skyEvaluate maintains live in the
// KSky scanner's scratch state during construction (see ksky.h); a status
// question about window w reduces to the succeeding count with layer <= m
// plus the preceding entries with layer <= m in a key-bounded prefix.

#ifndef SOP_CORE_LSKY_H_
#define SOP_CORE_LSKY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sop/common/check.h"
#include "sop/common/memory.h"
#include "sop/common/point.h"

namespace sop {

/// One preceding skyband point: which point it is (seq), its
/// window-arithmetic key, and its normalized distance to the owner point
/// (1-based layer, Def. 4).
struct SkybandEntry {
  Seq seq = 0;
  int64_t key = 0;
  int32_t layer = 0;

  friend bool operator==(const SkybandEntry&, const SkybandEntry&) = default;
};

/// How many succeeding neighbours the owner point has at one layer.
struct LayerCount {
  int32_t layer = 0;
  int32_t count = 0;

  friend bool operator==(const LayerCount&, const LayerCount&) = default;
};

/// The evidence of one point: succeeding counts plus preceding entries.
/// Not thread-safe.
class LSky {
 public:
  LSky() = default;

  bool empty() const { return entries_.empty() && succ_.empty(); }
  /// Number of preceding entries.
  size_t size() const { return entries_.size(); }
  /// Preceding entries, descending seq (newest first).
  const std::vector<SkybandEntry>& entries() const { return entries_; }
  /// Succeeding counts, ascending layer, summing to at most k_max.
  const std::vector<LayerCount>& succ() const { return succ_; }

  /// Drops both parts, keeping capacity for reuse across rebuilds.
  void Clear() {
    entries_.clear();
    succ_.clear();
  }

  /// Drops both parts and releases memory (used when a point becomes a
  /// safe inlier and its evidence is no longer needed).
  void Release() {
    entries_.clear();
    entries_.shrink_to_fit();
    succ_.clear();
    succ_.shrink_to_fit();
  }

  /// Appends a preceding entry. Must be called in strictly descending seq
  /// order.
  void Append(const SkybandEntry& e) {
    SOP_DCHECK(entries_.empty() || e.seq < entries_.back().seq);
    entries_.push_back(e);
  }

  /// Appends a succeeding count. Must be called in strictly ascending
  /// layer order, with a positive count.
  void AppendSucc(int32_t layer, int32_t count) {
    SOP_DCHECK(count > 0);
    SOP_DCHECK(succ_.empty() || layer > succ_.back().layer);
    succ_.push_back({layer, count});
  }

  /// Removes preceding entries whose key fell out of the swift window.
  /// Returns the number removed.
  size_t ExpireBefore(int64_t min_key);

  /// Swaps one part with `other`'s (used to install a freshly built part
  /// without copying).
  void SwapEntries(LSky* other) { entries_.swap(other->entries_); }
  void SwapSucc(LSky* other) { succ_.swap(other->succ_); }

  /// Approximate heap bytes held.
  size_t MemoryBytes() const {
    return VectorHeapBytes(entries_) + VectorHeapBytes(succ_);
  }

 private:
  std::vector<SkybandEntry> entries_;
  std::vector<LayerCount> succ_;
};

}  // namespace sop

#endif  // SOP_CORE_LSKY_H_
