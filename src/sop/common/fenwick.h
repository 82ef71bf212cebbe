// Fenwick (binary indexed) tree over 1-based positions, used for layer
// cardinality bookkeeping in the SOP core.
//
// The paper's skyEvaluate maintains per-layer cardinalities and sums a
// prefix per candidate (Alg. 2 lines 3-5, O(L)); a Fenwick tree implements
// the identical bookkeeping in O(log L) per update/query, which matters
// for workloads with thousands of distinct r values. A table reused across
// points is zeroed either by undoing its updates, O(inserts log L), or by
// Clear, O(L), whichever touches fewer words (core/ksky.h). LowerBound
// finds the first layer whose prefix reaches a count in one O(log L)
// descent (K-SKY's dominance and emission frontiers, see core/ksky.h).

#ifndef SOP_COMMON_FENWICK_H_
#define SOP_COMMON_FENWICK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sop/common/check.h"

namespace sop {

/// Fenwick tree of int64 counts over positions 1..size.
class FenwickTree {
 public:
  FenwickTree() = default;
  explicit FenwickTree(int size) { Reset(size); }

  /// Re-dimensions and zeroes the tree.
  void Reset(int size) {
    SOP_CHECK(size >= 0);
    tree_.assign(static_cast<size_t>(size) + 1, 0);
  }

  int size() const { return static_cast<int>(tree_.size()) - 1; }

  /// Zeroes every position, keeping the size: size + 1 word writes.
  void Clear() { std::fill(tree_.begin(), tree_.end(), 0); }

  /// True iff every position holds zero. O(size).
  bool IsZero() const {
    return std::all_of(tree_.begin(), tree_.end(),
                       [](int64_t v) { return v == 0; });
  }

  /// Adds `delta` at position `pos` (1-based).
  void Add(int pos, int64_t delta) {
    SOP_DCHECK(pos >= 1 && pos <= size());
    for (; pos <= size(); pos += pos & -pos) {
      tree_[static_cast<size_t>(pos)] += delta;
    }
  }

  /// Sum of positions 1..pos (0 returns 0).
  int64_t PrefixSum(int pos) const {
    SOP_DCHECK(pos >= 0 && pos <= size());
    int64_t sum = 0;
    for (; pos > 0; pos -= pos & -pos) {
      sum += tree_[static_cast<size_t>(pos)];
    }
    return sum;
  }

  /// Smallest pos in 1..size with PrefixSum(pos) >= target, or size + 1
  /// when no prefix reaches it. Requires every position's value to be
  /// non-negative (prefix sums non-decreasing). O(log size).
  int LowerBound(int64_t target) const {
    int pos = 0;
    for (int step = static_cast<int>(std::bit_floor(
             static_cast<unsigned>(size())));
         step > 0; step >>= 1) {
      const int next = pos + step;
      if (next <= size() && tree_[static_cast<size_t>(next)] < target) {
        pos = next;
        target -= tree_[static_cast<size_t>(next)];
      }
    }
    return pos + 1;
  }

 private:
  std::vector<int64_t> tree_;
};

}  // namespace sop

#endif  // SOP_COMMON_FENWICK_H_
