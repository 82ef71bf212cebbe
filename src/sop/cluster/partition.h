// Spatial partitioning for the scale-out plane (DESIGN.md Sec. 17).
//
// The value domain of the FIRST attribute is cut into N contiguous ranges,
// one per worker shard. Every point has exactly one OWNER shard — the
// range its values[0] falls in — whose outlier verdict for it is
// authoritative. Around each range sits a HALO of width `halo`: a point
// owned elsewhere but within `halo` of a shard's range is replicated
// there, so the shard sees every possible neighbor of every point it owns.
//
// Why one attribute suffices for exactness: for both supported metrics
// (Euclidean and Manhattan), |p0 - q0| <= dist(p, q). So if q is within
// query radius r <= halo of an owned point p, then |p0 - q0| <= r <= halo
// and q lands inside the owner's halo — the owner shard computes p's
// neighbor count over its complete neighbor set, and its verdict equals
// the single-node verdict. The halo width therefore has to dominate every
// radius the deployment will ever serve: the largest subscribed radius,
// which is also the workload basis r_max (query/plan.h). HaloFromBasis
// does that derivation.
//
// The first shard's range extends to -infinity and the last one's to
// +infinity, so every finite value (and +/-inf and NaN inputs, which
// compare unordered and fall to the first shard) has exactly one owner —
// the partition covers the whole domain by construction.

#ifndef SOP_CLUSTER_PARTITION_H_
#define SOP_CLUSTER_PARTITION_H_

#include <string>
#include <vector>

#include "sop/common/point.h"
#include "sop/query/workload.h"

namespace sop {
namespace cluster {

/// A range partition of the first attribute: `cuts` are the ascending
/// interior cut points, so cuts.size() + 1 shards. Shard i owns
/// [cuts[i-1], cuts[i]) with the outer bounds open-ended.
struct PartitionSpec {
  std::vector<double> cuts;

  /// Evenly spaced cuts over [lo, hi) for `parts` shards. The outer shards
  /// still extend to +/-infinity — [lo, hi) only places the interior cuts.
  static PartitionSpec Uniform(double lo, double hi, int parts);

  /// Number of shards this spec describes.
  int parts() const { return static_cast<int>(cuts.size()) + 1; }

  /// False (with a diagnostic) when the cuts are not strictly ascending
  /// finite values.
  bool Validate(std::string* error) const;
};

/// One shard's claim on a routed point.
struct ShardAssignment {
  int shard = 0;
  bool owner = false;  // false = halo replica
};

/// Maps values to owner and halo shards for a fixed spec + halo width.
/// Immutable after construction; safe to share across threads.
class Partitioner {
 public:
  /// `spec` must validate; `halo` must be finite and >= 0.
  Partitioner(PartitionSpec spec, double halo);

  int parts() const { return spec_.parts(); }
  double halo() const { return halo_; }
  const PartitionSpec& spec() const { return spec_; }

  /// The unique owner shard of first-attribute value `v`, in [0, parts()).
  int OwnerOf(double v) const;

  /// Every shard that must see `v`: the owner plus every shard whose range
  /// lies within `halo` of it — a contiguous, ascending shard interval.
  /// Clears `*out`, then writes one ShardAssignment per shard (callers
  /// reuse one scratch vector across points).
  void AssignmentsOf(double v, std::vector<ShardAssignment>* out) const;

  /// Owned range of `shard` as [lo, hi); the outer bounds are +/-infinity.
  double range_lo(int shard) const;
  double range_hi(int shard) const;

 private:
  PartitionSpec spec_;
  double halo_;
};

/// Halo width that keeps a partitioned deployment exact for `workload`:
/// its largest radius, the r_max its compiled basis would have. The
/// workload must validate; call sites gate on that.
double HaloFromBasis(const Workload& workload);

}  // namespace cluster
}  // namespace sop

#endif  // SOP_CLUSTER_PARTITION_H_
