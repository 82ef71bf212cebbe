#include "sop/cluster/partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace sop {
namespace cluster {

PartitionSpec PartitionSpec::Uniform(double lo, double hi, int parts) {
  PartitionSpec spec;
  if (parts <= 1) return spec;
  const double span = hi - lo;
  for (int i = 1; i < parts; ++i) {
    spec.cuts.push_back(lo + span * static_cast<double>(i) /
                                 static_cast<double>(parts));
  }
  return spec;
}

bool PartitionSpec::Validate(std::string* error) const {
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (!std::isfinite(cuts[i])) {
      if (error != nullptr) *error = "partition cut is not finite";
      return false;
    }
    if (i > 0 && !(cuts[i - 1] < cuts[i])) {
      if (error != nullptr) *error = "partition cuts not strictly ascending";
      return false;
    }
  }
  return true;
}

Partitioner::Partitioner(PartitionSpec spec, double halo)
    : spec_(std::move(spec)), halo_(halo) {}

int Partitioner::OwnerOf(double v) const {
  // NaN compares unordered (upper_bound would skip every cut and land on
  // the last shard); pin it to shard 0 so placement is deterministic.
  if (std::isnan(v)) return 0;
  // First cut strictly above v starts the next shard; everything below
  // the first cut is shard 0.
  const auto it = std::upper_bound(spec_.cuts.begin(), spec_.cuts.end(), v);
  return static_cast<int>(it - spec_.cuts.begin());
}

void Partitioner::AssignmentsOf(double v,
                                std::vector<ShardAssignment>* out) const {
  out->clear();
  const int owner = OwnerOf(v);
  // Shard j needs v iff its range lies within halo: lo_j <= v + halo (low
  // edge inclusive — a replica at distance exactly halo can still be a
  // neighbor) and hi_j > v - halo (points of shard j are strictly below
  // hi_j, so distance-exactly-halo at the high edge is already covered).
  // Both conditions are "owner of a shifted value", and the shards between
  // them form a contiguous interval containing the owner.
  int first = owner;
  int last = owner;
  if (halo_ > 0.0 && std::isfinite(v)) {
    first = OwnerOf(v - halo_);
    last = OwnerOf(v + halo_);
  }
  for (int shard = first; shard <= last; ++shard) {
    out->push_back(ShardAssignment{shard, shard == owner});
  }
}

double Partitioner::range_lo(int shard) const {
  if (shard <= 0) return -std::numeric_limits<double>::infinity();
  return spec_.cuts[static_cast<size_t>(shard) - 1];
}

double Partitioner::range_hi(int shard) const {
  if (shard >= parts() - 1) return std::numeric_limits<double>::infinity();
  return spec_.cuts[static_cast<size_t>(shard)];
}

double HaloFromBasis(const Workload& workload) {
  double r_max = 0.0;
  for (const OutlierQuery& q : workload.queries()) r_max = std::max(r_max, q.r);
  return r_max;
}

}  // namespace cluster
}  // namespace sop
