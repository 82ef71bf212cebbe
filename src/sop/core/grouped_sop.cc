#include "sop/core/grouped_sop.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace sop {

namespace {

// Partition key: the rank of the query's k among the distinct k values.
std::vector<int> KGroupKeys(const Workload& workload) {
  std::vector<int64_t> ks;
  ks.reserve(workload.num_queries());
  for (const OutlierQuery& q : workload.queries()) ks.push_back(q.k);
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  std::vector<int> keys;
  keys.reserve(workload.num_queries());
  for (const OutlierQuery& q : workload.queries()) {
    keys.push_back(static_cast<int>(
        std::lower_bound(ks.begin(), ks.end(), q.k) - ks.begin()));
  }
  return keys;
}

}  // namespace

GroupedSopDetector::GroupedSopDetector(const Workload& workload,
                                       SopDetector::Options options)
    : PartitionedDetector("grouped-sop", workload, KGroupKeys(workload),
                          [options](const Workload& sub) {
                            return std::make_unique<SopDetector>(sub, options);
                          }) {}

}  // namespace sop
