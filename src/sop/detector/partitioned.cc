#include "sop/detector/partitioned.h"

#include <algorithm>
#include <map>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/thread_pool.h"

namespace sop {

PartitionedDetector::PartitionedDetector(
    std::string name, const Workload& workload,
    const std::vector<int>& partition_keys, const ChildDetectorFactory& factory)
    : name_(std::move(name)) {
  SOP_CHECK_MSG(workload.Validate().empty(), workload.Validate().c_str());
  SOP_CHECK(partition_keys.size() == workload.num_queries());
  std::map<int, std::vector<size_t>> partitions;
  for (size_t i = 0; i < workload.num_queries(); ++i) {
    partitions[partition_keys[i]].push_back(i);
  }
  for (auto& [key, indices] : partitions) {
    Workload sub = workload;
    sub.ClearQueries();
    for (size_t gi : indices) sub.AddQuery(workload.query(gi));
    Child child;
    child.detector = factory(sub);
    SOP_CHECK(child.detector != nullptr);
    child.local_to_global = std::move(indices);
    children_.push_back(std::move(child));
  }
}

std::vector<QueryResult> PartitionedDetector::Advance(std::vector<Point> batch,
                                                      int64_t boundary) {
  const size_t n = children_.size();
  std::vector<std::vector<QueryResult>> results(n);
  RunLanes(static_cast<int>(n), [&](int lane) {
    const size_t c = static_cast<size_t>(lane);
    // Every lane copies the batch: moving it into one child while other
    // lanes still read it would race. A lone child may take it.
    results[c] = children_[c].detector->Advance(
        n == 1 ? std::move(batch) : batch, boundary);
  });
  std::vector<QueryResult> merged;
  for (size_t c = 0; c < n; ++c) {
    for (QueryResult& r : results[c]) {
      r.query_index = children_[c].local_to_global[r.query_index];
      merged.push_back(std::move(r));
    }
  }
  // Queries map to exactly one child each, so indices are unique and this
  // order does not depend on which lane finished first.
  std::sort(merged.begin(), merged.end(),
            [](const QueryResult& a, const QueryResult& b) {
              return a.query_index < b.query_index;
            });
  return merged;
}

size_t PartitionedDetector::MemoryBytes() const {
  size_t bytes = 0;
  for (const Child& child : children_) bytes += child.detector->MemoryBytes();
  return bytes;
}

}  // namespace sop
