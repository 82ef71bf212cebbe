// Generic partitioned execution: split a workload into sub-workloads by an
// arbitrary per-query key, run one child detector per partition over the
// same stream, and merge results back to the original query indices.
//
// Used by the multi-attribute divide-and-conquer wrapper (partition =
// attribute set, core/multi_attribute.h) and by the paper's Sec. 3.2
// strawman that keeps one skyband query per k-group
// (core/grouped_sop.h).
//
// Children are fully independent (each owns its stream buffer, evidence
// and index), so Advance() runs them on RunLanes (common/thread_pool.h),
// one lane per child, each over its own copy of the batch; a child's own
// point lanes nest inside its lane. Results merge in child order, so the
// result stream is the same at every lane count (DESIGN.md Sec. 10).

#ifndef SOP_DETECTOR_PARTITIONED_H_
#define SOP_DETECTOR_PARTITIONED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sop/detector/detector.h"
#include "sop/query/workload.h"

namespace sop {

/// Builds the child detector for one sub-workload.
using ChildDetectorFactory =
    std::function<std::unique_ptr<OutlierDetector>(const Workload&)>;

/// Runs one child detector per distinct partition key.
class PartitionedDetector : public OutlierDetector {
 public:
  /// `partition_keys[i]` assigns workload query `i` to a partition;
  /// queries sharing a key form one sub-workload (in workload order).
  PartitionedDetector(std::string name, const Workload& workload,
                      const std::vector<int>& partition_keys,
                      const ChildDetectorFactory& factory);

  const char* name() const override { return name_.c_str(); }
  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override;
  size_t MemoryBytes() const override;

  size_t num_children() const { return children_.size(); }
  const OutlierDetector& child(size_t i) const {
    return *children_[i].detector;
  }

 protected:
  /// Lets subclasses refine the display name once children exist.
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  struct Child {
    std::unique_ptr<OutlierDetector> detector;
    std::vector<size_t> local_to_global;  // query index remapping
  };

  std::string name_;
  std::vector<Child> children_;
};

}  // namespace sop

#endif  // SOP_DETECTOR_PARTITIONED_H_
