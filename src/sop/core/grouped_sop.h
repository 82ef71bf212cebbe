// The paper's Sec. 3.2 strawman: handle a mixed-k workload by running one
// *independent* K-SKY skyband query per k-group, instead of SOP's single
// integrated LSky with the Def. 6 skyband point rule.
//
// "However this solution requires the independent identification and
//  maintenance of the skyband points for each group of queries. Since a
//  large number of skyband points are likely to be shared across these
//  skyband queries, this naive solution inevitably leads to significant
//  wastage of CPU and memory resources." (Sec. 3.2)
//
// Kept as a comparison point (bench/ablation_group_sharing) to quantify
// exactly that wastage. Results are identical to SopDetector's.

#ifndef SOP_CORE_GROUPED_SOP_H_
#define SOP_CORE_GROUPED_SOP_H_

#include "sop/core/sop_detector.h"
#include "sop/detector/partitioned.h"

namespace sop {

/// One independent SopDetector per distinct k value in the workload.
/// Requires a single attribute set (as SopDetector does).
class GroupedSopDetector : public PartitionedDetector {
 public:
  explicit GroupedSopDetector(const Workload& workload)
      : GroupedSopDetector(workload, SopDetector::Options()) {}
  GroupedSopDetector(const Workload& workload, SopDetector::Options options);
};

}  // namespace sop

#endif  // SOP_CORE_GROUPED_SOP_H_
