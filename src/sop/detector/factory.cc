#include "sop/detector/factory.h"

#include <algorithm>
#include <set>

#include "sop/baselines/leap.h"
#include "sop/baselines/naive.h"
#include "sop/common/check.h"
#include "sop/core/grouped_sop.h"
#include "sop/core/multi_attribute.h"

namespace sop {

const std::vector<std::string>& KnownDetectorNames() {
  static const std::vector<std::string> names = {
      "sop", "grouped-sop", "leap", "mcod", "mcod-grid", "naive"};
  return names;
}

bool IsKnownDetector(const std::string& name) {
  const std::vector<std::string>& names = KnownDetectorNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string UnknownDetectorMessage(const std::string& name) {
  std::string msg = "unknown detector '" + name + "'; known detectors: ";
  const std::vector<std::string>& names = KnownDetectorNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += names[i];
  }
  return msg;
}

namespace {

bool UsesMultipleAttributeSets(const Workload& workload) {
  std::set<int> sets;
  for (const OutlierQuery& q : workload.queries()) sets.insert(q.attribute_set);
  return sets.size() > 1;
}

// Wraps `make_child` in a MultiAttributeDetector when the workload mixes
// attribute sets; otherwise builds the child directly.
std::unique_ptr<OutlierDetector> MaybeSplitByAttributes(
    const Workload& workload, const ChildDetectorFactory& make_child) {
  if (UsesMultipleAttributeSets(workload)) {
    return std::make_unique<MultiAttributeDetector>(workload, make_child);
  }
  return make_child(workload);
}

}  // namespace

std::unique_ptr<OutlierDetector> CreateDetector(const std::string& name,
                                                const Workload& workload,
                                                const DetectorOptions& options) {
  if (name == "sop") {
    const SopDetector::Options sop_options = options.sop;
    return MaybeSplitByAttributes(workload, [sop_options](const Workload& sub) {
      return std::make_unique<SopDetector>(sub, sop_options);
    });
  }
  if (name == "grouped-sop") {
    const SopDetector::Options sop_options = options.sop;
    return MaybeSplitByAttributes(
        workload,
        [sop_options](const Workload& sub) -> std::unique_ptr<OutlierDetector> {
          return std::make_unique<GroupedSopDetector>(sub, sop_options);
        });
  }
  if (name == "leap") {
    return std::make_unique<LeapDetector>(workload);
  }
  if (name == "mcod" || name == "mcod-grid") {
    McodDetector::Options mcod_options = options.mcod;
    if (name == "mcod-grid") mcod_options.use_grid_index = true;
    return MaybeSplitByAttributes(
        workload,
        [mcod_options](const Workload& sub) -> std::unique_ptr<OutlierDetector> {
          return std::make_unique<McodDetector>(sub, mcod_options);
        });
  }
  if (name == "naive") {
    return std::make_unique<NaiveDetector>(workload);
  }
  SOP_CHECK_MSG(false, ("unknown detector: " + name).c_str());
  return nullptr;
}

}  // namespace sop
