// The single detector construction path: every binary (sop_cli, the bench
// harness, the tests, user code) builds detectors from their string names
// through CreateDetector. Detector-specific tuning rides along in
// DetectorOptions; transparent multi-attribute splitting is applied where
// an algorithm requires a single attribute set.

#ifndef SOP_DETECTOR_FACTORY_H_
#define SOP_DETECTOR_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "sop/baselines/mcod.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/detector.h"
#include "sop/query/workload.h"

namespace sop {

/// Tuning knobs forwarded to the detector selected by name. Defaults
/// reproduce each paper's algorithm; the ablation benches override
/// individual fields. The name "mcod-grid" forces
/// McodDetector::Options::use_grid_index regardless of what is set here.
struct DetectorOptions {
  /// For "sop" / "grouped-sop".
  SopDetector::Options sop;
  /// For "mcod" / "mcod-grid".
  McodDetector::Options mcod;
};

/// The algorithm names this repository ships:
///   "sop"          the paper's contribution
///   "grouped-sop"  paper Sec. 3.2 strawman: independent skyband per k-group
///   "leap"         per-query LEAP baseline [ICDE'14]
///   "mcod"         augmented multi-query MCOD baseline [ICDE'11]
///   "mcod-grid"    MCOD with grid-indexed range queries (M-tree analog)
///   "naive"        exact brute force (test oracle)
const std::vector<std::string>& KnownDetectorNames();

/// True iff `name` is one of KnownDetectorNames().
bool IsKnownDetector(const std::string& name);

/// One-line diagnostic for a rejected detector name, listing every name in
/// KnownDetectorNames(). Shared by sop_cli, sop_server and anything else
/// that takes a detector name from the user.
std::string UnknownDetectorMessage(const std::string& name);

/// Builds the detector named `name` for `workload`. SOP and MCOD require a
/// single attribute set per instance, so workloads mixing attribute sets
/// are wrapped in a MultiAttributeDetector automatically; LEAP and Naive
/// handle mixed sets natively. CHECK-fails on an unknown name — validate
/// user input with IsKnownDetector first.
std::unique_ptr<OutlierDetector> CreateDetector(
    const std::string& name, const Workload& workload,
    const DetectorOptions& options = {});

}  // namespace sop

#endif  // SOP_DETECTOR_FACTORY_H_
