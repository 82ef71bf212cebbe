#include "sop/detector/detector.h"

namespace sop {

OutlierDetector::~OutlierDetector() = default;

}  // namespace sop
