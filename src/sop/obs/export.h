// Snapshot exporter: one JSON object per Snapshot, what every tool writes
// (sop_cli, sop_server and sop_router's --metrics-out, the figure benches).
// It does not touch the registry, so exporting is safe while recording
// continues.

#ifndef SOP_OBS_EXPORT_H_
#define SOP_OBS_EXPORT_H_

#include <string>

#include "sop/obs/metrics.h"

namespace sop {
namespace obs {

/// One JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, mean, min, max, p50, p90, p95,
/// p99}}}. Names are JSON-escaped; numbers are finite (empty histograms
/// render as zeros).
std::string ToJson(const Snapshot& snapshot);

/// Escapes `s` for use inside a JSON string literal (quotes not added).
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace sop

#endif  // SOP_OBS_EXPORT_H_
