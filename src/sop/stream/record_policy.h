// What to do with a malformed input record.
//
// The CSV loader (io/csv.h) applies this three-way policy, and the CLI's
// --on-bad-record flag selects it. "Malformed" covers non-finite attribute
// values (NaN/Inf), attribute-count mismatches against the stream's
// established dimensionality, out-of-order timestamps, and unparseable
// records.
//
// The policies trade answer completeness against availability:
//   * kFailFast       reject the whole load/stream at the first bad record
//                     (a batch-job default: garbage in, no answer out).
//   * kSkipQuarantine drop bad records, count them, and optionally spool
//                     the raw lines to a sidecar for offline triage.
//   * kClampRepair    repair what has an unambiguous fix (non-finite
//                     values, timestamp regressions); quarantine the rest
//                     (unparseable or wrong-arity records have no credible
//                     repair).
// Quarantines and repairs are counted in the obs registry under
// resilience/quarantined and resilience/repaired.

#ifndef SOP_STREAM_RECORD_POLICY_H_
#define SOP_STREAM_RECORD_POLICY_H_

#include <string>

namespace sop {

/// Disposition of malformed input records. See file comment.
enum class RecordPolicy {
  kFailFast,
  kSkipQuarantine,
  kClampRepair,
};

/// Canonical flag spelling of `policy` ("fail" / "skip" / "clamp").
inline const char* RecordPolicyName(RecordPolicy policy) {
  switch (policy) {
    case RecordPolicy::kFailFast:
      return "fail";
    case RecordPolicy::kSkipQuarantine:
      return "skip";
    case RecordPolicy::kClampRepair:
      return "clamp";
  }
  return "unknown";
}

/// Parses a policy name ("fail" or "fail-fast", "skip", "clamp").
inline bool ParseRecordPolicy(const std::string& name, RecordPolicy* out) {
  if (name == "fail" || name == "fail-fast") {
    *out = RecordPolicy::kFailFast;
  } else if (name == "skip") {
    *out = RecordPolicy::kSkipQuarantine;
  } else if (name == "clamp") {
    *out = RecordPolicy::kClampRepair;
  } else {
    return false;
  }
  return true;
}

}  // namespace sop

#endif  // SOP_STREAM_RECORD_POLICY_H_
