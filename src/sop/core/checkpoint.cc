// Checkpoint save/restore for SopDetector (see sop_detector.h).
//
// Production stream jobs restart; the detector's state — the swift
// window's points, every non-safe point's skyband and every point's
// safety flag — is exactly what would otherwise take a full window of
// replay to rebuild.
//
// Wire format: a common/frame.h frame (magic, frame version, length,
// CRC-32) around a BinaryWriter payload that itself opens with a detector
// magic, a payload format version and the workload fingerprint. The frame
// rejects every truncation/corruption; the payload header rejects
// cross-version and cross-workload restores.

#include "sop/common/frame.h"
#include "sop/common/serialize.h"
#include "sop/core/sop_detector.h"

namespace sop {

namespace {

constexpr uint32_t kMagic = 0x53'4f'50'43;  // "SOPC"
// v2: payload framed (CRC + length) by common/frame.h.
// v3: the plan basis rides along. Skyband layers are only meaningful
//     relative to the basis they were built under, and after overlay
//     swaps (or headroom) that basis is not derivable from the current
//     workload — the restoring detector adopts the serialized one.
constexpr uint32_t kFormatVersion = 3;

bool LoadError(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string("sop checkpoint: ") + what;
  return false;
}

}  // namespace

std::string SopDetector::SaveState() const {
  BinaryWriter w;
  w.WriteU32(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteU64(plan_.workload().Fingerprint());
  w.WriteI64(last_boundary_);

  // Evidence basis (v3).
  const WorkloadPlan::Basis& basis = plan_.basis();
  w.WriteU64(basis.layer_r.size());
  for (const double r : basis.layer_r) w.WriteDouble(r);
  w.WriteI64(basis.win);
  w.WriteU64(basis.max_layer_for_count.size());
  for (const int layer : basis.max_layer_for_count) {
    w.WriteU32(static_cast<uint32_t>(layer));
  }
  w.WriteU64(basis.safety_requirements.size());
  for (const WorkloadPlan::SafetyRequirement& req :
       basis.safety_requirements) {
    w.WriteU32(static_cast<uint32_t>(req.layer));
    w.WriteI64(req.k);
  }

  // Alive points.
  w.WriteI64(buffer_.first_seq());
  w.WriteU64(buffer_.size());
  for (Seq s = buffer_.first_seq(); s < buffer_.next_seq(); ++s) {
    const Point& p = buffer_.At(s);
    w.WriteI64(p.time);
    w.WriteU32(static_cast<uint32_t>(p.values.size()));
    for (const double v : p.values) w.WriteDouble(v);
  }

  // Per-point evidence.
  for (Seq s = buffer_.first_seq(); s < buffer_.next_seq(); ++s) {
    const PointState& st = StateOf(s);
    w.WriteBool(st.evaluated);
    w.WriteBool(st.safe);
    w.WriteU64(st.skyband.size());
    for (const SkybandEntry& e : st.skyband.entries()) {
      w.WriteI64(e.seq);
      w.WriteI64(e.key);
      w.WriteU32(static_cast<uint32_t>(e.layer));
    }
  }

  // Counters.
  w.WriteI64(stats_.ksky_scans);
  w.WriteI64(stats_.distances_computed);
  w.WriteI64(stats_.candidates_examined);
  w.WriteI64(stats_.early_terminations);
  w.WriteI64(stats_.safe_points_discovered);
  return WrapFrame(w.TakeBytes());
}

bool SopDetector::LoadState(std::string_view bytes, std::string* error) {
  SOP_CHECK_MSG(buffer_.empty() && last_boundary_ == INT64_MIN,
                "LoadState requires a freshly constructed detector");
  std::string_view payload;
  if (!UnwrapFrame(bytes, &payload, error)) return false;
  BinaryReader r(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  if (!r.ReadU32(&magic) || magic != kMagic) {
    return LoadError(error, "bad payload magic");
  }
  if (!r.ReadU32(&version) || version != kFormatVersion) {
    return LoadError(error, "unsupported payload format version");
  }
  if (!r.ReadU64(&fingerprint) ||
      fingerprint != plan_.workload().Fingerprint()) {
    return LoadError(error, "workload fingerprint mismatch");
  }
  if (!r.ReadI64(&last_boundary_)) {
    return LoadError(error, "truncated payload");
  }

  // Adopt the serialized basis: the saved skyband layers are indices into
  // *its* layer set, which may be wider than what this detector compiled
  // from the (fingerprint-matching) workload — e.g. the saved detector
  // carried headroom or went through overlay swaps.
  WorkloadPlan::Basis basis;
  uint64_t n_layers = 0, n_counts = 0, n_reqs = 0;
  if (!r.ReadU64(&n_layers)) return LoadError(error, "truncated basis");
  basis.layer_r.resize(n_layers);
  for (double& v : basis.layer_r) {
    if (!r.ReadDouble(&v)) return LoadError(error, "truncated basis");
  }
  if (!r.ReadI64(&basis.win) || !r.ReadU64(&n_counts)) {
    return LoadError(error, "truncated basis");
  }
  basis.max_layer_for_count.resize(n_counts);
  for (int& layer : basis.max_layer_for_count) {
    uint32_t v = 0;
    if (!r.ReadU32(&v)) return LoadError(error, "truncated basis");
    layer = static_cast<int>(v);
  }
  if (!r.ReadU64(&n_reqs)) return LoadError(error, "truncated basis");
  basis.safety_requirements.resize(n_reqs);
  for (WorkloadPlan::SafetyRequirement& req : basis.safety_requirements) {
    uint32_t layer = 0;
    if (!r.ReadU32(&layer) || !r.ReadI64(&req.k)) {
      return LoadError(error, "truncated basis");
    }
    req.layer = static_cast<int>(layer);
  }
  if (basis != plan_.basis()) {
    if (!plan_.AdoptBasis(std::move(basis))) {
      return LoadError(error, "basis invalid or does not cover workload");
    }
    // Every lane's per-layer scratch table is sized to the basis.
    for (Lane& lane : lanes_) lane.ksky.SyncPlanGeometry();
  }

  int64_t first_seq = 0;
  uint64_t count = 0;
  if (!r.ReadI64(&first_seq) || !r.ReadU64(&count) || first_seq < 0) {
    return LoadError(error, "bad window header");
  }
  buffer_.ResetTo(first_seq);
  received_any_ = true;
  for (uint64_t i = 0; i < count; ++i) {
    Point p;
    p.seq = first_seq + static_cast<Seq>(i);
    uint32_t dims = 0;
    if (!r.ReadI64(&p.time) || !r.ReadU32(&dims)) {
      return LoadError(error, "truncated point");
    }
    p.values.resize(dims);
    for (double& v : p.values) {
      if (!r.ReadDouble(&v)) return LoadError(error, "truncated point");
    }
    buffer_.Append(std::move(p));
  }

  for (uint64_t i = 0; i < count; ++i) {
    PointState st;
    uint64_t entries = 0;
    if (!r.ReadBool(&st.evaluated) || !r.ReadBool(&st.safe) ||
        !r.ReadU64(&entries)) {
      return LoadError(error, "truncated evidence");
    }
    for (uint64_t e = 0; e < entries; ++e) {
      SkybandEntry entry;
      uint32_t layer = 0;
      if (!r.ReadI64(&entry.seq) || !r.ReadI64(&entry.key) ||
          !r.ReadU32(&layer)) {
        return LoadError(error, "truncated skyband entry");
      }
      if (layer < 1 || static_cast<int>(layer) > plan_.num_layers()) {
        return LoadError(error, "skyband layer out of range");
      }
      entry.layer = static_cast<int32_t>(layer);
      st.skyband.Append(entry);
    }
    states_.push_back(std::move(st));
  }

  if (!r.ReadI64(&stats_.ksky_scans) ||
      !r.ReadI64(&stats_.distances_computed) ||
      !r.ReadI64(&stats_.candidates_examined) ||
      !r.ReadI64(&stats_.early_terminations) ||
      !r.ReadI64(&stats_.safe_points_discovered)) {
    return LoadError(error, "truncated counters");
  }
  if (!r.AtEnd()) return LoadError(error, "trailing bytes in payload");
  return true;
}

}  // namespace sop
