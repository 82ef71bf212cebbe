#include "sop/detector/run_checkpoint.h"

#include "sop/common/frame.h"
#include "sop/io/file_util.h"
#include "sop/obs/trace.h"

namespace sop {

namespace {

constexpr uint32_t kRunMagic = 0x53'4f'50'52;  // "SOPR"
// v3 holds the stream tail (StreamTail::Write, as SopSession state does)
// in place of v2's stream position and per-point seqs; only v3 is read.
constexpr uint32_t kRunFormatVersion = 3;

bool RunError(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string("run checkpoint: ") + what;
  return false;
}

}  // namespace

std::string SerializeRunCheckpoint(const RunCheckpoint& cp) {
  BinaryWriter w;
  w.WriteU32(kRunMagic);
  w.WriteU32(kRunFormatVersion);
  w.WriteU64(cp.workload_fingerprint);
  w.WriteBytes(cp.detector_name);
  w.WriteU32(cp.tail.window_type() == WindowType::kCount ? 0 : 1);
  w.WriteI64(cp.batch_span);
  w.WriteI64(cp.batches_advanced);
  cp.tail.Write(&w);
  return WrapFrame(w.TakeBytes());
}

bool DeserializeRunCheckpoint(std::string_view bytes, RunCheckpoint* out,
                              std::string* error) {
  std::string_view payload;
  if (!UnwrapFrame(bytes, &payload, error)) return false;
  BinaryReader r(payload);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!r.ReadU32(&magic) || magic != kRunMagic) {
    return RunError(error, "bad payload magic");
  }
  if (!r.ReadU32(&version) || version != kRunFormatVersion) {
    return RunError(error, "unsupported payload format version");
  }
  RunCheckpoint cp;
  uint32_t window_type = 0;
  if (!r.ReadU64(&cp.workload_fingerprint) ||
      !r.ReadBytes(&cp.detector_name) || !r.ReadU32(&window_type) ||
      window_type > 1 || !r.ReadI64(&cp.batch_span) ||
      !r.ReadI64(&cp.batches_advanced)) {
    return RunError(error, "truncated header");
  }
  if (cp.batch_span <= 0 || cp.batches_advanced < 0) {
    return RunError(error, "implausible stream position");
  }
  cp.tail =
      StreamTail(window_type == 0 ? WindowType::kCount : WindowType::kTime);
  const std::string refusal = cp.tail.Read(&r);
  if (!refusal.empty()) return RunError(error, refusal.c_str());
  if (!r.AtEnd()) return RunError(error, "trailing bytes in payload");
  *out = std::move(cp);
  return true;
}

bool SaveRunCheckpoint(const std::string& path, const RunCheckpoint& cp,
                       std::string* error, int generations) {
  std::string publish_error;
  if (!io::PublishGeneration(path, SerializeRunCheckpoint(cp), generations,
                             &publish_error)) {
    return RunError(error, publish_error.c_str());
  }
  SOP_COUNTER_ADD("resilience/checkpoint_saves", 1);
  return true;
}

bool LoadRunCheckpoint(const std::string& path, RunCheckpoint* out,
                       std::string* error, int generations,
                       int* loaded_generation) {
  std::string failures;
  const int g = io::ReadNewestGeneration(
      path, generations,
      [out](const std::string& bytes, std::string* decode_error) {
        return DeserializeRunCheckpoint(bytes, out, decode_error);
      },
      &failures);
  if (g < 0) {
    if (error != nullptr) *error = failures;
    return false;
  }
  if (g > 0) SOP_COUNTER_ADD("resilience/checkpoint_fallbacks", 1);
  if (loaded_generation != nullptr) *loaded_generation = g;
  return true;
}

}  // namespace sop
