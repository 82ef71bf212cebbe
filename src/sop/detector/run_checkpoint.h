// RunCheckpoint: the engine-level crash-recovery unit.
//
// A run checkpoint captures everything ExecutionEngine needs to resume a
// detector run mid-stream and produce emissions identical to a run that
// was never interrupted:
//
//   * identity guards — workload fingerprint, detector name, window type
//     and batch span; restore refuses a checkpoint taken under different
//     semantics,
//   * the run's StreamTail: its position continues the batch schedule
//     (the source skips next_seq() records; time windows go on one span
//     after last_boundary()), and its retained batches are replayed
//     through a fresh detector, which is exact for every detector. It has
//     SopSession state's codec, so every restart is one mechanism.
//
// On disk a checkpoint is one common/frame.h frame (magic + version +
// length + CRC-32) written atomically via temp-file + rename
// (io/file_util.h), so a crashed writer can never leave a half-written
// checkpoint where a reader will trust it; LoadRunCheckpoint rejects
// truncated, corrupted, or cross-version files and tails that break a
// stream rule with a diagnostic.
//
// Save/Load publish and restore through io::PublishGeneration and
// io::ReadNewestGeneration, which consult the armed FaultInjector
// (common/fault.h) at the checkpoint-write / checkpoint-read /
// checkpoint-bytes sites; that is how the corruption drills exercise these
// paths end to end.

#ifndef SOP_DETECTOR_RUN_CHECKPOINT_H_
#define SOP_DETECTOR_RUN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "sop/stream/stream_tail.h"

namespace sop {

/// Snapshot of one engine run in progress. See file comment.
struct RunCheckpoint {
  /// Identity guards. The window type is the tail's.
  uint64_t workload_fingerprint = 0;
  std::string detector_name;
  int64_t batch_span = 0;

  int64_t batches_advanced = 0;  // for the checkpoint cadence
  /// The stream position and the replay tail.
  StreamTail tail{WindowType::kCount};
};

/// Serializes `cp` into one framed, checksummed byte string.
std::string SerializeRunCheckpoint(const RunCheckpoint& cp);

/// Parses a framed checkpoint. Returns false with a diagnostic in `*error`
/// on any truncation, corruption, version mismatch, or refused tail.
bool DeserializeRunCheckpoint(std::string_view bytes, RunCheckpoint* out,
                              std::string* error);

/// Atomically writes `cp` to `path` (temp + rename). Consults the armed
/// FaultInjector: an injected checkpoint-write failure returns false (the
/// previous checkpoint at `path` survives); injected checkpoint-bytes
/// corruption flips a bit in the written frame (reads must then reject it).
///
/// With `generations > 1` the previous files are first rotated one slot
/// older (path -> path.1 -> ... -> path.<generations-1>,
/// io::PublishGeneration), so the last `generations` complete checkpoints
/// survive on disk and LoadRunCheckpoint can fall back past a corrupt
/// newest one.
bool SaveRunCheckpoint(const std::string& path, const RunCheckpoint& cp,
                       std::string* error, int generations = 1);

/// Reads and validates the checkpoint at `path`. Returns false with a
/// diagnostic on missing/unreadable files, injected read failures, and
/// every form of corruption the frame detects.
///
/// With `generations > 1`, a newest generation that is missing, corrupt,
/// or hit by an injected read failure does not end the restore: each older
/// generation is tried in turn and the first one that validates wins
/// (resuming there replays a longer stream suffix, which is correct —
/// checkpoints are prefixes of one deterministic run). `*error`
/// accumulates one line per rejected generation; `*loaded_generation`
/// (optional) reports which slot was used.
bool LoadRunCheckpoint(const std::string& path, RunCheckpoint* out,
                       std::string* error, int generations = 1,
                       int* loaded_generation = nullptr);

}  // namespace sop

#endif  // SOP_DETECTOR_RUN_CHECKPOINT_H_
