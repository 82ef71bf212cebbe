// Whole-file byte I/O with crash-consistent writes.
//
// WriteFileAtomic provides the publish step checkpointing relies on: the
// bytes land in a sibling temp file first and are renamed over the target
// only after a successful flush, so a reader never observes a half-written
// file — it sees either the previous complete checkpoint or the new one.
// (rename(2) within one directory is atomic on POSIX; crash between write
// and rename leaves at most a stray .tmp sibling.)
//
// PublishGeneration and ReadNewestGeneration are the one publish and
// restore path of every checkpoint writer (run checkpoints, the server's
// snapshots): generation rotation, the atomic publish, the newest-first
// restore walk, and the checkpoint fault sites (common/fault.h). Callers
// keep their own formats and counters.

#ifndef SOP_IO_FILE_UTIL_H_
#define SOP_IO_FILE_UTIL_H_

#include <functional>
#include <string>

namespace sop {
namespace io {

/// Reads the whole file at `path` into `*out` (binary). Returns false and
/// sets `*error` when the file cannot be opened or read.
bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error);

/// Writes `bytes` to `path` via a temp-file + rename publish. On failure
/// (open, write, flush, or rename) returns false with `*error` set and
/// leaves any previous file at `path` intact.
bool WriteFileAtomic(const std::string& path, const std::string& bytes,
                     std::string* error);

/// The on-disk name of generation `generation` of `path`: generation 0 is
/// `path` itself (the newest), older ones are `path.1`, `path.2`, ...
std::string GenerationPath(const std::string& path, int generation);

/// Publishes `bytes` as the newest of `generations` checkpoint files at
/// `path`. Existing generations first shift one slot older (path.(g-2) ->
/// path.(g-1), ..., path -> path.1), one rename(2) each, so a crash
/// mid-rotation loses at most ordering, never a complete file; then the
/// bytes are written with WriteFileAtomic. Consults the armed
/// FaultInjector: kCheckpointWrite skips the save (false, and the previous
/// files stay valid), kCheckpointBytes corrupts the bytes first (framing
/// catches it on restore).
bool PublishGeneration(const std::string& path, std::string bytes,
                       int generations, std::string* error);

/// Walks `path`'s `generations` files newest first (at least one) and
/// returns the first generation that reads and that `decode` accepts, or
/// -1 with `*error` naming each generation's failure. An armed
/// kCheckpointRead fault fails one generation's read.
int ReadNewestGeneration(
    const std::string& path, int generations,
    const std::function<bool(const std::string& bytes, std::string* error)>&
        decode,
    std::string* error);

}  // namespace io
}  // namespace sop

#endif  // SOP_IO_FILE_UTIL_H_
