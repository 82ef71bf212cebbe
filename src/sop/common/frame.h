// Checksum framing for checkpoints, session state and wire messages.
//
// A frame wraps an opaque payload with enough redundancy to detect every
// truncation, extension, or bit-level corruption a crashed writer or a bad
// disk can produce:
//
//   offset  size  field
//   0       4     magic "SOPF" (0x53'4f'50'46, little-endian u32)
//   4       4     frame format version (kFrameVersion)
//   8       8     payload length in bytes (u64)
//   16      4     CRC-32 (IEEE 802.3, reflected) of the payload
//   20      n     payload
//
// UnwrapFrame rejects anything that does not match exactly — short input,
// trailing garbage, unknown versions, length/CRC mismatches — and reports
// why through an error string (the library is exception-free). A frame
// says nothing about what the payload means; payload versioning lives with
// the payload's own writer (e.g. detector/run_checkpoint.cc).

#ifndef SOP_COMMON_FRAME_H_
#define SOP_COMMON_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sop {

/// CRC-32 (IEEE 802.3 polynomial, reflected, init/final 0xFFFFFFFF) of
/// `bytes`. Detects all single-bit errors and all burst errors up to 32
/// bits, which covers the corruption modes checkpoint restore must survive.
uint32_t Crc32(std::string_view bytes);

/// Current frame format version written by WrapFrame.
inline constexpr uint32_t kFrameVersion = 1;

/// Size of the fixed frame header (magic + version + length + CRC).
inline constexpr size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;

/// Validates the fixed-size header prefix of a frame without requiring the
/// payload to be present yet: checks magic and version and extracts the
/// payload length. This is what incremental decoders (net/protocol.h) use
/// to know how many more bytes to wait for before UnwrapFrame can run on
/// the complete frame. `header` must hold at least kFrameHeaderBytes.
bool ParseFrameHeader(std::string_view header, uint64_t* payload_length,
                      std::string* error = nullptr);

/// Wraps `payload` in a magic + version + length + CRC frame.
std::string WrapFrame(std::string_view payload);

/// Validates a frame and exposes its payload as a view into `framed`
/// (no copy; the view is valid while `framed`'s storage lives). Returns
/// false and describes the problem in `*error` (if non-null) when the
/// input is truncated, oversized, corrupted, or of an unknown version.
bool UnwrapFrame(std::string_view framed, std::string_view* payload,
                 std::string* error = nullptr);

}  // namespace sop

#endif  // SOP_COMMON_FRAME_H_
