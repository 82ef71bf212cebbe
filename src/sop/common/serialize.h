// Minimal binary serialization helpers for checkpoints, session state and
// the wire protocol, plus the one codec of a Point, which the wire and the
// retained window tail (stream/stream_tail.h) share.
//
// Fixed-width little-endian encoding, no exceptions: writers cannot fail;
// readers return false on truncated or malformed input and the caller
// discards the partial state. Not an interchange format — a checkpoint is
// only guaranteed readable by the same library version that wrote it
// (guarded by a format-version word).

#ifndef SOP_COMMON_SERIALIZE_H_
#define SOP_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "sop/common/point.h"

namespace sop {

/// Appends fixed-width values to a byte string.
class BinaryWriter {
 public:
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteBool(bool v) {
    const uint8_t b = v ? 1 : 0;
    Append(&b, sizeof(b));
  }
  /// Length-prefixed byte string (u64 length + raw bytes).
  void WriteBytes(std::string_view v) {
    WriteU64(v.size());
    Append(v.data(), v.size());
  }

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  void Append(const void* data, size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }

  std::string bytes_;
};

/// Consumes fixed-width values from a byte view. All reads return false on
/// underflow; once a read fails, the reader stays failed.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU32(uint32_t* v) { return Consume(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Consume(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return Consume(v, sizeof(*v)); }
  bool ReadDouble(double* v) { return Consume(v, sizeof(*v)); }
  bool ReadBool(bool* v) {
    uint8_t b = 0;
    if (!Consume(&b, sizeof(b)) || b > 1) return Fail();
    *v = b != 0;
    return true;
  }
  /// Length-prefixed byte string (inverse of BinaryWriter::WriteBytes).
  bool ReadBytes(std::string* v) {
    uint64_t n = 0;
    if (!ReadU64(&n) || bytes_.size() - pos_ < n) return Fail();
    v->assign(bytes_.data() + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  /// True when every byte has been consumed and no read failed.
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }
  bool ok() const { return ok_; }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  bool Consume(void* out, size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) return Fail();
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Writes `p`'s time and values, not its seq: the time, a u64 dimension
/// count, then one double per value.
void WritePoint(BinaryWriter* w, const Point& p);

/// Reads what WritePoint wrote into `*p`, leaving `p->seq` alone. Values
/// are read one at a time, so a corrupt dimension count fails at the first
/// missing byte instead of allocating.
bool ReadPoint(BinaryReader* r, Point* p);

}  // namespace sop

#endif  // SOP_COMMON_SERIALIZE_H_
