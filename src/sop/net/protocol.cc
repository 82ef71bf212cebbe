#include "sop/net/protocol.h"

#include <iterator>
#include <type_traits>
#include <utility>

#include "sop/common/frame.h"
#include "sop/common/serialize.h"

namespace sop {
namespace net {

namespace {

bool Malformed(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "wire message: " + what;
  return false;
}

// `T` as a walker sees it: const when encoding.
template <class IO, class T>
using Rec = std::conditional_t<IO::kEncodes, const T, T>;

// Appends fields in wire order. Each wire primitive has one overload; any
// other type lands on the record overload and fails to compile there,
// since no field list takes it.
class Writer {
 public:
  static constexpr bool kEncodes = true;

  explicit Writer(MsgType type) { w_.WriteU32(static_cast<uint32_t>(type)); }

  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

  std::string Frame() const { return WrapFrame(w_.bytes()); }

 private:
  void Put(uint32_t v) { w_.WriteU32(v); }
  void Put(uint64_t v) { w_.WriteU64(v); }
  void Put(int64_t v) { w_.WriteI64(v); }
  void Put(double v) { w_.WriteDouble(v); }
  void Put(bool v) { w_.WriteBool(v); }
  void Put(uint8_t owner_flag) { w_.WriteBool(owner_flag != 0); }
  void Put(const std::string& v) { w_.WriteBytes(v); }
  void Put(const Point& p) { WritePoint(&w_, p); }
  template <class T>
  void Put(const std::vector<T>& v) {
    w_.WriteU64(v.size());
    for (const T& e : v) Put(e);
  }
  template <class R>
  void Put(const R& record) {
    Fields(*this, record);
  }

  BinaryWriter w_;
};

// Reads fields in wire order, the inverse of Writer. The first failed read
// fails the reader for good, so a vector stops at its first missing
// element: it grows one element at a time and no decoded count sizes an
// allocation.
class Reader {
 public:
  static constexpr bool kEncodes = false;

  explicit Reader(BinaryReader* r) : r_(*r) {}

  template <class... F>
  void operator()(F&... fields) {
    (Get(fields), ...);
  }

 private:
  void Get(uint32_t& v) { r_.ReadU32(&v); }
  void Get(uint64_t& v) { r_.ReadU64(&v); }
  void Get(int64_t& v) { r_.ReadI64(&v); }
  void Get(double& v) { r_.ReadDouble(&v); }
  void Get(bool& v) { r_.ReadBool(&v); }
  void Get(uint8_t& owner_flag) {
    bool owned = false;
    r_.ReadBool(&owned);
    owner_flag = owned ? 1 : 0;
  }
  void Get(std::string& v) { r_.ReadBytes(&v); }
  void Get(Point& p) { ReadPoint(&r_, &p); }
  template <class T>
  void Get(std::vector<T>& v) {
    uint64_t count = 0;
    r_.ReadU64(&count);
    for (uint64_t i = 0; i < count && r_.ok(); ++i) Get(v.emplace_back());
  }
  template <class R>
  void Get(R& record) {
    Fields(*this, record);
  }

  BinaryReader& r_;
};

// --- field lists, in wire order ------------------------------------------
// The nested records first. A query travels as r, k, win and slide only:
// the wire serves the full attribute space (attribute_set 0).

template <class IO>
void Fields(IO& io, Rec<IO, OutlierQuery>& q) { io(q.r, q.k, q.win, q.slide); }

template <class IO>
void Fields(IO& io, Rec<IO, EmissionRecord>& m) {
  io(m.query, m.boundary, m.degraded, m.outliers);
}

template <class IO>
void Fields(IO& io, Rec<IO, ResumeRingShard::Entry>& m) {
  io(m.boundary, m.degraded, m.outliers);
}

template <class IO>
void Fields(IO& io, Rec<IO, ResumeRingShard>& m) {
  io(m.query, m.evicted_to, m.entries);
}

template <class IO>
void Fields(IO& io, Rec<IO, HelloMsg>& m) { io(m.protocol_version); }

template <class IO>
void Fields(IO& io, Rec<IO, HelloAckMsg>& m) {
  io(m.protocol_version, m.window_type, m.metric, m.role, m.detector,
     m.last_boundary, m.next_seq);
}

template <class IO>
void Fields(IO& io, Rec<IO, IngestMsg>& m) {
  io(m.boundary, m.points, m.owner);
}

template <class IO>
void Fields(IO& io, Rec<IO, IngestAckMsg>& m) {
  io(m.boundary, m.accepted, m.emissions, m.next_seq);
}

template <class IO>
void Fields(IO& io, Rec<IO, SubscribeMsg>& m) { io(m.query, m.resume_from); }

template <class IO>
void Fields(IO& io, Rec<IO, SubscribeAckMsg>& m) {
  io(m.query_id, m.replayed, m.gap, m.error);
}

template <class IO>
void Fields(IO& io, Rec<IO, UnsubscribeMsg>& m) { io(m.query_id); }

template <class IO>
void Fields(IO& io, Rec<IO, UnsubscribeAckMsg>& m) { io(m.ok); }

template <class IO>
void Fields(IO& io, Rec<IO, EmissionMsg>& m) {
  io(m.query_id, m.boundary, m.degraded, m.outliers);
}

template <class IO>
void Fields(IO& io, Rec<IO, ErrorMsg>& m) { io(m.message); }

template <class IO>
void Fields(IO& io, Rec<IO, PingMsg>& m) { io(m.token); }

template <class IO>
void Fields(IO& io, Rec<IO, PongMsg>& m) {
  io(m.token, m.role, m.last_boundary, m.ingest_queue_depth,
     m.send_queue_depth, m.active_connections);
}

template <class IO>
void Fields(IO& io, Rec<IO, ReplSnapshotMsg>& m) { io(m.state, m.ring); }

template <class IO>
void Fields(IO& io, Rec<IO, ReplBatchMsg>& m) {
  io(m.prev_boundary, m.boundary, m.points, m.results);
}

template <class IO>
void Fields(IO& io, Rec<IO, ReplAckMsg>& m) { io(m.boundary, m.need_snapshot); }

// The refusals no field list can express: why a well-formed `m` is still
// malformed, or nullptr.
template <class M>
const char* Refusal(const M& /*m*/) {
  return nullptr;
}

const char* Refusal(const IngestMsg& m) {
  // Owner flags are all-or-nothing: none (every point owned) or one per
  // point.
  return m.owner.empty() || m.owner.size() == m.points.size()
             ? nullptr
             : "owner flag count mismatch";
}

}  // namespace

// Indexed by type word - 1.
constexpr const char* kMsgTypeNames[] = {
    "hello",         "hello-ack",       "ingest",        "ingest-ack",
    "subscribe",     "subscribe-ack",   "unsubscribe",   "unsubscribe-ack",
    "emission",      "error",           "ping",          "pong",
    "repl-snapshot", "repl-batch",      "repl-ack"};
static_assert(std::size(kMsgTypeNames) ==
              static_cast<size_t>(MsgType::kReplAck));

const char* MsgTypeName(MsgType type) {
  const auto word = static_cast<size_t>(type);
  if (word < 1 || word > std::size(kMsgTypeNames)) return "unknown";
  return kMsgTypeNames[word - 1];
}

const char* ServerRoleName(ServerRole role) {
  switch (role) {
    case ServerRole::kPrimary:
      return "primary";
    case ServerRole::kStandby:
      return "standby";
  }
  return "unknown";
}

template <class M>
std::string Encode(const M& msg) {
  Writer w(M::kType);
  Fields(w, msg);
  return w.Frame();
}

template <class M>
bool Decode(std::string_view payload, M* out, std::string* error) {
  BinaryReader r(payload);
  uint32_t word = 0;
  if (!r.ReadU32(&word)) return Malformed(error, "truncated type word");
  if (word != static_cast<uint32_t>(M::kType)) {
    return Malformed(error, "unexpected message type");
  }
  M msg;
  Reader reader(&r);
  Fields(reader, msg);
  if (!r.ok()) {
    return Malformed(error, std::string("truncated or malformed ") +
                                MsgTypeName(M::kType));
  }
  if (!r.AtEnd()) return Malformed(error, "trailing bytes");
  if (const char* refusal = Refusal(msg)) return Malformed(error, refusal);
  *out = std::move(msg);
  return true;
}

#define SOP_NET_INSTANTIATE_CODEC(M)    \
  template std::string Encode(const M&); \
  template bool Decode(std::string_view, M*, std::string*);
SOP_NET_INSTANTIATE_CODEC(HelloMsg)
SOP_NET_INSTANTIATE_CODEC(HelloAckMsg)
SOP_NET_INSTANTIATE_CODEC(IngestMsg)
SOP_NET_INSTANTIATE_CODEC(IngestAckMsg)
SOP_NET_INSTANTIATE_CODEC(SubscribeMsg)
SOP_NET_INSTANTIATE_CODEC(SubscribeAckMsg)
SOP_NET_INSTANTIATE_CODEC(UnsubscribeMsg)
SOP_NET_INSTANTIATE_CODEC(UnsubscribeAckMsg)
SOP_NET_INSTANTIATE_CODEC(EmissionMsg)
SOP_NET_INSTANTIATE_CODEC(ErrorMsg)
SOP_NET_INSTANTIATE_CODEC(PingMsg)
SOP_NET_INSTANTIATE_CODEC(PongMsg)
SOP_NET_INSTANTIATE_CODEC(ReplSnapshotMsg)
SOP_NET_INSTANTIATE_CODEC(ReplBatchMsg)
SOP_NET_INSTANTIATE_CODEC(ReplAckMsg)
#undef SOP_NET_INSTANTIATE_CODEC

bool PeekType(std::string_view payload, MsgType* type, std::string* error) {
  BinaryReader r(payload);
  uint32_t word = 0;
  if (!r.ReadU32(&word)) return Malformed(error, "truncated type word");
  if (word < 1 || word > std::size(kMsgTypeNames)) {
    return Malformed(error, "unknown message type");
  }
  *type = static_cast<MsgType>(word);
  return true;
}

void FrameDecoder::Append(const char* data, size_t n) {
  if (failed_) return;  // bytes after framing loss are unparseable anyway
  // Compact the consumed prefix before growing the buffer so steady-state
  // memory stays proportional to one frame, not to connection lifetime.
  if (consumed_ > 0 && (consumed_ >= buffer_.size() ||
                        consumed_ > kMaxFramePayload / 4)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

FrameDecoder::Status FrameDecoder::Next(std::string* payload,
                                        std::string* error) {
  auto fail = [this, error](const std::string& what) {
    failed_ = true;
    failure_ = what;
    if (error != nullptr) *error = what;
    return Status::kError;
  };
  if (failed_) {
    if (error != nullptr) *error = failure_;
    return Status::kError;
  }
  const std::string_view pending =
      std::string_view(buffer_).substr(consumed_);
  if (pending.size() < kFrameHeaderBytes) return Status::kNeedMore;
  uint64_t length = 0;
  std::string header_error;
  if (!ParseFrameHeader(pending, &length, &header_error)) {
    return fail(header_error);
  }
  if (length > kMaxFramePayload) return fail("wire frame: oversized payload");
  if (pending.size() - kFrameHeaderBytes < length) return Status::kNeedMore;
  const std::string_view frame =
      pending.substr(0, kFrameHeaderBytes + static_cast<size_t>(length));
  std::string_view body;
  std::string unwrap_error;
  if (!UnwrapFrame(frame, &body, &unwrap_error)) return fail(unwrap_error);
  payload->assign(body.data(), body.size());
  consumed_ += frame.size();
  return Status::kFrame;
}

}  // namespace net
}  // namespace sop
