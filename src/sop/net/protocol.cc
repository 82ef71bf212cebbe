#include "sop/net/protocol.h"

#include <utility>

#include "sop/common/frame.h"
#include "sop/common/serialize.h"

namespace sop {
namespace net {

namespace {

bool Malformed(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string("wire message: ") + what;
  return false;
}

// Reads and verifies the leading type word.
bool ConsumeType(BinaryReader* r, MsgType expected, std::string* error) {
  uint32_t word = 0;
  if (!r->ReadU32(&word)) return Malformed(error, "truncated type word");
  if (word != static_cast<uint32_t>(expected)) {
    return Malformed(error, "unexpected message type");
  }
  return true;
}

// Every message ends here: the reader must be clean and fully consumed.
bool FinishDecode(const BinaryReader& r, std::string* error) {
  if (!r.AtEnd()) return Malformed(error, "trailing bytes");
  return true;
}

std::string Finish(BinaryWriter* w) { return WrapFrame(w->bytes()); }

BinaryWriter Begin(MsgType type) {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(type));
  return w;
}

void WriteEmissionRecord(BinaryWriter* w, const EmissionRecord& rec) {
  w->WriteDouble(rec.query.r);
  w->WriteI64(rec.query.k);
  w->WriteI64(rec.query.win);
  w->WriteI64(rec.query.slide);
  w->WriteI64(rec.boundary);
  w->WriteBool(rec.degraded);
  w->WriteU64(rec.outliers.size());
  for (const Seq s : rec.outliers) w->WriteI64(s);
}

bool ReadEmissionRecord(BinaryReader* r, EmissionRecord* rec,
                        std::string* error) {
  uint64_t count = 0;
  if (!r->ReadDouble(&rec->query.r) || !r->ReadI64(&rec->query.k) ||
      !r->ReadI64(&rec->query.win) || !r->ReadI64(&rec->query.slide) ||
      !r->ReadI64(&rec->boundary) || !r->ReadBool(&rec->degraded) ||
      !r->ReadU64(&count)) {
    return Malformed(error, "truncated emission record");
  }
  rec->query.attribute_set = 0;
  for (uint64_t i = 0; i < count; ++i) {
    Seq s = 0;
    if (!r->ReadI64(&s)) return Malformed(error, "truncated emission record");
    rec->outliers.push_back(s);
  }
  return true;
}

void WriteRingShard(BinaryWriter* w, const ResumeRingShard& shard) {
  w->WriteDouble(shard.query.r);
  w->WriteI64(shard.query.k);
  w->WriteI64(shard.query.win);
  w->WriteI64(shard.query.slide);
  w->WriteI64(shard.evicted_to);
  w->WriteU64(shard.entries.size());
  for (const ResumeRingShard::Entry& e : shard.entries) {
    w->WriteI64(e.boundary);
    w->WriteBool(e.degraded);
    w->WriteU64(e.outliers.size());
    for (const Seq s : e.outliers) w->WriteI64(s);
  }
}

bool ReadRingShard(BinaryReader* r, ResumeRingShard* shard,
                   std::string* error) {
  uint64_t entries = 0;
  if (!r->ReadDouble(&shard->query.r) || !r->ReadI64(&shard->query.k) ||
      !r->ReadI64(&shard->query.win) || !r->ReadI64(&shard->query.slide) ||
      !r->ReadI64(&shard->evicted_to) || !r->ReadU64(&entries)) {
    return Malformed(error, "truncated ring shard");
  }
  shard->query.attribute_set = 0;
  for (uint64_t i = 0; i < entries; ++i) {
    ResumeRingShard::Entry e;
    uint64_t count = 0;
    if (!r->ReadI64(&e.boundary) || !r->ReadBool(&e.degraded) ||
        !r->ReadU64(&count)) {
      return Malformed(error, "truncated ring entry");
    }
    for (uint64_t j = 0; j < count; ++j) {
      Seq s = 0;
      if (!r->ReadI64(&s)) return Malformed(error, "truncated ring entry");
      e.outliers.push_back(s);
    }
    shard->entries.push_back(std::move(e));
  }
  return true;
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kHelloAck:
      return "hello-ack";
    case MsgType::kIngest:
      return "ingest";
    case MsgType::kIngestAck:
      return "ingest-ack";
    case MsgType::kSubscribe:
      return "subscribe";
    case MsgType::kSubscribeAck:
      return "subscribe-ack";
    case MsgType::kUnsubscribe:
      return "unsubscribe";
    case MsgType::kUnsubscribeAck:
      return "unsubscribe-ack";
    case MsgType::kEmission:
      return "emission";
    case MsgType::kError:
      return "error";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPong:
      return "pong";
    case MsgType::kReplSnapshot:
      return "repl-snapshot";
    case MsgType::kReplBatch:
      return "repl-batch";
    case MsgType::kReplAck:
      return "repl-ack";
    case MsgType::kShardConfig:
      return "shard-config";
    case MsgType::kShardConfigAck:
      return "shard-config-ack";
  }
  return "unknown";
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

std::string EncodeHello(const HelloMsg& msg) {
  BinaryWriter w = Begin(MsgType::kHello);
  w.WriteU32(msg.protocol_version);
  return Finish(&w);
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  BinaryWriter w = Begin(MsgType::kHelloAck);
  w.WriteU32(msg.protocol_version);
  w.WriteU32(msg.window_type);
  w.WriteU32(msg.metric);
  w.WriteU32(msg.role);
  w.WriteBytes(msg.detector);
  w.WriteI64(msg.last_boundary);
  w.WriteU64(msg.next_seq);
  return Finish(&w);
}

std::string EncodeIngest(const IngestMsg& msg) {
  BinaryWriter w = Begin(MsgType::kIngest);
  w.WriteI64(msg.boundary);
  w.WriteU64(msg.points.size());
  for (const Point& p : msg.points) WritePoint(&w, p);
  w.WriteU64(msg.owner.size());
  for (const uint8_t o : msg.owner) w.WriteBool(o != 0);
  return Finish(&w);
}

std::string EncodeIngestAck(const IngestAckMsg& msg) {
  BinaryWriter w = Begin(MsgType::kIngestAck);
  w.WriteI64(msg.boundary);
  w.WriteU64(msg.accepted);
  w.WriteU64(msg.emissions);
  w.WriteU64(msg.next_seq);
  return Finish(&w);
}

std::string EncodeSubscribe(const SubscribeMsg& msg) {
  BinaryWriter w = Begin(MsgType::kSubscribe);
  w.WriteDouble(msg.query.r);
  w.WriteI64(msg.query.k);
  w.WriteI64(msg.query.win);
  w.WriteI64(msg.query.slide);
  w.WriteI64(msg.resume_from);
  return Finish(&w);
}

std::string EncodeSubscribeAck(const SubscribeAckMsg& msg) {
  BinaryWriter w = Begin(MsgType::kSubscribeAck);
  w.WriteI64(msg.query_id);
  w.WriteU64(msg.replayed);
  w.WriteBool(msg.gap);
  w.WriteBytes(msg.error);
  return Finish(&w);
}

std::string EncodeUnsubscribe(const UnsubscribeMsg& msg) {
  BinaryWriter w = Begin(MsgType::kUnsubscribe);
  w.WriteI64(msg.query_id);
  return Finish(&w);
}

std::string EncodeUnsubscribeAck(const UnsubscribeAckMsg& msg) {
  BinaryWriter w = Begin(MsgType::kUnsubscribeAck);
  w.WriteBool(msg.ok);
  return Finish(&w);
}

std::string EncodeEmission(const EmissionMsg& msg) {
  BinaryWriter w = Begin(MsgType::kEmission);
  w.WriteI64(msg.query_id);
  w.WriteI64(msg.boundary);
  w.WriteBool(msg.degraded);
  w.WriteU64(msg.outliers.size());
  for (const Seq s : msg.outliers) w.WriteI64(s);
  return Finish(&w);
}

std::string EncodeError(const ErrorMsg& msg) {
  BinaryWriter w = Begin(MsgType::kError);
  w.WriteBytes(msg.message);
  return Finish(&w);
}

std::string EncodePing(const PingMsg& msg) {
  BinaryWriter w = Begin(MsgType::kPing);
  w.WriteU64(msg.token);
  return Finish(&w);
}

std::string EncodePong(const PongMsg& msg) {
  BinaryWriter w = Begin(MsgType::kPong);
  w.WriteU64(msg.token);
  w.WriteU32(msg.role);
  w.WriteI64(msg.last_boundary);
  w.WriteU64(msg.ingest_queue_depth);
  w.WriteU64(msg.send_queue_depth);
  w.WriteU64(msg.active_connections);
  return Finish(&w);
}

std::string EncodeReplSnapshot(const ReplSnapshotMsg& msg) {
  BinaryWriter w = Begin(MsgType::kReplSnapshot);
  w.WriteBytes(msg.state);
  w.WriteU64(msg.ring.size());
  for (const ResumeRingShard& shard : msg.ring) WriteRingShard(&w, shard);
  return Finish(&w);
}

std::string EncodeReplBatch(const ReplBatchMsg& msg) {
  BinaryWriter w = Begin(MsgType::kReplBatch);
  w.WriteI64(msg.prev_boundary);
  w.WriteI64(msg.boundary);
  w.WriteU64(msg.points.size());
  for (const Point& p : msg.points) WritePoint(&w, p);
  w.WriteU64(msg.results.size());
  for (const EmissionRecord& rec : msg.results) WriteEmissionRecord(&w, rec);
  return Finish(&w);
}

std::string EncodeReplAck(const ReplAckMsg& msg) {
  BinaryWriter w = Begin(MsgType::kReplAck);
  w.WriteI64(msg.boundary);
  w.WriteBool(msg.need_snapshot);
  return Finish(&w);
}

std::string EncodeShardConfig(const ShardConfigMsg& msg) {
  BinaryWriter w = Begin(MsgType::kShardConfig);
  w.WriteU32(msg.shard_index);
  w.WriteU32(msg.num_shards);
  w.WriteDouble(msg.lo);
  w.WriteDouble(msg.hi);
  w.WriteDouble(msg.halo);
  return Finish(&w);
}

std::string EncodeShardConfigAck(const ShardConfigAckMsg& msg) {
  BinaryWriter w = Begin(MsgType::kShardConfigAck);
  w.WriteBool(msg.ok);
  w.WriteBytes(msg.error);
  return Finish(&w);
}

bool PeekType(std::string_view payload, MsgType* type, std::string* error) {
  BinaryReader r(payload);
  uint32_t word = 0;
  if (!r.ReadU32(&word)) return Malformed(error, "truncated type word");
  if (word < static_cast<uint32_t>(MsgType::kHello) ||
      word > static_cast<uint32_t>(MsgType::kShardConfigAck)) {
    return Malformed(error, "unknown message type");
  }
  *type = static_cast<MsgType>(word);
  return true;
}

bool DecodeHello(std::string_view payload, HelloMsg* out, std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kHello, error)) return false;
  if (!r.ReadU32(&out->protocol_version)) {
    return Malformed(error, "truncated hello");
  }
  return FinishDecode(r, error);
}

bool DecodeHelloAck(std::string_view payload, HelloAckMsg* out,
                    std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kHelloAck, error)) return false;
  if (!r.ReadU32(&out->protocol_version) || !r.ReadU32(&out->window_type) ||
      !r.ReadU32(&out->metric) || !r.ReadU32(&out->role) ||
      !r.ReadBytes(&out->detector) || !r.ReadI64(&out->last_boundary) ||
      !r.ReadU64(&out->next_seq)) {
    return Malformed(error, "truncated hello-ack");
  }
  return FinishDecode(r, error);
}

bool DecodeIngest(std::string_view payload, IngestMsg* out,
                  std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kIngest, error)) return false;
  uint64_t count = 0;
  if (!r.ReadI64(&out->boundary) || !r.ReadU64(&count)) {
    return Malformed(error, "truncated ingest");
  }
  out->points.clear();
  for (uint64_t i = 0; i < count; ++i) {
    Point p;
    if (!ReadPoint(&r, &p)) return Malformed(error, "truncated point");
    out->points.push_back(std::move(p));
  }
  uint64_t owners = 0;
  if (!r.ReadU64(&owners)) return Malformed(error, "truncated ingest");
  if (owners != 0 && owners != count) {
    return Malformed(error, "owner flag count mismatch");
  }
  out->owner.clear();
  for (uint64_t i = 0; i < owners; ++i) {
    bool o = false;
    if (!r.ReadBool(&o)) return Malformed(error, "truncated ingest");
    out->owner.push_back(o ? 1 : 0);
  }
  return FinishDecode(r, error);
}

bool DecodeIngestAck(std::string_view payload, IngestAckMsg* out,
                     std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kIngestAck, error)) return false;
  if (!r.ReadI64(&out->boundary) || !r.ReadU64(&out->accepted) ||
      !r.ReadU64(&out->emissions) || !r.ReadU64(&out->next_seq)) {
    return Malformed(error, "truncated ingest-ack");
  }
  return FinishDecode(r, error);
}

bool DecodeSubscribe(std::string_view payload, SubscribeMsg* out,
                     std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kSubscribe, error)) return false;
  if (!r.ReadDouble(&out->query.r) || !r.ReadI64(&out->query.k) ||
      !r.ReadI64(&out->query.win) || !r.ReadI64(&out->query.slide) ||
      !r.ReadI64(&out->resume_from)) {
    return Malformed(error, "truncated subscribe");
  }
  out->query.attribute_set = 0;
  return FinishDecode(r, error);
}

bool DecodeSubscribeAck(std::string_view payload, SubscribeAckMsg* out,
                        std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kSubscribeAck, error)) return false;
  if (!r.ReadI64(&out->query_id) || !r.ReadU64(&out->replayed) ||
      !r.ReadBool(&out->gap) || !r.ReadBytes(&out->error)) {
    return Malformed(error, "truncated subscribe-ack");
  }
  return FinishDecode(r, error);
}

bool DecodeUnsubscribe(std::string_view payload, UnsubscribeMsg* out,
                       std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kUnsubscribe, error)) return false;
  if (!r.ReadI64(&out->query_id)) {
    return Malformed(error, "truncated unsubscribe");
  }
  return FinishDecode(r, error);
}

bool DecodeUnsubscribeAck(std::string_view payload, UnsubscribeAckMsg* out,
                          std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kUnsubscribeAck, error)) return false;
  if (!r.ReadBool(&out->ok)) {
    return Malformed(error, "truncated unsubscribe-ack");
  }
  return FinishDecode(r, error);
}

bool DecodeEmission(std::string_view payload, EmissionMsg* out,
                    std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kEmission, error)) return false;
  uint64_t count = 0;
  if (!r.ReadI64(&out->query_id) || !r.ReadI64(&out->boundary) ||
      !r.ReadBool(&out->degraded) || !r.ReadU64(&count)) {
    return Malformed(error, "truncated emission");
  }
  out->outliers.clear();
  for (uint64_t i = 0; i < count; ++i) {
    Seq s = 0;
    if (!r.ReadI64(&s)) return Malformed(error, "truncated emission");
    out->outliers.push_back(s);
  }
  return FinishDecode(r, error);
}

bool DecodeError(std::string_view payload, ErrorMsg* out, std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kError, error)) return false;
  if (!r.ReadBytes(&out->message)) {
    return Malformed(error, "truncated error message");
  }
  return FinishDecode(r, error);
}

bool DecodePing(std::string_view payload, PingMsg* out, std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kPing, error)) return false;
  if (!r.ReadU64(&out->token)) return Malformed(error, "truncated ping");
  return FinishDecode(r, error);
}

bool DecodePong(std::string_view payload, PongMsg* out, std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kPong, error)) return false;
  if (!r.ReadU64(&out->token) || !r.ReadU32(&out->role) ||
      !r.ReadI64(&out->last_boundary) || !r.ReadU64(&out->ingest_queue_depth) ||
      !r.ReadU64(&out->send_queue_depth) ||
      !r.ReadU64(&out->active_connections)) {
    return Malformed(error, "truncated pong");
  }
  return FinishDecode(r, error);
}

bool DecodeReplSnapshot(std::string_view payload, ReplSnapshotMsg* out,
                        std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kReplSnapshot, error)) return false;
  uint64_t count = 0;
  if (!r.ReadBytes(&out->state) || !r.ReadU64(&count)) {
    return Malformed(error, "truncated repl-snapshot");
  }
  out->ring.clear();
  for (uint64_t i = 0; i < count; ++i) {
    ResumeRingShard shard;
    if (!ReadRingShard(&r, &shard, error)) return false;
    out->ring.push_back(std::move(shard));
  }
  return FinishDecode(r, error);
}

bool DecodeReplBatch(std::string_view payload, ReplBatchMsg* out,
                     std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kReplBatch, error)) return false;
  uint64_t points = 0;
  if (!r.ReadI64(&out->prev_boundary) || !r.ReadI64(&out->boundary) ||
      !r.ReadU64(&points)) {
    return Malformed(error, "truncated repl-batch");
  }
  out->points.clear();
  for (uint64_t i = 0; i < points; ++i) {
    Point p;
    if (!ReadPoint(&r, &p)) return Malformed(error, "truncated point");
    out->points.push_back(std::move(p));
  }
  uint64_t results = 0;
  if (!r.ReadU64(&results)) return Malformed(error, "truncated repl-batch");
  out->results.clear();
  for (uint64_t i = 0; i < results; ++i) {
    EmissionRecord rec;
    if (!ReadEmissionRecord(&r, &rec, error)) return false;
    out->results.push_back(std::move(rec));
  }
  return FinishDecode(r, error);
}

bool DecodeReplAck(std::string_view payload, ReplAckMsg* out,
                   std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kReplAck, error)) return false;
  if (!r.ReadI64(&out->boundary) || !r.ReadBool(&out->need_snapshot)) {
    return Malformed(error, "truncated repl-ack");
  }
  return FinishDecode(r, error);
}

bool DecodeShardConfig(std::string_view payload, ShardConfigMsg* out,
                       std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kShardConfig, error)) return false;
  if (!r.ReadU32(&out->shard_index) || !r.ReadU32(&out->num_shards) ||
      !r.ReadDouble(&out->lo) || !r.ReadDouble(&out->hi) ||
      !r.ReadDouble(&out->halo)) {
    return Malformed(error, "truncated shard-config");
  }
  if (out->num_shards == 0 || out->shard_index >= out->num_shards) {
    return Malformed(error, "shard index out of range");
  }
  return FinishDecode(r, error);
}

bool DecodeShardConfigAck(std::string_view payload, ShardConfigAckMsg* out,
                          std::string* error) {
  BinaryReader r(payload);
  if (!ConsumeType(&r, MsgType::kShardConfigAck, error)) return false;
  if (!r.ReadBool(&out->ok) || !r.ReadBytes(&out->error)) {
    return Malformed(error, "truncated shard-config-ack");
  }
  return FinishDecode(r, error);
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
