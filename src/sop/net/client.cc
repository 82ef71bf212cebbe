#include "sop/net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "sop/common/clock.h"
#include "sop/obs/trace.h"

namespace sop {
namespace net {

namespace {

bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool SopClient::Connect(const std::string& host, int port,
                        std::string* error) {
  subs_.clear();
  server_to_public_.clear();
  sent_batches_.clear();
  emissions_.clear();
  errors_.clear();
  orphans_.clear();
  collect_orphans_ = false;
  recovered_boundary_ = kNoResume;
  recovered_next_seq_ = 0;
  shard_config_set_ = false;
  shard_config_ = ShardConfigMsg{};
  if (!ConnectRaw(host, port, error)) return false;
  connected_endpoint_ = Endpoint{host, port};
  return true;
}

bool SopClient::ConnectRaw(const std::string& host, int port,
                           std::string* error) {
  Close();
  sock_ = ConnectTcp(host, port, error);
  if (!sock_.valid()) return false;
  HelloMsg hello;
  if (!SendFrame(EncodeHello(hello), error)) return false;
  std::string payload;
  if (!ReadUntil(MsgType::kHelloAck, &payload, error)) return false;
  if (!DecodeHelloAck(payload, &server_info_, error)) {
    Close();
    return false;
  }
  if (server_info_.protocol_version != kProtocolVersion) {
    Close();
    return Fail(error, "server speaks protocol v" +
                           std::to_string(server_info_.protocol_version) +
                           ", client speaks v" +
                           std::to_string(kProtocolVersion));
  }
  return true;
}

void SopClient::EnableReconnect(ReconnectOptions options) {
  reconnect_ = std::move(options);
  reconnect_armed_ = true;
}

int64_t SopClient::Subscribe(const OutlierQuery& query, std::string* error) {
  return Subscribe(query, kNoResume, error);
}

int64_t SopClient::Subscribe(const OutlierQuery& query, int64_t resume_from,
                             std::string* error) {
  Sub sub;
  sub.query = query;
  sub.hwm = resume_from;
  for (int round = 0;; ++round) {
    std::string attempt_error;
    SubscribeAckMsg ack;
    // The public id is the server id of the FIRST successful registration
    // (stable thereafter); until then use a placeholder of 0, which
    // adopts replayed emissions by ack id.
    if (WireSubscribe(/*public_id=*/0, &sub, sub.hwm, &ack,
                      &attempt_error)) {
      if (ack.query_id == 0) {
        Fail(error,
             ack.error.empty() ? "subscription refused" : ack.error);
        return 0;
      }
      // The public id is normally the server's — identical behavior to a
      // reconnect-free client — but after a failover a fresh server's
      // counter can collide with an id this client already handed out.
      int64_t public_id = ack.query_id;
      if (subs_.count(public_id) > 0) {
        public_id = subs_.rbegin()->first + 1;
      }
      // Re-key the orphan adoptions done under placeholder id 0.
      for (EmissionMsg& m : emissions_) {
        if (m.query_id == 0) m.query_id = public_id;
      }
      subs_[public_id] = sub;
      server_to_public_[sub.server_id] = public_id;
      return public_id;
    }
    if (!reconnect_armed_ || round >= 1) {
      Fail(error, attempt_error);
      return 0;
    }
    if (!Recover(error)) return 0;
  }
}

bool SopClient::WireSubscribe(int64_t public_id, Sub* sub,
                              int64_t resume_from, SubscribeAckMsg* ack,
                              std::string* error) {
  SubscribeMsg msg;
  msg.query = sub->query;
  msg.resume_from = resume_from;
  collect_orphans_ = true;
  orphans_.clear();
  const bool sent = SendFrame(EncodeSubscribe(msg), error);
  std::string payload;
  const bool got =
      sent && ReadUntil(MsgType::kSubscribeAck, &payload, error);
  collect_orphans_ = false;
  if (!got) {
    orphans_.clear();
    return false;
  }
  if (!DecodeSubscribeAck(payload, ack, error)) {
    orphans_.clear();
    Close();
    return false;
  }
  last_replayed_ = ack->replayed;
  last_gap_ = ack->gap;
  if (ack->query_id != 0) {
    sub->server_id = ack->query_id;
    // Adopt the replayed emissions that arrived ahead of the ack: they
    // carry the just-assigned server id. Dedup against the subscription's
    // high-water mark like any delivery.
    for (EmissionMsg& m : orphans_) {
      if (m.query_id != ack->query_id) continue;
      if (m.boundary <= sub->hwm) {
        ++dropped_duplicates_;
        continue;
      }
      sub->hwm = m.boundary;
      m.query_id = public_id;
      emissions_.push_back(std::move(m));
    }
  }
  orphans_.clear();
  return true;
}

int64_t SopClient::high_water(int64_t query_id) const {
  const auto it = subs_.find(query_id);
  return it == subs_.end() ? kNoResume : it->second.hwm;
}

bool SopClient::Unsubscribe(int64_t query_id, std::string* error) {
  const auto it = subs_.find(query_id);
  const int64_t server_id = it == subs_.end() ? query_id : it->second.server_id;
  UnsubscribeMsg msg;
  msg.query_id = server_id;
  if (!SendFrame(EncodeUnsubscribe(msg), error)) return false;
  std::string payload;
  if (!ReadUntil(MsgType::kUnsubscribeAck, &payload, error)) return false;
  UnsubscribeAckMsg ack;
  if (!DecodeUnsubscribeAck(payload, &ack, error)) {
    Close();
    return false;
  }
  if (!ack.ok) return Fail(error, "unknown query id");
  if (it != subs_.end()) {
    server_to_public_.erase(it->second.server_id);
    subs_.erase(it);
  }
  return true;
}

bool SopClient::Ingest(int64_t boundary, const std::vector<Point>& points,
                       IngestAckMsg* ack, std::string* error) {
  return Ingest(boundary, points, {}, ack, error);
}

bool SopClient::Ingest(int64_t boundary, const std::vector<Point>& points,
                       const std::vector<uint8_t>& owner, IngestAckMsg* ack,
                       std::string* error) {
  SOP_TRACE("net/client/rtt_ms");
  for (int round = 0;; ++round) {
    std::string attempt_error;
    bool ok = false;
    {
      IngestMsg msg;
      msg.boundary = boundary;
      msg.points = points;
      msg.owner = owner;
      std::string payload;
      ok = SendFrame(EncodeIngest(msg), &attempt_error) &&
           ReadUntil(MsgType::kIngestAck, &payload, &attempt_error);
      if (ok && !DecodeIngestAck(payload, ack, &attempt_error)) {
        Close();
        ok = false;
      }
    }
    if (ok) {
      if (ack->accepted > 0 && reconnect_armed_) {
        // Retain the acked batch for post-failover re-ingest: a promoted
        // standby may trail by the batches the primary never replicated.
        sent_batches_.push_back(SentBatch{boundary, points, owner});
        while (sent_batches_.size() > std::max<size_t>(1,
                                                       reconnect_.ingest_replay)) {
          sent_batches_.pop_front();
        }
      }
      return true;
    }
    if (!reconnect_armed_ || round >= 1) return Fail(error, attempt_error);
    if (!Recover(error)) return false;
    if (recovered_boundary_ >= boundary) {
      // The crash ate the ack, not the batch: the recovered stream is
      // already past this boundary (either the old primary applied and
      // replicated it, or recovery re-ingested it from the retained
      // tail). Exactly-once holds; report it accepted, with the recovered
      // stream's arrival counter standing in for the lost ack's.
      ack->boundary = boundary;
      ack->accepted = points.size();
      ack->emissions = 0;
      ack->next_seq = recovered_next_seq_;
      return true;
    }
  }
}

bool SopClient::ShardConfig(const ShardConfigMsg& config,
                            ShardConfigAckMsg* ack, std::string* error) {
  for (int round = 0;; ++round) {
    std::string attempt_error;
    std::string payload;
    bool ok = SendFrame(EncodeShardConfig(config), &attempt_error) &&
              ReadUntil(MsgType::kShardConfigAck, &payload, &attempt_error);
    if (ok && !DecodeShardConfigAck(payload, ack, &attempt_error)) {
      Close();
      ok = false;
    }
    if (ok) {
      if (ack->ok) {
        // Remember it so Recover() re-declares the assignment to whatever
        // incarnation of the worker answers next.
        shard_config_ = config;
        shard_config_set_ = true;
      }
      return true;
    }
    if (!reconnect_armed_ || round >= 1) return Fail(error, attempt_error);
    // Recovery re-declares any previously accepted config; the re-send on
    // the next round is idempotent either way.
    if (!Recover(error)) return false;
  }
}

bool SopClient::Ping(PongMsg* pong, std::string* error) {
  PingMsg msg;
  msg.token = ++ping_token_;
  if (!SendFrame(EncodePing(msg), error)) return false;
  std::string payload;
  if (!ReadUntil(MsgType::kPong, &payload, error)) return false;
  if (!DecodePong(payload, pong, error)) {
    Close();
    return false;
  }
  return true;
}

bool SopClient::Recover(std::string* error) {
  std::vector<Endpoint> endpoints = reconnect_.endpoints;
  if (endpoints.empty()) endpoints.push_back(connected_endpoint_);
  int backoff_ms = std::max(1, reconnect_.backoff_initial_ms);
  std::string last_error = "no endpoints";
  for (int attempt = 0; attempt < reconnect_.max_attempts; ++attempt) {
    if (attempt > 0) {
      SleepMillis(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, reconnect_.backoff_max_ms);
    }
    const Endpoint& ep = endpoints[attempt % endpoints.size()];
    if (!ConnectRaw(ep.host, ep.port, &last_error)) continue;
    if (static_cast<ServerRole>(server_info_.role) != ServerRole::kPrimary) {
      // A standby that has not promoted yet; give it (or another
      // endpoint) time.
      last_error = "endpoint is a standby";
      Close();
      continue;
    }
    // Re-declare the shard assignment first: a restarted worker comes up
    // with no config, and stats labeling should precede re-ingest.
    if (shard_config_set_) {
      std::string payload;
      ShardConfigAckMsg sack;
      if (!SendFrame(EncodeShardConfig(shard_config_), &last_error) ||
          !ReadUntil(MsgType::kShardConfigAck, &payload, &last_error) ||
          !DecodeShardConfigAck(payload, &sack, &last_error) || !sack.ok) {
        if (last_error.empty()) last_error = sack.error;
        Close();
        continue;
      }
    }
    // Re-register every live subscription, resuming from its high-water
    // mark so the server replays what this client missed and suppresses
    // what it already has.
    server_to_public_.clear();
    bool ok = true;
    for (auto& entry : subs_) {
      Sub& sub = entry.second;
      const int64_t resume_from =
          sub.hwm == kNoResume ? kNoResume + 1 : sub.hwm;
      SubscribeAckMsg ack;
      if (!WireSubscribe(entry.first, &sub, resume_from, &ack,
                         &last_error) ||
          ack.query_id == 0) {
        if (ack.query_id == 0 && last_error.empty()) {
          last_error = ack.error;
        }
        ok = false;
        break;
      }
      server_to_public_[sub.server_id] = entry.first;
    }
    if (!ok) {
      Close();
      continue;
    }
    // Re-ingest the retained tail the new primary never saw. Its
    // emissions are regenerated by the (deterministic) session and
    // deduplicated by high-water marks like any other delivery.
    int64_t server_last = server_info_.last_boundary;
    uint64_t server_next_seq = server_info_.next_seq;
    for (const SentBatch& batch : sent_batches_) {
      if (batch.boundary <= server_last) continue;
      IngestMsg msg;
      msg.boundary = batch.boundary;
      msg.points = batch.points;
      msg.owner = batch.owner;
      std::string payload;
      IngestAckMsg ack;
      if (!SendFrame(EncodeIngest(msg), &last_error) ||
          !ReadUntil(MsgType::kIngestAck, &payload, &last_error) ||
          !DecodeIngestAck(payload, &ack, &last_error)) {
        ok = false;
        break;
      }
      if (ack.accepted > 0) server_last = batch.boundary;
      server_next_seq = ack.next_seq;
    }
    if (!ok) {
      Close();
      continue;
    }
    recovered_boundary_ = server_last;
    recovered_next_seq_ = server_next_seq;
    ++reconnects_;
    SOP_COUNTER_ADD("net/client/reconnects", 1);
    return true;
  }
  Close();
  return Fail(error, "reconnect failed after " +
                         std::to_string(reconnect_.max_attempts) +
                         " attempts: " + last_error);
}

void SopClient::AcceptEmission(EmissionMsg emission) {
  const auto it = server_to_public_.find(emission.query_id);
  if (it == server_to_public_.end()) {
    if (collect_orphans_) {
      // Mid-subscribe replay: the ack naming this id has not arrived yet.
      orphans_.push_back(std::move(emission));
    }
    // Otherwise: a push for a subscription this client no longer tracks
    // (in-flight when it unsubscribed). Drop.
    return;
  }
  Sub& sub = subs_[it->second];
  if (emission.boundary <= sub.hwm) {
    // Already delivered (resume replay overlapped the live stream).
    ++dropped_duplicates_;
    SOP_COUNTER_ADD("net/client/dropped_duplicates", 1);
    return;
  }
  sub.hwm = emission.boundary;
  emission.query_id = it->second;
  emissions_.push_back(std::move(emission));
}

std::vector<EmissionMsg> SopClient::TakeEmissions() {
  std::vector<EmissionMsg> out;
  out.swap(emissions_);
  return out;
}

std::vector<ErrorMsg> SopClient::TakeErrors() {
  std::vector<ErrorMsg> out;
  out.swap(errors_);
  return out;
}

void SopClient::Close() {
  sock_.Close();
  decoder_ = FrameDecoder();
}

bool SopClient::SendFrame(const std::string& frame, std::string* error) {
  if (!sock_.valid()) return Fail(error, "not connected");
  if (!SendAll(sock_, frame, error)) {
    Close();
    return false;
  }
  bytes_sent_ += frame.size();
  SOP_COUNTER_ADD("net/client/frames_out", 1);
  SOP_COUNTER_ADD("net/client/bytes_out", frame.size());
  return true;
}

bool SopClient::ReadUntil(MsgType expected, std::string* payload,
                          std::string* error) {
  if (!sock_.valid()) return Fail(error, "not connected");
  char buf[64 << 10];
  for (;;) {
    // Drain every complete buffered frame before touching the socket.
    for (;;) {
      std::string frame_payload;
      std::string decode_error;
      const FrameDecoder::Status status =
          decoder_.Next(&frame_payload, &decode_error);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        Close();
        return Fail(error, decode_error);
      }
      SOP_COUNTER_ADD("net/client/frames_in", 1);
      MsgType type;
      if (!PeekType(frame_payload, &type, &decode_error)) {
        Close();
        return Fail(error, decode_error);
      }
      if (type == expected) {
        *payload = std::move(frame_payload);
        return true;
      }
      // Server-push frames interleave freely with awaited acks.
      if (type == MsgType::kEmission) {
        EmissionMsg emission;
        if (!DecodeEmission(frame_payload, &emission, &decode_error)) {
          Close();
          return Fail(error, decode_error);
        }
        AcceptEmission(std::move(emission));
        continue;
      }
      if (type == MsgType::kError) {
        ErrorMsg diagnostic;
        if (!DecodeError(frame_payload, &diagnostic, &decode_error)) {
          Close();
          return Fail(error, decode_error);
        }
        errors_.push_back(std::move(diagnostic));
        continue;
      }
      Close();
      return Fail(error, std::string("unexpected server message: ") +
                             MsgTypeName(type));
    }
    std::string recv_error;
    const int64_t n = RecvSome(sock_, buf, sizeof(buf), &recv_error);
    if (n == 0) {
      Close();
      // A server that drops a connection explains why first; surface that
      // diagnostic instead of a bare EOF.
      if (!errors_.empty()) return Fail(error, errors_.back().message);
      return Fail(error, "server closed the connection");
    }
    if (n < 0) {
      Close();
      return Fail(error, recv_error);
    }
    bytes_received_ += static_cast<uint64_t>(n);
    SOP_COUNTER_ADD("net/client/bytes_in", n);
    decoder_.Append(buf, static_cast<size_t>(n));
  }
}

}  // namespace net
}  // namespace sop
