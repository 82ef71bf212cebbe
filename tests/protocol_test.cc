// Wire protocol tests: message round-trips, every message's golden frame,
// each decoder's refusal of every prefix, a trailing byte and oversized
// counts, incremental frame decoding over arbitrary read fragmentation,
// hostile-input rejection (truncation, bit flips, oversized length
// fields), and a randomized corruption fuzz loop mirroring
// recovery_test.cc's checkpoint fuzz.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/frame.h"
#include "sop/common/random.h"
#include "sop/common/serialize.h"
#include "sop/net/protocol.h"
#include "test_util.h"

namespace sop {
namespace net {
namespace {

// Mirrors the file-local constant in common/frame.cc ("SOPF" as an LE u32)
// so the tests can hand-build hostile headers.
constexpr uint32_t kFrameMagic = 0x53'4f'50'46;

Point MakePoint(Timestamp time, std::vector<double> values) {
  Point p;
  p.time = time;
  p.values = std::move(values);
  return p;
}

TEST(ProtocolTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.protocol_version = 7;
  HelloMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.protocol_version, 7u);
}

TEST(ProtocolTest, HelloAckRoundTrip) {
  HelloAckMsg msg;
  msg.protocol_version = kProtocolVersion;
  msg.window_type = 1;
  msg.metric = 1;
  msg.role = static_cast<uint32_t>(ServerRole::kStandby);
  msg.detector = "mcod-grid";
  msg.last_boundary = -42;
  msg.next_seq = 987654321;
  HelloAckMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.protocol_version, kProtocolVersion);
  EXPECT_EQ(out.window_type, 1u);
  EXPECT_EQ(out.metric, 1u);
  EXPECT_EQ(out.role, static_cast<uint32_t>(ServerRole::kStandby));
  EXPECT_EQ(out.detector, "mcod-grid");
  EXPECT_EQ(out.last_boundary, -42);
  EXPECT_EQ(out.next_seq, 987654321u);
}

TEST(ProtocolTest, IngestRoundTripPreservesPoints) {
  IngestMsg msg;
  msg.boundary = 12345;
  msg.points.push_back(MakePoint(10, {1.5, -2.5, 0.0}));
  msg.points.push_back(MakePoint(11, {3.25}));
  msg.points.push_back(MakePoint(12, {}));
  IngestMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.boundary, 12345);
  ASSERT_EQ(out.points.size(), 3u);
  EXPECT_EQ(out.points[0].time, 10);
  EXPECT_EQ(out.points[0].values, (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(out.points[1].values, std::vector<double>{3.25});
  EXPECT_TRUE(out.points[2].values.empty());
}

TEST(ProtocolTest, AckAndControlRoundTrips) {
  {
    IngestAckMsg msg{77, 128, 3, 4096};
    IngestAckMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.boundary, 77);
    EXPECT_EQ(out.accepted, 128u);
    EXPECT_EQ(out.emissions, 3u);
    EXPECT_EQ(out.next_seq, 4096u);
  }
  {
    SubscribeMsg msg;
    msg.query.r = 1.25;
    msg.query.k = 4;
    msg.query.win = 200;
    msg.query.slide = 50;
    msg.resume_from = 150;
    SubscribeMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.query.r, 1.25);
    EXPECT_EQ(out.query.k, 4);
    EXPECT_EQ(out.query.win, 200);
    EXPECT_EQ(out.query.slide, 50);
    EXPECT_EQ(out.query.attribute_set, 0u);
    EXPECT_EQ(out.resume_from, 150);
    // The default — no resume position — survives the wire too.
    SubscribeMsg fresh;
    const std::string fresh_frame = Encode(fresh);
    ASSERT_TRUE(UnwrapFrame(fresh_frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.resume_from, kNoResume);
  }
  {
    SubscribeAckMsg msg;
    msg.query_id = 9;
    msg.replayed = 12;
    msg.gap = true;
    msg.error = "why not";
    SubscribeAckMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.query_id, 9);
    EXPECT_EQ(out.replayed, 12u);
    EXPECT_TRUE(out.gap);
    EXPECT_EQ(out.error, "why not");
  }
  {
    UnsubscribeMsg msg{33};
    UnsubscribeMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.query_id, 33);
  }
  {
    UnsubscribeAckMsg msg{true};
    UnsubscribeAckMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_TRUE(out.ok);
  }
  {
    ErrorMsg msg{"boom"};
    ErrorMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.message, "boom");
  }
}

TEST(ProtocolTest, EmissionRoundTripWithDegradedFlag) {
  EmissionMsg msg;
  msg.query_id = 5;
  msg.boundary = 400;
  msg.degraded = true;
  msg.outliers = {0, 17, 123456789};
  EmissionMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.query_id, 5);
  EXPECT_EQ(out.boundary, 400);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.outliers, (std::vector<Seq>{0, 17, 123456789}));
}

TEST(ProtocolTest, PingPongRoundTrip) {
  {
    PingMsg msg;
    msg.token = 0xdeadbeefcafeull;
    PingMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.token, 0xdeadbeefcafeull);
  }
  {
    PongMsg msg;
    msg.token = 7;
    msg.role = static_cast<uint32_t>(ServerRole::kStandby);
    msg.last_boundary = 4200;
    msg.ingest_queue_depth = 3;
    msg.send_queue_depth = 19;
    msg.active_connections = 2;
    PongMsg out;
    std::string error;
    std::string_view payload;
    const std::string frame = Encode(msg);
    ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
    ASSERT_TRUE(Decode(payload, &out, &error)) << error;
    EXPECT_EQ(out.token, 7u);
    EXPECT_EQ(out.role, static_cast<uint32_t>(ServerRole::kStandby));
    EXPECT_EQ(out.last_boundary, 4200);
    EXPECT_EQ(out.ingest_queue_depth, 3u);
    EXPECT_EQ(out.send_queue_depth, 19u);
    EXPECT_EQ(out.active_connections, 2u);
  }
}

EmissionRecord MakeRecord(double r, int64_t k, int64_t win, int64_t slide,
                          int64_t boundary, bool degraded,
                          std::vector<Seq> outliers) {
  EmissionRecord rec;
  rec.query.r = r;
  rec.query.k = k;
  rec.query.win = win;
  rec.query.slide = slide;
  rec.boundary = boundary;
  rec.degraded = degraded;
  rec.outliers = std::move(outliers);
  return rec;
}

ResumeRingShard MakeShard(double r, int64_t k, int64_t win, int64_t slide,
                          int64_t evicted_to) {
  ResumeRingShard shard;
  shard.query.r = r;
  shard.query.k = k;
  shard.query.win = win;
  shard.query.slide = slide;
  shard.evicted_to = evicted_to;
  return shard;
}

TEST(ProtocolTest, ReplSnapshotRoundTrip) {
  ReplSnapshotMsg msg;
  msg.state = std::string("opaque\0blob", 11);  // embedded NUL survives
  ResumeRingShard a = MakeShard(1.5, 4, 200, 50, 700);
  a.entries.push_back({800, false, {1, 2, 3}});
  a.entries.push_back({850, true, {}});
  ResumeRingShard b = MakeShard(2.5, 8, 400, 100, INT64_MIN);
  b.entries.push_back({900, false, {42}});
  msg.ring.push_back(a);
  msg.ring.push_back(b);
  ReplSnapshotMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.state, msg.state);
  ASSERT_EQ(out.ring.size(), 2u);
  EXPECT_EQ(out.ring[0].query.r, 1.5);
  EXPECT_EQ(out.ring[0].query.k, 4);
  EXPECT_EQ(out.ring[0].evicted_to, 700);
  ASSERT_EQ(out.ring[0].entries.size(), 2u);
  EXPECT_EQ(out.ring[0].entries[0].boundary, 800);
  EXPECT_FALSE(out.ring[0].entries[0].degraded);
  EXPECT_EQ(out.ring[0].entries[0].outliers, (std::vector<Seq>{1, 2, 3}));
  EXPECT_TRUE(out.ring[0].entries[1].degraded);
  EXPECT_TRUE(out.ring[0].entries[1].outliers.empty());
  EXPECT_EQ(out.ring[1].query.slide, 100);
  EXPECT_EQ(out.ring[1].evicted_to, INT64_MIN);
  ASSERT_EQ(out.ring[1].entries.size(), 1u);
  EXPECT_EQ(out.ring[1].entries[0].outliers, (std::vector<Seq>{42}));
}

TEST(ProtocolTest, ReplBatchRoundTrip) {
  ReplBatchMsg msg;
  msg.prev_boundary = 100;
  msg.boundary = 200;
  msg.points.push_back(MakePoint(150, {1.0, 2.0}));
  msg.points.push_back(MakePoint(199, {-3.5}));
  msg.results.push_back(MakeRecord(0.5, 2, 100, 100, 200, false, {42}));
  ReplBatchMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.prev_boundary, 100);
  EXPECT_EQ(out.boundary, 200);
  ASSERT_EQ(out.points.size(), 2u);
  EXPECT_EQ(out.points[0].values, (std::vector<double>{1.0, 2.0}));
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_EQ(out.results[0].query.r, 0.5);
  EXPECT_EQ(out.results[0].outliers, std::vector<Seq>{42});
}

TEST(ProtocolTest, ReplAckRoundTrip) {
  ReplAckMsg msg;
  msg.boundary = 777;
  msg.need_snapshot = true;
  ReplAckMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.boundary, 777);
  EXPECT_TRUE(out.need_snapshot);
}

TEST(ProtocolTest, IngestOwnerFlagsRoundTrip) {
  IngestMsg msg;
  msg.boundary = 9;
  msg.points.push_back(MakePoint(1, {10.0}));
  msg.points.push_back(MakePoint(2, {20.0}));
  msg.points.push_back(MakePoint(3, {30.0}));
  msg.owner = {1, 0, 1};
  IngestMsg out;
  std::string error;
  std::string_view payload;
  const std::string frame = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(out.owner, (std::vector<uint8_t>{1, 0, 1}));

  // Empty owner flags (the single-node wire default) stay empty.
  msg.owner.clear();
  const std::string bare = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(bare, &payload, &error)) << error;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_TRUE(out.owner.empty());

  // A flag count that matches neither 0 nor the point count is malformed.
  msg.owner = {1, 0};
  const std::string bad = Encode(msg);
  ASSERT_TRUE(UnwrapFrame(bad, &payload, &error)) << error;
  EXPECT_FALSE(Decode(payload, &out, &error));
  EXPECT_NE(error.find("owner flag count"), std::string::npos);
}

TEST(ProtocolTest, PeekTypeRejectsUnknownWord) {
  BinaryWriter w;
  w.WriteU32(999);
  MsgType type;
  std::string error;
  EXPECT_FALSE(PeekType(w.bytes(), &type, &error));
  EXPECT_FALSE(PeekType("", &type, &error));
}

TEST(ProtocolTest, DecodersRejectWrongTypeAndTrailingBytes) {
  std::string error;
  std::string_view payload;
  const std::string hello = Encode(HelloMsg{});
  ASSERT_TRUE(UnwrapFrame(hello, &payload, &error));
  IngestMsg ingest;
  EXPECT_FALSE(Decode(payload, &ingest, &error));
  EXPECT_NE(error.find("unexpected message type"), std::string::npos);

  // Extending a valid payload must be caught even though the prefix parses.
  std::string extended(payload);
  extended.push_back('\0');
  HelloMsg out;
  EXPECT_FALSE(Decode(extended, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

// --- the codec's contract, message by message ----------------------------

// One fixed instance of every message, kIngest without and with owner
// flags, in type-word order.
auto Instances() {
  IngestMsg ingest;
  ingest.boundary = 20;
  ingest.points = {MakePoint(3, {1.5, -2.0}), MakePoint(4, {})};
  IngestMsg owned = ingest;
  owned.owner = {1, 0};
  ResumeRingShard shard = MakeShard(1.5, 4, 200, 50, 700);
  shard.entries.push_back({800, false, {1, 2}});
  shard.entries.push_back({850, true, {}});
  return std::make_tuple(
      HelloMsg{5}, HelloAckMsg{5, 1, 1, 1, "sop", -42, 7}, ingest, owned,
      IngestAckMsg{77, 2, 1, 9},
      SubscribeMsg{OutlierQuery(1.25, 4, 200, 50), 150},
      SubscribeAckMsg{9, 2, true, "no"}, UnsubscribeMsg{33},
      UnsubscribeAckMsg{true}, EmissionMsg{5, 400, true, {0, 17}},
      ErrorMsg{"boom"}, PingMsg{0xdeadbeef}, PongMsg{7, 1, 4200, 3, 19, 2},
      ReplSnapshotMsg{"st", {shard}},
      ReplBatchMsg{100,
                   200,
                   {MakePoint(150, {1.0, 2.0})},
                   {MakeRecord(0.5, 2, 100, 100, 200, false, {42})}},
      ReplAckMsg{777, true});
}

// The frames of Instances() as the per-message v5 encoders wrote them,
// before one field list per message replaced them.
const char* const kGoldenFrames[] = {
    // hello
    "46504f53010000000800000000000000c52f569e0100000005000000",
    // hello-ack
    "46504f53010000002f00000000000000ce3b1572020000000500000001000000"
    "01000000010000000300000000000000736f70d6ffffffffffffff0700000000"
    "000000",
    // ingest
    "46504f53010000004c000000000000002ed359d7030000001400000000000000"
    "020000000000000003000000000000000200000000000000000000000000f83f"
    "00000000000000c0040000000000000000000000000000000000000000000000",
    // ingest-owned
    "46504f53010000004e0000000000000098aeea48030000001400000000000000"
    "020000000000000003000000000000000200000000000000000000000000f83f"
    "00000000000000c0040000000000000000000000000000000200000000000000"
    "0100",
    // ingest-ack
    "46504f53010000002400000000000000873cdb2c040000004d00000000000000"
    "020000000000000001000000000000000900000000000000",
    // subscribe
    "46504f53010000002c0000000000000034f9c79705000000000000000000f43f"
    "0400000000000000c80000000000000032000000000000009600000000000000",
    // subscribe-ack
    "46504f53010000001f000000000000007120eb74060000000900000000000000"
    "02000000000000000102000000000000006e6f",
    // unsubscribe
    "46504f53010000000c00000000000000284d913a070000002100000000000000",
    // unsubscribe-ack
    "46504f530100000005000000000000004a8c55810800000001",
    // emission
    "46504f53010000002d000000000000009159061b090000000500000000000000"
    "9001000000000000010200000000000000000000000000000011000000000000"
    "00",
    // error
    "46504f530100000010000000000000001e13cc180a0000000400000000000000"
    "626f6f6d",
    // ping
    "46504f53010000000c0000000000000059a2bab30b000000efbeadde00000000",
    // pong
    "46504f53010000003000000000000000f4e670e60c0000000700000000000000"
    "0100000068100000000000000300000000000000130000000000000002000000"
    "00000000",
    // repl-snapshot
    "46504f53010000007800000000000000af363e890d0000000200000000000000"
    "73740100000000000000000000000000f83f0400000000000000c80000000000"
    "00003200000000000000bc020000000000000200000000000000200300000000"
    "0000000200000000000000010000000000000002000000000000005203000000"
    "000000010000000000000000",
    // repl-batch
    "46504f53010000007d000000000000004e4456c90e0000006400000000000000"
    "c800000000000000010000000000000096000000000000000200000000000000"
    "000000000000f03f00000000000000400100000000000000000000000000e03f"
    "020000000000000064000000000000006400000000000000c800000000000000"
    "0001000000000000002a00000000000000",
    // repl-ack
    "46504f53010000000d0000000000000099122f7d0f0000000903000000000000"
    "01",
};

std::string Hex(const std::string& bytes) {
  std::string hex;
  for (const unsigned char c : bytes) {
    char digits[3];
    std::snprintf(digits, sizeof(digits), "%02x", c);
    hex += digits;
  }
  return hex;
}

// Round trips cannot see a layout change made on both sides at once; the
// bytes can.
TEST(ProtocolTest, EveryMessageEncodesToItsGoldenFrame) {
  std::vector<std::string> frames;
  std::apply([&](const auto&... m) { (frames.push_back(Encode(m)), ...); },
             Instances());
  ASSERT_EQ(frames.size(), std::size(kGoldenFrames));
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(Hex(frames[i]), kGoldenFrames[i]) << "instance " << i;
  }
}

// `m` decodes from its own payload and re-encodes to the same frame; every
// strict prefix of the payload and the payload plus one byte are refused,
// and a refusal leaves the output as it was.
template <class M>
void ExpectStrictDecoding(const M& m) {
  SCOPED_TRACE(MsgTypeName(M::kType));
  const std::string frame = Encode(m);
  std::string_view payload;
  std::string error;
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  M out;
  ASSERT_TRUE(Decode(payload, &out, &error)) << error;
  EXPECT_EQ(Encode(out), frame);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(Decode(payload.substr(0, len), &out, &error))
        << "prefix " << len;
  }
  std::string extended(payload);
  extended.push_back('\0');
  EXPECT_FALSE(Decode(extended, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  EXPECT_EQ(Encode(out), frame);
}

TEST(ProtocolTest, EveryDecoderRefusesEachPrefixAndATrailingByte) {
  std::apply([](const auto&... m) { (ExpectStrictDecoding(m), ...); },
             Instances());
}

TEST(ProtocolTest, BoolBytesAboveOneAreRefused) {
  std::string_view payload;
  std::string error;
  const std::string frame = Encode(UnsubscribeAckMsg{true});
  ASSERT_TRUE(UnwrapFrame(frame, &payload, &error)) << error;
  std::string two(payload);
  two.back() = 2;
  UnsubscribeAckMsg out;
  EXPECT_FALSE(Decode(two, &out, &error));
  EXPECT_NE(error.find("unsubscribe-ack"), std::string::npos) << error;
}

// A count that claims 2^62 elements, with nothing after it: each vector's
// reader grows one element at a time, so it fails at the first missing
// byte instead of sizing an allocation.
TEST(ProtocolTest, OversizedCountsAreRefusedWithoutAllocating) {
  constexpr uint64_t kHuge = 1ull << 62;
  auto query = [](BinaryWriter* w) {
    w->WriteDouble(1.0);
    w->WriteI64(2);
    w->WriteI64(100);
    w->WriteI64(10);
  };
  auto begin = [](MsgType type) {
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(type));
    return w;
  };
  auto refused = [](const BinaryWriter& w, auto out) {
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = Decode(w.bytes(), &out, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    return !ok;
  };
  {  // ingest points
    BinaryWriter w = begin(MsgType::kIngest);
    w.WriteI64(10);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, IngestMsg{}));
  }
  {  // one point's values
    BinaryWriter w = begin(MsgType::kIngest);
    w.WriteI64(10);
    w.WriteU64(1);
    w.WriteI64(5);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, IngestMsg{}));
  }
  {  // ingest owner flags
    BinaryWriter w = begin(MsgType::kIngest);
    w.WriteI64(10);
    w.WriteU64(0);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, IngestMsg{}));
  }
  {  // emission outliers
    BinaryWriter w = begin(MsgType::kEmission);
    w.WriteI64(1);
    w.WriteI64(10);
    w.WriteBool(false);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, EmissionMsg{}));
  }
  {  // the repl-snapshot ring
    BinaryWriter w = begin(MsgType::kReplSnapshot);
    w.WriteBytes("");
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, ReplSnapshotMsg{}));
  }
  {  // one ring shard's entries
    BinaryWriter w = begin(MsgType::kReplSnapshot);
    w.WriteBytes("");
    w.WriteU64(1);
    query(&w);
    w.WriteI64(INT64_MIN);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, ReplSnapshotMsg{}));
  }
  {  // one ring entry's outliers
    BinaryWriter w = begin(MsgType::kReplSnapshot);
    w.WriteBytes("");
    w.WriteU64(1);
    query(&w);
    w.WriteI64(INT64_MIN);
    w.WriteU64(1);
    w.WriteI64(10);
    w.WriteBool(false);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, ReplSnapshotMsg{}));
  }
  {  // repl-batch points
    BinaryWriter w = begin(MsgType::kReplBatch);
    w.WriteI64(0);
    w.WriteI64(10);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, ReplBatchMsg{}));
  }
  {  // repl-batch results
    BinaryWriter w = begin(MsgType::kReplBatch);
    w.WriteI64(0);
    w.WriteI64(10);
    w.WriteU64(0);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, ReplBatchMsg{}));
  }
  {  // one result's outliers
    BinaryWriter w = begin(MsgType::kReplBatch);
    w.WriteI64(0);
    w.WriteI64(10);
    w.WriteU64(0);
    w.WriteU64(1);
    query(&w);
    w.WriteI64(10);
    w.WriteBool(false);
    w.WriteU64(kHuge);
    EXPECT_TRUE(refused(w, ReplBatchMsg{}));
  }
}

// The decoder must hand out frames regardless of how recv fragments them:
// byte-at-a-time, all-at-once, and frame boundaries crossing read
// boundaries are all the same stream.
TEST(ProtocolTest, FrameDecoderReassemblesAnyFragmentation) {
  std::vector<std::string> frames;
  frames.push_back(Encode(HelloMsg{}));
  IngestMsg ingest;
  ingest.boundary = 10;
  ingest.points.push_back(MakePoint(1, {2.0, 3.0}));
  frames.push_back(Encode(ingest));
  frames.push_back(Encode(ErrorMsg{"x"}));
  std::string stream;
  for (const std::string& f : frames) stream += f;

  for (const size_t chunk : {size_t{1}, size_t{3}, stream.size()}) {
    FrameDecoder decoder;
    std::vector<std::string> got;
    for (size_t i = 0; i < stream.size(); i += chunk) {
      decoder.Append(stream.data() + i, std::min(chunk, stream.size() - i));
      for (;;) {
        std::string payload;
        std::string error;
        const FrameDecoder::Status status = decoder.Next(&payload, &error);
        if (status != FrameDecoder::Status::kFrame) {
          ASSERT_EQ(status, FrameDecoder::Status::kNeedMore) << error;
          break;
        }
        got.push_back(payload);
      }
    }
    ASSERT_EQ(got.size(), frames.size()) << "chunk=" << chunk;
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
    for (size_t i = 0; i < frames.size(); ++i) {
      std::string_view payload;
      std::string error;
      ASSERT_TRUE(UnwrapFrame(frames[i], &payload, &error));
      EXPECT_EQ(got[i], payload) << "chunk=" << chunk << " frame=" << i;
    }
  }
}

TEST(ProtocolTest, FrameDecoderRejectsOversizedLengthWithoutAllocating) {
  // A hostile header: valid magic + version, 1 EiB length. The decoder
  // must latch an error from the 20 header bytes alone.
  BinaryWriter w;
  w.WriteU32(kFrameMagic);
  w.WriteU32(kFrameVersion);
  w.WriteU64(1ull << 60);
  w.WriteU32(0);  // CRC never reached
  FrameDecoder decoder;
  decoder.Append(w.bytes().data(), w.bytes().size());
  std::string payload;
  std::string error;
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kError);
  EXPECT_NE(error.find("oversized"), std::string::npos) << error;
}

TEST(ProtocolTest, FrameDecoderLatchesAfterBadMagic) {
  FrameDecoder decoder;
  const std::string junk = "this is not a frame at all.........";
  decoder.Append(junk.data(), junk.size());
  std::string payload;
  std::string error;
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kError);
  // Even a valid frame cannot rescue a desynchronized stream.
  const std::string good = Encode(HelloMsg{});
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kError);
}

TEST(ProtocolTest, FrameDecoderRejectsBitFlips) {
  const std::string frame = Encode([] {
    IngestMsg m;
    m.boundary = 99;
    for (int i = 0; i < 32; ++i) {
      m.points.push_back(MakePoint(i, {static_cast<double>(i)}));
    }
    return m;
  }());
  // Flip one bit at a time across the whole frame; every mutant must be
  // rejected (header corruption) or fail CRC (payload corruption).
  for (size_t bit = 0; bit < frame.size() * 8; bit += 7) {
    std::string mutated = frame;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    FrameDecoder decoder;
    decoder.Append(mutated.data(), mutated.size());
    std::string payload;
    std::string error;
    const FrameDecoder::Status status = decoder.Next(&payload, &error);
    // A flip inside the length field can make the frame look longer than
    // the bytes fed — kNeedMore is a correct answer there; completion with
    // a valid CRC is not.
    EXPECT_NE(status, FrameDecoder::Status::kFrame) << "bit " << bit;
  }
}

TEST(ProtocolTest, TruncationAtEveryPrefixIsRejectedOrIncomplete) {
  SubscribeAckMsg ack;
  ack.query_id = 4;
  ack.error = "ok";
  const std::string frame = Encode(ack);
  for (size_t len = 0; len < frame.size(); ++len) {
    FrameDecoder decoder;
    decoder.Append(frame.data(), len);
    std::string payload;
    std::string error;
    EXPECT_NE(decoder.Next(&payload, &error), FrameDecoder::Status::kFrame)
        << "prefix " << len;
  }
}

// Randomized corruption fuzz over the whole decode surface: mutate valid
// frames (bit flips, truncations, splices, pure garbage) and feed them to
// FrameDecoder + all 15 message decoders. Nothing may crash; genuine mutants
// must never round-trip into an accepted frame whose payload then decodes
// under a different length than it encoded. Time-bounded; seed logged for
// replay (SOP_FUZZ_SEED pins it, SOP_FUZZ_MS extends the budget).
TEST(ProtocolTest, CorruptionFuzzNeverCrashes) {
  const testing::FuzzParams fuzz =
      testing::AnnouncedFuzzParams("protocol corruption", 200);
  const uint64_t seed = fuzz.seed;
  const int64_t budget_ms = fuzz.budget_ms;

  IngestMsg ingest;
  ingest.boundary = 1000;
  for (int i = 0; i < 64; ++i) {
    ingest.points.push_back(MakePoint(i, {1.0 * i, -1.0 * i}));
  }
  EmissionMsg emission;
  emission.query_id = 3;
  emission.boundary = 1000;
  emission.outliers = {1, 2, 3, 4, 5};
  ReplBatchMsg repl_batch;
  repl_batch.prev_boundary = 900;
  repl_batch.boundary = 1000;
  for (int i = 0; i < 16; ++i) {
    repl_batch.points.push_back(MakePoint(900 + i, {2.0 * i}));
  }
  repl_batch.results.push_back(
      MakeRecord(1.0, 3, 500, 100, 1000, false, {7, 8}));
  ReplSnapshotMsg repl_snap;
  repl_snap.state = std::string(256, '\x5a');
  ResumeRingShard fuzz_shard = MakeShard(1.0, 3, 500, 100, 800);
  fuzz_shard.entries.push_back({900, true, {5}});
  repl_snap.ring.push_back(fuzz_shard);
  const std::vector<std::string> valids = {
      Encode(HelloMsg{}),
      Encode(HelloAckMsg{}),
      Encode(ingest),
      Encode(SubscribeMsg{}),
      Encode(emission),
      Encode(ErrorMsg{"diagnostic"}),
      Encode(PingMsg{99}),
      Encode(PongMsg{}),
      Encode(repl_snap),
      Encode(repl_batch),
      Encode(ReplAckMsg{}),
  };

  // One message of every type for the survivors to decode into.
  const auto decoded = Instances();
  Rng rng(seed);
  uint64_t iterations = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int burst = 0; burst < 64; ++burst, ++iterations) {
      const std::string& valid =
          valids[rng.NextBelow(valids.size())];
      std::string mutated;
      const uint64_t kind = rng.NextBelow(4);
      if (kind == 0) {
        mutated = valid;
        const uint64_t flips = 1 + rng.NextBelow(8);
        for (uint64_t f = 0; f < flips; ++f) {
          const uint64_t bit = rng.NextBelow(mutated.size() * 8);
          mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        }
      } else if (kind == 1) {
        mutated = valid.substr(0, rng.NextBelow(valid.size()));
      } else if (kind == 2) {
        mutated = valid;
        const uint64_t at = rng.NextBelow(mutated.size());
        const uint64_t len = 1 + rng.NextBelow(32);
        for (uint64_t j = 0; j < len; ++j) {
          mutated.insert(mutated.begin() + static_cast<int64_t>(at),
                         static_cast<char>(rng.NextBelow(256)));
        }
      } else {
        mutated.resize(rng.NextBelow(valid.size() * 2 + 1));
        for (char& c : mutated) c = static_cast<char>(rng.NextBelow(256));
      }

      // Feed through the incremental decoder in random chunk sizes; then
      // throw whatever payloads survive at every decoder. None of this may
      // crash or hang.
      FrameDecoder decoder;
      size_t offset = 0;
      while (offset < mutated.size()) {
        const size_t chunk = std::min<size_t>(
            mutated.size() - offset, 1 + rng.NextBelow(1024));
        decoder.Append(mutated.data() + offset, chunk);
        offset += chunk;
        for (;;) {
          std::string payload;
          std::string error;
          const FrameDecoder::Status status = decoder.Next(&payload, &error);
          if (status != FrameDecoder::Status::kFrame) break;
          MsgType type;
          if (!PeekType(payload, &type, &error)) continue;
          std::apply(
              [&](auto... m) { (Decode(payload, &m, &error), ...); },
              decoded);
        }
      }
    }
  }
  std::fprintf(stderr, "[ fuzz ] %llu mutated streams survived\n",
               static_cast<unsigned long long>(iterations));
}

}  // namespace
}  // namespace net
}  // namespace sop
